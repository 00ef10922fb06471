"""Compiled XFSM programs: the network functions of the stateful tier.

Each factory returns an :class:`~repro.state.xfsm.Xfsm` that the
vSwitch datapath and a bypass PMD execute.  The connection machine has
one implementation: the guest stateful firewall runs
:func:`firewall_program` too, so moving it between guest, switch and
channel changes where it runs, never what it decides.
``tests/test_property_state.py`` holds both connection programs against
an independent tracker written without a transition table.

* :func:`conntrack_program` — the TCP/UDP connection machine
  (observation only, always allow);
* :func:`firewall_program` — the perimeter policy (inside may initiate,
  outside may only reply).  No rewrites, so it is **state-safe** and
  may ride a p-2-p bypass channel;
* :func:`acl_program` — :class:`~repro.apps.firewall.FirewallApp`'s
  stateless deny-rule ACL (no state table writes at all);
* :func:`nat_program` — source NAT with per-flow port allocation.  It
  mutates headers, so it is **not** state-safe: the detector must keep
  ports delegating to it off the bypass (the negative test);
* :func:`token_bucket_program` — per-source token-bucket rate limiting
  with the bucket registers stored in the flow entry.
"""

from typing import Any, Dict, List, Optional

from repro.packet.headers import IP_PROTO_TCP, IP_PROTO_UDP, IPv4, Tcp, Udp
from repro.state.table import (
    StateTable,
    canonical_scope,
    exact_scope,
    source_scope,
)
from repro.state.xfsm import (
    ALLOW,
    DROP,
    Event,
    TokenBucket,
    Transition,
    Xfsm,
    always,
)

# The connection machine's states.
NEW = "NEW"
SYN_SENT = "SYN_SENT"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSED = "CLOSED"

CONN_STATES = (NEW, SYN_SENT, ESTABLISHED, FIN_WAIT, CLOSED)


def _record_direction(event: Event, data: Dict[str, Any]) -> None:
    """Per-packet register update shared by every tracking edge."""
    data.setdefault("originated_inside", event.from_inside)
    data["out" if event.from_inside else "in"] = True


def _is_rst(event: Event, _data) -> bool:
    return bool(event.tcp_flags & Tcp.RST)


def _is_fin(event: Event, _data) -> bool:
    return bool(event.tcp_flags & Tcp.FIN)


def _is_syn_ack(event: Event, _data) -> bool:
    return (event.tcp_flags & (Tcp.SYN | Tcp.ACK)) == (Tcp.SYN | Tcp.ACK)


def _is_syn(event: Event, _data) -> bool:
    return bool(event.tcp_flags & Tcp.SYN)


def _is_ack(event: Event, _data) -> bool:
    return bool(event.tcp_flags & Tcp.ACK)


def _non_tcp_reply_seen(event: Event, data: Dict[str, Any]) -> bool:
    """UDP and friends: established once a packet has gone each way.

    The current packet counts, so the guard asks whether the *opposite*
    direction was already recorded (or both were)."""
    if event.ip_proto == IP_PROTO_TCP:
        return False
    return bool(data.get("in" if event.from_inside else "out"))


def _tracking_edges(state: str) -> List[Transition]:
    """The connection machine, one state's edge list.

    Edge order is the flag precedence: RST beats FIN beats SYN+ACK
    beats SYN beats bare ACK."""
    edges = [
        Transition(_is_rst, to_state=CLOSED, update=_record_direction,
                   name="rst"),
        Transition(_is_fin,
                   to_state=CLOSED if state == FIN_WAIT else FIN_WAIT,
                   update=_record_direction, name="fin"),
        Transition(_is_syn_ack, to_state=ESTABLISHED,
                   update=_record_direction, name="syn_ack"),
        Transition(_is_syn, to_state=SYN_SENT,
                   update=_record_direction, name="syn"),
    ]
    if state == SYN_SENT:
        edges.append(Transition(_is_ack, to_state=ESTABLISHED,
                                update=_record_direction, name="ack"))
    edges.append(Transition(_non_tcp_reply_seen, to_state=ESTABLISHED,
                            update=_record_direction, name="reply_seen"))
    edges.append(Transition(always, update=_record_direction,
                            name="track"))
    return edges


def conntrack_program(name: str = "conntrack", capacity: int = 65536,
                      idle_timeout: float = 30.0) -> Xfsm:
    """Pure connection tracking: every packet allowed, state advanced."""
    table = StateTable(name=name, capacity=capacity,
                       idle_timeout=idle_timeout,
                       lookup_scope=canonical_scope)
    transitions = {state: _tracking_edges(state) for state in CONN_STATES}
    return Xfsm(name, table, transitions, default_state=NEW)


def _non_transport(event: Event, _data) -> bool:
    return event.ip_proto not in (IP_PROTO_TCP, IP_PROTO_UDP)


def _outside_stranger(event: Event, data: Dict[str, Any]) -> bool:
    """Unsolicited outside traffic: no inside-originated entry to join.

    An unknown flow reaches this guard with empty registers, and the
    drop edge never persists, so a SYN flood from outside cannot write
    a single entry — boundedness comes for free."""
    return not event.from_inside and not data.get("originated_inside")


def _outside_packet(event: Event, _data) -> bool:
    return not event.from_inside


def firewall_program(name: str = "stateful_fw", capacity: int = 65536,
                     idle_timeout: float = 30.0) -> Xfsm:
    """The perimeter policy: inside may initiate, outside may only
    reply to a connection the inside opened."""
    table = StateTable(name=name, capacity=capacity,
                       idle_timeout=idle_timeout,
                       lookup_scope=canonical_scope)
    transitions: Dict[str, List[Transition]] = {}
    for state in CONN_STATES:
        edges: List[Transition] = [
            Transition(_non_transport, verdict=ALLOW, persist=False,
                       name="non_transport"),
            Transition(_outside_stranger, verdict=DROP, persist=False,
                       name="outside_stranger"),
        ]
        if state == CLOSED:
            edges.append(Transition(_outside_packet, verdict=DROP,
                                    persist=False, name="outside_closed"))
        edges.extend(_tracking_edges(state))
        transitions[state] = edges
    return Xfsm(name, table, transitions, default_state=NEW)


def acl_program(deny_rules, name: str = "acl") -> Xfsm:
    """The stateless 5-tuple ACL of ``FirewallApp``: default allow,
    drop on any matching deny rule.  Writes no state at all."""
    rules = list(deny_rules)

    def _denied(event: Event, _data) -> bool:
        return any(rule.matches(event.key) for rule in rules)

    table = StateTable(name=name, capacity=1, lookup_scope=exact_scope)
    transitions = {
        "DEFAULT": [
            Transition(_denied, verdict=DROP, persist=False, name="deny"),
            Transition(always, verdict=ALLOW, persist=False, name="pass"),
        ],
    }
    return Xfsm(name, table, transitions)


def nat_program(name: str = "snat", public_ip: int = 0x0A0A0A0A,
                port_base: int = 50000, capacity: int = 65536,
                idle_timeout: float = 30.0) -> Xfsm:
    """Source NAT: rewrite ip_src/l4_src, one allocated port per flow.

    The rewrite makes this program non-state-safe by construction — the
    detector's negative case: a port delegating to it must keep going
    through the switch."""
    allocator = {"next": port_base}

    def _rewrite(event: Event, mbuf, data: Dict[str, Any]) -> None:
        port = data.get("nat_port")
        if port is None:
            port = allocator["next"]
            allocator["next"] += 1
            data["nat_port"] = port
            data["orig_src"] = event.key.ip_src
        packet = mbuf.packet
        if packet is None:
            return
        ipv4 = packet.get(IPv4)
        if ipv4 is not None:
            ipv4.src = public_ip
        l4 = packet.get(Tcp) or packet.get(Udp)
        if l4 is not None:
            l4.src_port = port
        mbuf.userdata = None  # cached flow key is stale after a rewrite

    table = StateTable(name=name, capacity=capacity,
                       idle_timeout=idle_timeout, lookup_scope=exact_scope)
    transitions = {
        "DEFAULT": [Transition(always, to_state="NATTED", name="allocate")],
        "NATTED": [Transition(always, name="translate")],
    }
    return Xfsm(name, table, transitions, default_state="DEFAULT",
                rewrite=_rewrite)


def token_bucket_program(rate_pps: float, burst: float,
                         name: str = "ratelimit",
                         capacity: int = 4096,
                         idle_timeout: float = 30.0,
                         per_source: bool = True) -> Xfsm:
    """Token-bucket rate limiting; bucket registers ride the entry."""
    table = StateTable(
        name=name, capacity=capacity, idle_timeout=idle_timeout,
        lookup_scope=source_scope if per_source else canonical_scope,
    )
    transitions = {
        "DEFAULT": [Transition(always, to_state="TRACKED", name="track")],
        "TRACKED": [Transition(always, name="track")],
    }
    return Xfsm(name, table, transitions, default_state="DEFAULT",
                rate_limit=TokenBucket(rate_pps=rate_pps, burst=burst))
