"""Flow-key extraction: the tuple the datapath classifies packets on.

The exact-match cache (EMC) in the vSwitch keys on the full
:class:`FlowKey`; the tuple-space classifier matches masked subsets of
its fields.  The field set mirrors the OpenFlow 1.0-ish subset the paper's
steering rules use.
"""

from typing import Dict, List, NamedTuple, Optional

from repro.packet.headers import (
    ETH_TYPE_IPV4,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Ethernet,
    Icmp,
    IPv4,
    IPv6,
    Tcp,
    Udp,
    Vlan,
)
from repro.packet.packet import Packet


class FlowKey(NamedTuple):
    """The classification key extracted from a packet at a port.

    All address fields are integers (MACs as 48-bit ints, IPv4 as 32-bit
    ints) so keys hash fast and masks apply with plain bitwise AND.
    Missing layers are zero — the corresponding match fields can only be
    wildcarded for such packets, which the classifier enforces via the
    eth_type/ip_proto prerequisites.
    """

    in_port: int
    eth_src: int
    eth_dst: int
    eth_type: int
    vlan_vid: int
    ip_src: int
    ip_dst: int
    ip_proto: int
    ip_tos: int
    l4_src: int
    l4_dst: int


EMPTY_L3 = (0, 0, 0, 0, 0, 0)

# ``tuple.__new__(FlowKey, fields)`` builds a key without the Python
# frame of the namedtuple's own ``__new__``.
_new_key = tuple.__new__


def extract_flow_key(packet: Packet, in_port: int) -> FlowKey:
    """Build the :class:`FlowKey` for ``packet`` received on ``in_port``.

    The header stack is walked once: of each header type the first one
    wins, the header :meth:`Packet.get` would return.
    """
    eth = vlan = ipv4 = ipv6 = tcp = udp = icmp = None
    # Walked backwards, so the last assignment of each type is the
    # first header of that type.
    for header in reversed(packet.headers):
        kind = type(header)
        if kind is Ethernet:
            eth = header
        elif kind is IPv4:
            ipv4 = header
        elif kind is Udp:
            udp = header
        elif kind is Tcp:
            tcp = header
        elif kind is Vlan:
            vlan = header
        elif kind is IPv6:
            ipv6 = header
        elif kind is Icmp:
            icmp = header
    if eth is None:
        return _new_key(FlowKey, (in_port, 0, 0, 0, 0) + EMPTY_L3)

    if vlan is not None:
        vlan_vid, eth_type = vlan.vid, vlan.eth_type
    else:
        vlan_vid, eth_type = 0, eth.eth_type

    ip_src = ip_dst = ip_proto = ip_tos = 0
    l4_src = l4_dst = 0

    if ipv4 is not None and eth_type == ETH_TYPE_IPV4:
        ip_src, ip_dst = ipv4.src, ipv4.dst
        ip_proto, ip_tos = ipv4.proto, ipv4.tos
    elif ipv6 is not None:
        # Classify IPv6 on the low 32 bits: enough to discriminate
        # flows in the workloads we generate while keeping the key
        # compact.
        ip_src = ipv6.src & 0xFFFFFFFF
        ip_dst = ipv6.dst & 0xFFFFFFFF
        ip_proto = ipv6.next_header
        ip_tos = ipv6.traffic_class

    if ip_proto == IP_PROTO_UDP:
        if udp is not None:
            l4_src, l4_dst = udp.src_port, udp.dst_port
    elif ip_proto == IP_PROTO_TCP:
        if tcp is not None:
            l4_src, l4_dst = tcp.src_port, tcp.dst_port
    elif ip_proto == IP_PROTO_ICMP:
        if icmp is not None:
            l4_src, l4_dst = icmp.icmp_type, icmp.code

    return _new_key(FlowKey, (in_port, eth.src.value, eth.dst.value,
                              eth_type, vlan_vid, ip_src, ip_dst, ip_proto,
                              ip_tos, l4_src, l4_dst))


def key_with_port(key: FlowKey, in_port: int) -> FlowKey:
    """Re-key an already-extracted flow key at a different input port.

    The fast path uses this when a cached key crosses a patch port or a
    benchmark template mbuf is re-injected at another port: only the
    ``in_port`` field changes, so re-parsing the packet is unnecessary.
    """
    return key._replace(in_port=in_port)


def cached_flow_key(mbuf, in_port: int) -> FlowKey:
    """Return the flow key for ``mbuf`` at ``in_port``, caching on userdata.

    Benchmark workloads re-inject a handful of template packets millions of
    times; caching the extracted key on the mbuf keeps the functional
    semantics while avoiding redundant parsing.
    """
    cached: Optional[FlowKey] = mbuf.userdata
    if cached is None:
        cached = extract_flow_key(mbuf.packet, in_port)
        mbuf.userdata = cached
        return cached
    if cached.in_port != in_port:
        return cached._replace(in_port=in_port)
    return cached


class RekeyMemo:
    """Bounded per-``in_port`` memo of re-keyed flow keys.

    A generator's template key sits at ``in_port=0`` and is never
    written back, so every switch hop of every packet would rebuild the
    same tuple; here a steady flow is re-keyed once per port it crosses.
    Each port holds at most ``CAP`` entries, oldest out first.
    """

    CAP = 1024

    def __init__(self) -> None:
        self._ports: Dict[int, Dict[FlowKey, FlowKey]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def entries(self) -> int:
        return sum(len(memo) for memo in self._ports.values())

    def forget(self, in_port: int) -> None:
        """Drop what was memoised for a port that is gone."""
        self._ports.pop(in_port, None)

    def keys_at(self, mbufs, in_port: int) -> List[FlowKey]:
        """The flow key of each mbuf of a burst from one port.

        A key found on the mbuf (a source's template key) is re-keyed
        through the memo; one extracted here lives in the returned list
        only and is not written back, so it goes with the burst.
        """
        memo = self._ports.get(in_port)
        if memo is None:
            memo = self._ports[in_port] = {}
        keys = []
        rekeyed = misses = 0
        for mbuf in mbufs:
            key = mbuf.userdata
            if key is None:
                key = extract_flow_key(mbuf.packet, in_port)
            elif key.in_port != in_port:
                rekeyed += 1
                cached = memo.get(key)
                if cached is None:
                    misses += 1
                    if len(memo) >= self.CAP:
                        del memo[next(iter(memo))]
                    cached = memo[key] = key._replace(in_port=in_port)
                key = cached
            keys.append(key)
        self.hits += rekeyed - misses
        self.misses += misses
        return keys
