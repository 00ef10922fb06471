"""The guest connection tracker, kept as the independent oracle the
XFSM connection programs are checked against.

Until the guest stateful firewall ran ``state.programs.firewall_program``,
:class:`ConnectionTracker` was its own second implementation of the
TCP/UDP connection machine (NEW -> SYN_SENT -> ESTABLISHED -> FIN_WAIT ->
CLOSED, idle eviction on lookup), and :func:`reference_verdict` was the
app's per-packet decision over it.  Both are kept here as they stood,
written without the XFSM's transition table, so a differential can hold
``conntrack_program`` and ``firewall_program`` to the same state labels,
occupancy and verdicts.  One deliberate difference: when full the
tracker refuses a new connection (``rejected_full``), where a
``StateTable`` evicts its least recently used entry — the properties
compare the two only below capacity.
"""

import enum
from typing import Dict, Optional, Tuple

from repro.packet.flowkey import FlowKey
from repro.packet.headers import IP_PROTO_TCP, IP_PROTO_UDP, Tcp
from repro.packet.mbuf import Mbuf

FiveTuple = Tuple[int, int, int, int, int]


class ConnState(enum.Enum):
    NEW = "new"
    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    FIN_WAIT = "fin_wait"
    CLOSED = "closed"


class Connection:
    """Tracked state of one bidirectional transport flow."""

    __slots__ = ("key", "state", "created", "last_seen",
                 "packets_in", "packets_out", "originated_inside")

    def __init__(self, key: FiveTuple, now: float,
                 originated_inside: bool) -> None:
        self.key = key
        self.state = ConnState.NEW
        self.created = now
        self.last_seen = now
        self.packets_in = 0
        self.packets_out = 0
        self.originated_inside = originated_inside


def _canonical(key: FlowKey) -> "Tuple[FiveTuple, bool]":
    """Direction-independent 5-tuple plus 'is forward direction'.

    Forward = the orientation of the numerically smaller endpoint first,
    so both directions of a flow map to the same connection entry.
    """
    forward = (key.ip_src, key.l4_src) <= (key.ip_dst, key.l4_dst)
    if forward:
        tup = (key.ip_src, key.ip_dst, key.ip_proto, key.l4_src, key.l4_dst)
    else:
        tup = (key.ip_dst, key.ip_src, key.ip_proto, key.l4_dst, key.l4_src)
    return tup, forward


class ConnectionTracker:
    """Flow table with a TCP-aware state machine and idle eviction."""

    def __init__(self, max_connections: int = 65536,
                 idle_timeout: float = 30.0) -> None:
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.connections: Dict[FiveTuple, Connection] = {}
        self.created_total = 0
        self.evicted_idle = 0
        self.evicted_on_lookup = 0
        self.rejected_full = 0

    def _evict_if_idle(self, tup: FiveTuple,
                       connection: Connection, now: float) -> bool:
        if now - connection.last_seen < self.idle_timeout:
            return False
        del self.connections[tup]
        self.evicted_idle += 1
        self.evicted_on_lookup += 1
        return True

    def lookup(self, key: FlowKey,
               now: Optional[float] = None) -> Optional[Connection]:
        """Find the connection for ``key``; with ``now`` (the simulated
        clock), an idle-expired entry is evicted *here*, so eviction
        happens at a deterministic point in simulated time instead of
        whenever a batch ``expire()`` sweep happens to run."""
        tup, _forward = _canonical(key)
        connection = self.connections.get(tup)
        if (connection is not None and now is not None
                and self._evict_if_idle(tup, connection, now)):
            return None
        return connection

    def observe(self, key: FlowKey, mbuf: Mbuf, now: float,
                from_inside: bool) -> Optional[Connection]:
        """Track one packet; returns its connection (None = table full
        and this packet did not belong to an existing connection)."""
        tup, _forward = _canonical(key)
        connection = self.connections.get(tup)
        if (connection is not None
                and self._evict_if_idle(tup, connection, now)):
            connection = None
        if connection is None:
            if len(self.connections) >= self.max_connections:
                self.rejected_full += 1
                return None
            connection = Connection(tup, now, originated_inside=from_inside)
            self.connections[tup] = connection
            self.created_total += 1
        connection.last_seen = now
        if from_inside:
            connection.packets_out += 1
        else:
            connection.packets_in += 1
        self._advance(connection, key, mbuf)
        return connection

    def _advance(self, connection: Connection, key: FlowKey,
                 mbuf: Mbuf) -> None:
        if key.ip_proto != IP_PROTO_TCP:
            # UDP and friends: a packet each way means established.
            if connection.packets_in and connection.packets_out:
                connection.state = ConnState.ESTABLISHED
            return
        tcp = mbuf.packet.get(Tcp) if mbuf.packet is not None else None
        if tcp is None:
            return
        if tcp.flags & Tcp.RST:
            connection.state = ConnState.CLOSED
            return
        if tcp.flags & Tcp.FIN:
            if connection.state == ConnState.FIN_WAIT:
                connection.state = ConnState.CLOSED
            else:
                connection.state = ConnState.FIN_WAIT
            return
        if tcp.flags & Tcp.SYN:
            if tcp.flags & Tcp.ACK:
                connection.state = ConnState.ESTABLISHED
            else:
                connection.state = ConnState.SYN_SENT
            return
        if (tcp.flags & Tcp.ACK
                and connection.state == ConnState.SYN_SENT):
            connection.state = ConnState.ESTABLISHED

    def expire(self, now: float) -> int:
        """Evict idle and closed connections; returns count removed."""
        removed = 0
        for tup, connection in list(self.connections.items()):
            idle = now - connection.last_seen
            if (connection.state == ConnState.CLOSED
                    or idle >= self.idle_timeout):
                del self.connections[tup]
                removed += 1
        self.evicted_idle += removed
        return removed

    def __len__(self) -> int:
        return len(self.connections)


def reference_verdict(tracker: ConnectionTracker, key: FlowKey, mbuf: Mbuf,
                      now: float, from_inside: bool) -> bool:
    """The guest firewall's perimeter decision over the tracker, as it
    stood: inside traffic is tracked and forwarded; outside traffic only
    joins a live, inside-originated, not-CLOSED connection; anything
    that is not TCP or UDP passes untracked."""
    if key.ip_proto not in (IP_PROTO_TCP, IP_PROTO_UDP):
        return True
    if from_inside:
        tracker.observe(key, mbuf, now, from_inside=True)
        return True
    connection = tracker.lookup(key, now)
    if connection is None or not connection.originated_inside \
            or connection.state == ConnState.CLOSED:
        return False
    tracker.observe(key, mbuf, now, from_inside=False)
    return True
