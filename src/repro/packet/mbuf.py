"""Mbuf: the DPDK-style packet buffer descriptor.

An :class:`Mbuf` wraps a :class:`~repro.packet.packet.Packet` (or raw
bytes) together with the receive metadata that the data-plane components
care about: wire length, sequence number, injection timestamp and a
reference count.
Mbufs are allocated from and recycled into a
:class:`~repro.mem.mempool.Mempool` exactly like ``rte_mbuf``.
"""

from typing import Any, Optional


class Mbuf:
    """A packet buffer descriptor.

    Attributes
    ----------
    packet:
        The payload object.  In functional paths this is a parsed
        :class:`Packet`; throughput benchmarks store a shared template to
        avoid per-packet allocation, mirroring how real mbufs all point at
        prototypical synthesized frames in pktgen-style tools.
    wire_length:
        Frame length in bytes as it would appear on the wire (used by the
        byte counters and the NIC serialization model).
    port:
        Receive port id, -1 after every allocation.  Nothing in the
        simulator stamps it: the datapath passes the input port beside
        the descriptor (``in_port``) instead.
    seq:
        Generator sequence number (latency probes match on it).
    ts_injected:
        Simulation timestamp (seconds) stamped by the traffic generator;
        latency = drain time - ``ts_injected``.
    """

    __slots__ = (
        "packet",
        "wire_length",
        "port",
        "seq",
        "ts_injected",
        "refcnt",
        "pool",
        "userdata",
        "trace",
        "in_pool",
        "holder",
    )

    def __init__(self, pool: Optional[Any] = None) -> None:
        self.pool = pool
        # Ownership-ledger state, managed by the Mempool (never by
        # reset(): the pool flips in_pool on get/put and moves holder
        # on assign, and a stale value here is exactly the double-free
        # evidence the pool wants to see).
        self.in_pool = False
        self.holder: Optional[str] = None
        self.packet: Any = None
        self.wire_length = 0
        self.port = -1
        self.seq = -1
        self.ts_injected = -1.0  # -1 = never stamped
        self.refcnt = 1
        self.userdata: Any = None
        # Sampled path-tracing span list (repro.obs.trace); None on the
        # untraced majority, so hot paths pay one attribute compare.
        self.trace: Any = None

    def reset(self) -> None:
        """Restore alloc-time state (called by the mempool on get;
        ``Mempool.get_bulk`` does the same stores inline, so a slot
        added here goes there too — a test compares the two)."""
        self.packet = None
        self.wire_length = 0
        self.port = -1
        self.seq = -1
        self.ts_injected = -1.0
        self.refcnt = 1
        self.userdata = None
        self.trace = None

    def retain(self) -> "Mbuf":
        """Increment the reference count (multicast/clone paths)."""
        self.refcnt += 1
        return self

    def free(self) -> None:
        """Drop one reference; return to the pool when it hits zero."""
        if self.refcnt <= 0:
            raise RuntimeError("double free of mbuf")
        self.refcnt -= 1
        if self.refcnt == 0 and self.pool is not None:
            self.pool.put(self)

    def __repr__(self) -> str:
        return "<Mbuf port=%d len=%d seq=%d refcnt=%d>" % (
            self.port, self.wire_length, self.seq, self.refcnt
        )
