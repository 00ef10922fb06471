"""Shared-memory statistics for bypassed traffic.

When a p-2-p bypass is active the vSwitch never touches the packets, so
it cannot count them.  The paper's fix: the sending PMD bumps, for every
packet it pushes into the bypass ring, the counters of the OpenFlow rule
and ports implementing that link, in a block of shared memory that OVS
reads lazily when a stats request arrives.

A :class:`BypassStatsBlock` lives inside the bypass channel's memzone
(so it is naturally visible to both the guest PMD that writes it and the
host that reads it) and survives the link's teardown — totals must stay
correct in flow-removed messages and later port-stats replies.

The block is also the channel's *liveness ledger*: the consuming PMD
publishes a heartbeat epoch and its cumulative dequeue cursor into the
same shared memory on every receive poll, which is what lets the
host-side watchdog distinguish "nothing to deliver" from "nobody is
draining" without any extra control-plane traffic.
:class:`~repro.dpdk.dpdkr.PortHeartbeat` is the per-port equivalent
living in the dpdkr zone, so guest liveness stays observable after a
bypass is torn down.
"""

from typing import Dict, Tuple


class BypassStatsBlock:
    """Counters for one directed bypass channel A -> B."""

    __slots__ = (
        "name",
        "src_ofport",
        "dst_ofport",
        "tx_packets",
        "tx_bytes",
        "flow_packets",
        "flow_bytes",
        "rx_epoch",
        "rx_dequeued",
        "rx_integrity_errors",
    )

    def __init__(self, name: str, src_ofport: int, dst_ofport: int) -> None:
        self.name = name
        self.src_ofport = src_ofport
        self.dst_ofport = dst_ofport
        self.tx_packets = 0
        self.tx_bytes = 0
        # Per-OpenFlow-rule attribution, keyed by FlowEntry.flow_id.
        self.flow_packets: Dict[int, int] = {}
        self.flow_bytes: Dict[int, int] = {}
        # Consumer-side liveness: bumped by the receiving PMD on every
        # poll of the bypass ring (epoch) and every dequeue (cursor).
        # rx_epoch > 0 is the consumer's "sign-on" — before that the
        # watchdog has no baseline and stays quiet.
        self.rx_epoch = 0
        self.rx_dequeued = 0
        # Corrupted (None) slots the consumer pulled off the ring and
        # dropped.  Once a smashed slot is dequeued the ring looks
        # structurally clean again, so this flag is the only way the
        # host-side validator ever learns about it.
        self.rx_integrity_errors = 0

    def account(self, flow_id: int, packets: int, byte_count: int) -> None:
        """Called by the sending PMD after each bypass TX burst."""
        self.tx_packets += packets
        self.tx_bytes += byte_count
        self.flow_packets[flow_id] = (
            self.flow_packets.get(flow_id, 0) + packets
        )
        self.flow_bytes[flow_id] = (
            self.flow_bytes.get(flow_id, 0) + byte_count
        )

    def heartbeat(self, dequeued: int) -> None:
        """Called by the receiving PMD after each poll of the ring."""
        self.rx_epoch += 1
        self.rx_dequeued += dequeued

    def flow_counters(self, flow_id: int) -> Tuple[int, int]:
        return (self.flow_packets.get(flow_id, 0),
                self.flow_bytes.get(flow_id, 0))

    def __repr__(self) -> str:
        return "<BypassStatsBlock %s %d->%d pkts=%d>" % (
            self.name, self.src_ofport, self.dst_ofport, self.tx_packets
        )
