"""Switch-side port abstraction.

An :class:`OvsPort` is what the datapath polls and outputs to; the two
concrete kinds the paper uses are ``dpdkr`` (shared rings to a VM) and
``phy`` (a DPDK-driven NIC).  Ports also carry the OVS-side counters the
controller sees in port-stats replies — for a bypassed port those numbers
are deliberately *incomplete* until the transparency layer merges the
PMD's shared-memory counters (the paper's §2 last paragraph).
"""

import enum
from typing import List

from repro.dpdk.dpdkr import DpdkrSharedRings
from repro.mem.ring import Ring
from repro.packet.mbuf import Mbuf
from repro.sim.nic import Nic


class PortKind(enum.Enum):
    DPDKR = "dpdkr"
    PHY = "phy"


class OvsPort:
    """Base port: counters + the receive/send contract."""

    kind: PortKind
    # What ``receive_burst`` dequeues from: a parked core tests it for
    # emptiness and waits on it.
    rx_ring: Ring

    def __init__(self, ofport: int, name: str) -> None:
        self.ofport = ofport
        self.name = name
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_dropped = 0
        self.up = True

    # -- datapath contract ---------------------------------------------------

    def receive_burst(self, max_count: int) -> List[Mbuf]:
        """Packets entering the switch from this port."""
        raise NotImplementedError

    def send_burst(self, mbufs: List[Mbuf]) -> int:
        """Push packets out this port; frees and counts what didn't fit."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------------

    def _account_rx(self, mbufs: List[Mbuf]) -> None:
        """Count a received burst (callers skip the empty one)."""
        byte_count = 0
        for mbuf in mbufs:
            byte_count += mbuf.wire_length
        self.rx_packets += len(mbufs)
        self.rx_bytes += byte_count

    def _account_tx(self, mbufs: List[Mbuf], accepted: int) -> int:
        if accepted < len(mbufs):
            for rejected in mbufs[accepted:]:
                self.tx_dropped += 1
                rejected.free()
            mbufs = mbufs[:accepted]
        byte_count = 0
        for mbuf in mbufs:
            byte_count += mbuf.wire_length
        self.tx_packets += accepted
        self.tx_bytes += byte_count
        return accepted

    def __repr__(self) -> str:
        return "<%s ofport=%d %r rx=%d tx=%d>" % (
            type(self).__name__, self.ofport, self.name,
            self.rx_packets, self.tx_packets,
        )


class DpdkrOvsPort(OvsPort):
    """A dpdkr port as seen by the switch.

    The switch reads the guest's TX ring (``to_switch``) and writes the
    guest's RX ring (``to_guest``).  ``bypass_active`` is flipped by the
    bypass manager purely for observability — the datapath keeps polling
    the normal channel regardless, which is what lets controller
    packet-outs keep working during a bypass.
    """

    kind = PortKind.DPDKR

    def __init__(self, ofport: int, rings: DpdkrSharedRings) -> None:
        super().__init__(ofport, rings.port_name)
        self.rings = rings
        self.rx_ring = rings.to_switch
        self.bypass_active = False

    # The counters are kept inline, a hop being one call: only a burst
    # the guest's ring refused in part goes through _account_tx.

    def receive_burst(self, max_count: int) -> List[Mbuf]:
        mbufs = self.rx_ring.dequeue_burst(max_count)
        if mbufs:
            byte_count = 0
            for mbuf in mbufs:
                byte_count += mbuf.wire_length
            self.rx_packets += len(mbufs)
            self.rx_bytes += byte_count
        return mbufs

    def send_burst(self, mbufs: List[Mbuf]) -> int:
        accepted = self.rings.to_guest.enqueue_burst(mbufs)
        if accepted < len(mbufs):
            return self._account_tx(mbufs, accepted)
        byte_count = 0
        for mbuf in mbufs:
            byte_count += mbuf.wire_length
        self.tx_packets += accepted
        self.tx_bytes += byte_count
        return accepted


class PhyOvsPort(OvsPort):
    """A physical (NIC) port driven by the host PMD."""

    kind = PortKind.PHY

    def __init__(self, ofport: int, name: str, nic: Nic) -> None:
        super().__init__(ofport, name)
        self.nic = nic
        self.rx_ring = nic.rx_ring

    def receive_burst(self, max_count: int) -> List[Mbuf]:
        mbufs = self.nic.host_rx_burst(max_count)
        if mbufs:
            self._account_rx(mbufs)
        return mbufs

    def send_burst(self, mbufs: List[Mbuf]) -> int:
        accepted = self.nic.host_tx_burst(mbufs)
        return self._account_tx(mbufs, accepted)
