"""dpdkr ports: shared-ring devices between a VM and the vSwitch.

A ``dpdkr`` port is a pair of rings in a dedicated memzone:

* ``to_switch`` — guest TX, polled by the OVS forwarding engine;
* ``to_guest`` — OVS output, polled by the guest PMD.

The memzone is exposed to the VM as an ivshmem device at VM creation
time (the *normal channel*).  :class:`DpdkrPmd` is the vanilla
single-channel guest PMD; the paper's dual-channel PMD in
:mod:`repro.core.pmd` wraps the same rings plus an optional bypass.
"""

from typing import List

from repro.dpdk.ethdev import EthDev
from repro.mem.memzone import Memzone, MemzoneRegistry
from repro.mem.ring import Ring, RingMode
from repro.packet.mbuf import Mbuf


def dpdkr_zone_name(port_name: str) -> str:
    """Memzone name for a dpdkr port (matches DPDK's rte_eth_ring names)."""
    return "rte_eth_ring.%s" % port_name


class PortHeartbeat:
    """A guest-published liveness epoch for one dpdkr port.

    Lives in the port's shared dpdkr memzone; the guest PMD bumps
    ``epoch`` on every receive poll (by one, or by the number of idle
    polls it replays at once) and the host only ever reads it.  Because the
    normal channel outlives any bypass, this is the signal the
    quarantine ladder uses to decide a degraded peer is polling again.
    """

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        self.epoch = 0

    def __repr__(self) -> str:
        return "<PortHeartbeat epoch=%d>" % self.epoch


class DpdkrSharedRings:
    """The shared-memory structure of one dpdkr port."""

    def __init__(
        self,
        registry: MemzoneRegistry,
        port_name: str,
        ring_size: int = 1024,
    ) -> None:
        self.port_name = port_name
        self.zone: Memzone = registry.reserve(
            dpdkr_zone_name(port_name), size=ring_size * 2 * 8, owner="ovs"
        )
        # dpdkr rings are single-producer single-consumer: one side is the
        # guest PMD thread, the other a specific OVS PMD thread.
        self.to_switch: Ring = self.zone.put(
            "tx", Ring("%s.to_switch" % port_name, ring_size, RingMode.SP_SC)
        )
        self.to_guest: Ring = self.zone.put(
            "rx", Ring("%s.to_guest" % port_name, ring_size, RingMode.SP_SC)
        )
        # Ownership-ledger tokens: buffers parked in a dpdkr ring are
        # charged to the ring, so a crashed endpoint's backlog can be
        # swept back to its pool.
        self.to_switch.holder_token = "ring:%s.to_switch" % port_name
        self.to_guest.holder_token = "ring:%s.to_guest" % port_name
        # Guest-written, host-read liveness epoch.
        self.heartbeat = self.zone.put("heartbeat", PortHeartbeat())

    @classmethod
    def attach(cls, zone: Memzone) -> "DpdkrSharedRings":
        """Attach to an existing zone (guest side, post ivshmem map)."""
        rings = cls.__new__(cls)
        rings.port_name = zone.name.split(".", 1)[1]
        rings.zone = zone
        rings.to_switch = zone.get("tx")
        rings.to_guest = zone.get("rx")
        # Tolerate zones built before heartbeats existed (hand-rolled
        # test fixtures): publish into a private block nobody reads.
        rings.heartbeat = (
            zone.get("heartbeat") if "heartbeat" in zone else PortHeartbeat()
        )
        return rings

    def __repr__(self) -> str:
        return "<DpdkrSharedRings %s tx=%d rx=%d>" % (
            self.port_name, len(self.to_switch), len(self.to_guest)
        )


class DpdkrPmd(EthDev):
    """Vanilla guest-side dpdkr PMD: one (normal) channel.

    All traffic goes through the vSwitch.  Chains built with this PMD are
    the paper's "traditional approach" baseline.
    """

    def __init__(self, port_id: int, rings: DpdkrSharedRings) -> None:
        super().__init__(port_id, rings.port_name)
        self.rings = rings

    def rx_burst(self, max_count: int) -> List[Mbuf]:
        mbufs = self.rings.to_guest.dequeue_burst(max_count)
        if mbufs:
            byte_count = 0
            for mbuf in mbufs:
                byte_count += mbuf.wire_length
                if mbuf.trace is not None:
                    mbuf.trace.add(self._trace_now(), "guest-rx",
                                   channel="normal", port=self.name)
            self.stats.ipackets += len(mbufs)
            self.stats.ibytes += byte_count
        return mbufs

    # -- the RX park contract: what lets a polling consumer leave the
    # event queue (PollLoop's IdleContract).  Owners look these two up
    # by attribute; a device without them is polled for real.

    def rx_park(self, waiter) -> bool:
        """Arm ``waiter.wake()`` on everything that could change what an
        idle ``rx_burst`` reads or publishes; False when the next poll
        may not be idle."""
        ring = self.rings.to_guest
        if not ring.is_empty:
            return False
        ring.watch(waiter)
        return True

    def rx_replay(self, polls: int) -> None:
        """Publish what ``polls`` idle ``rx_burst`` calls would have:
        nothing, on the vanilla PMD."""

    def tx_room(self, count: int) -> int:
        room = self.rings.to_switch.enqueue_room(count)
        if room < count:
            self.stats.oerrors += count - room
        return room

    def tx_burst(self, mbufs: List[Mbuf]) -> int:
        sent = self.rings.to_switch.enqueue_burst(mbufs)
        offered = len(mbufs)
        stats = self.stats
        if sent < offered:
            stats.oerrors += offered - sent
            mbufs = mbufs[:sent]
        if sent:
            byte_count = 0
            for mbuf in mbufs:
                byte_count += mbuf.wire_length
                if mbuf.trace is not None:
                    mbuf.trace.add(self._trace_now(), "guest-tx",
                                   channel="normal", port=self.name)
            stats.opackets += sent
            stats.obytes += byte_count
        return sent
