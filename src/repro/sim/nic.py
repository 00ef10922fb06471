"""10 G NIC model: line-rate serialization, wire loopback and drop stats.

A :class:`Nic` owns an RX ring (frames arriving from the wire, to be
polled by the host PMD) and a TX ring (frames queued by the host, drained
onto the wire at line rate).  The *wire process* is the serialization
bottleneck: each frame occupies the wire for ``(frame + 20 B preamble/IFG)
× 8 / rate`` seconds, which caps 64-byte traffic at the classic
14.88 Mpps per direction of a 10 GbE port — the ceiling visible in the
paper's Figure 3(b).
"""

from typing import Callable, Optional

from repro.mem.ring import Ring, RingFullError, RingMode
from repro.sim.engine import Environment

NIC_10G_LINE_RATE_BPS = 10_000_000_000
WIRE_OVERHEAD_BYTES = 20  # preamble (8) + inter-frame gap (12)


def line_rate_pps(frame_size: int,
                  rate_bps: int = NIC_10G_LINE_RATE_BPS) -> float:
    """Maximum packets/second of a port at ``rate_bps`` for ``frame_size``.

    ``frame_size`` follows the RFC 2544 benchmarking convention: it
    includes the FCS (so the classic 64-byte figure on 10 GbE is
    14.88 Mpps); only preamble and inter-frame gap are added here.
    """
    wire_bits = (frame_size + WIRE_OVERHEAD_BYTES) * 8
    return rate_bps / wire_bits


class Nic:
    """One physical port: RX/TX rings plus a line-rate wire drain."""

    def __init__(
        self,
        env: Environment,
        name: str,
        ring_size: int = 4096,
        on_wire_tx: Optional[Callable] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.rate_bps = NIC_10G_LINE_RATE_BPS
        self.rx_ring = Ring("%s.rx" % name, ring_size, RingMode.SP_SC)
        self.tx_ring = Ring("%s.tx" % name, ring_size, RingMode.SP_SC)
        # Called for each frame leaving on the wire; a test harness uses it
        # to loop traffic back or count drained packets.
        self.on_wire_tx = on_wire_tx
        self.rx_packets = 0
        self.rx_bytes = 0
        self.rx_dropped = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self._wire = env.process(self._wire_drain(), name="%s.wire" % name)

    # -- wire side -------------------------------------------------------

    def wire_receive(self, mbuf) -> bool:
        """A frame arrives from the wire; False when the RX ring overflowed.

        Callers model line-rate pacing themselves (the traffic generator
        injects at most :func:`line_rate_pps` for its frame size); the NIC
        only accounts for RX-ring overflow, which is exactly where a real
        82599 drops when the host cannot keep up.
        """
        try:
            self.rx_ring.enqueue(mbuf)
        except RingFullError:
            self.rx_dropped += 1
            mbuf.free()
            return False
        self.rx_packets += 1
        self.rx_bytes += mbuf.wire_length
        return True

    def _serialization_delay(self, wire_length: int) -> float:
        return (wire_length + WIRE_OVERHEAD_BYTES) * 8 / self.rate_bps

    def _wire_drain(self):
        """Drain the TX ring at line rate, one frame at a time.

        An empty TX ring is polled with exponential backoff (capped at
        5 us) so an idle NIC does not flood the event queue; the backoff
        resets whenever a frame is transmitted.
        """
        env = self.env
        min_interval = self._serialization_delay(64)
        poll_interval = min_interval
        while True:
            if self.tx_ring.is_empty:
                yield env.timeout(poll_interval)
                poll_interval = min(poll_interval * 2, 5e-6)
                continue
            poll_interval = min_interval
            mbuf = self.tx_ring.dequeue()
            yield env.timeout(self._serialization_delay(mbuf.wire_length))
            self.tx_packets += 1
            self.tx_bytes += mbuf.wire_length
            if self.on_wire_tx is not None:
                self.on_wire_tx(mbuf)
            else:
                mbuf.free()

    # -- host side -----------------------------------------------------------

    def host_rx_burst(self, max_count: int):
        """Host PMD pulls received frames (functional part; cost is the
        caller's via the cost model)."""
        return self.rx_ring.dequeue_burst(max_count)

    def host_tx_burst(self, mbufs) -> int:
        """Host PMD queues frames for transmission; returns count accepted."""
        return self.tx_ring.enqueue_burst(mbufs)

    def __repr__(self) -> str:
        return "<Nic %s rx=%d tx=%d drop=%d>" % (
            self.name, self.rx_packets, self.tx_packets, self.rx_dropped
        )
