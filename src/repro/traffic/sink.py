"""Traffic sinks: drain, count, measure latency, recycle mbufs."""

import math
from typing import Callable, Optional

from repro.dpdk.ethdev import EthDev
from repro.metrics.latency import LatencyRecorder
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.nic import Nic
from repro.sim.pollloop import PollLoop


class SinkApp:
    """In-VM traffic drain on one ethdev port."""

    def __init__(
        self,
        name: str,
        port: EthDev,
        costs: CostModel = DEFAULT_COST_MODEL,
        burst_size: int = 32,
        record_latency: bool = True,
    ) -> None:
        self.name = name
        self.port = port
        self.costs = costs
        self.burst_size = burst_size
        self.received = 0
        self.received_bytes = 0
        self.latency = LatencyRecorder() if record_latency else None
        self.loop: Optional[PollLoop] = None
        self._env: Optional[Environment] = None
        # The port's half of the idle contract, looked up once by
        # start(): a port without one (or a sink not started) is polled
        # for real.
        self._rx_park: Optional[Callable] = None

    def iteration(self) -> float:
        mbufs = self.port.rx_burst(self.burst_size)
        if not mbufs:
            return 0.0
        env = self._env
        now = env.now if env is not None else 0.0
        latency = self.latency
        name = self.name
        byte_count = 0
        for mbuf in mbufs:
            byte_count += mbuf.wire_length
            if latency is not None and mbuf.ts_injected >= 0:
                latency.record(now - mbuf.ts_injected)
            if mbuf.trace is not None:
                mbuf.trace.finish(now, sink=name)
        pool = mbufs[0].pool
        if pool is not None:
            pool.free_burst(mbufs)   # rte_pktmbuf_free_bulk
        else:
            for mbuf in mbufs:
                mbuf.free()
        count = len(mbufs)
        self.received += count
        self.received_bytes += byte_count
        costs = self.costs
        return costs.burst_overhead + count * costs.ring_op

    # The idle contract (PollLoop.IdleContract): an idle iteration is
    # one empty ``port.rx_burst`` — a subclass's must be no more.

    def idle_until(self, loop: PollLoop) -> Optional[float]:
        rx_park = self._rx_park
        if rx_park is None or not rx_park(loop):
            return None
        return math.inf

    @property
    def replay(self) -> Optional[Callable[[int], None]]:
        """The port's own ``rx_replay``: the loop binds it as it starts."""
        return getattr(self.port, "rx_replay", None)

    def start(self, env: Environment) -> PollLoop:
        self._env = env
        self._rx_park = getattr(self.port, "rx_park", None)
        self.loop = PollLoop(env, self.name, self.iteration,
                             costs=self.costs, idle=self).start()
        return self.loop

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None


class WireSink:
    """Counts frames leaving a NIC on the wire side."""

    def __init__(self, env: Environment, nic: Nic) -> None:
        self.env = env
        self.nic = nic
        self.received = 0
        self.received_bytes = 0
        self.latency = LatencyRecorder()
        nic.on_wire_tx = self._handle

    def _handle(self, mbuf) -> None:
        self.received += 1
        self.received_bytes += mbuf.wire_length
        if mbuf.ts_injected >= 0:
            self.latency.record(self.env.now - mbuf.ts_injected)
        if mbuf.trace is not None:
            mbuf.trace.finish(self.env.now, sink=self.nic.name)
        mbuf.free()
