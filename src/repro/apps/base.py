"""The DPDK application skeleton: a single-core burst-processing loop.

An app owns one or more :class:`PortPair` pipelines (rx port -> process
-> tx port) and exposes ``iteration()`` with the poll-loop contract:
do one burst of work, return its simulated CPU cost.  The per-packet
cost defaults to the cost model's ``vm_forward``; heavier VNFs pass a
multiplier.
"""

import math
from typing import List, Optional

from repro.dpdk.ethdev import EthDev
from repro.packet.mbuf import Mbuf
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.pollloop import PollLoop


class PortPair:
    """One direction of packet movement inside an app."""

    __slots__ = ("rx", "tx", "rx_count", "tx_count", "drop_count")

    def __init__(self, rx: EthDev, tx: EthDev) -> None:
        self.rx = rx
        self.tx = tx
        self.rx_count = 0
        self.tx_count = 0
        self.drop_count = 0

    def __repr__(self) -> str:
        return "<PortPair %s->%s rx=%d>" % (
            self.rx.name, self.tx.name, self.rx_count
        )


class DpdkApp:
    """Base class for single-core guest applications."""

    def __init__(
        self,
        name: str,
        pairs: List[PortPair],
        costs: CostModel = DEFAULT_COST_MODEL,
        burst_size: int = 32,
        cost_multiplier: float = 1.0,
    ) -> None:
        self.name = name
        self.pairs = pairs
        self.costs = costs
        self.burst_size = burst_size
        self.cost_multiplier = cost_multiplier
        self.loop: Optional[PollLoop] = None
        # Optional repro.obs.cycles.StageAccounting: when set, each
        # iteration attributes its cost to rx_normal / rx_bypass /
        # housekeeping by asking the dual-channel PMD which channel the
        # burst actually arrived on (pmd/stats-show for guest cores).
        self.stages = None

    # -- processing hook ------------------------------------------------------

    def process(self, mbufs: List[Mbuf], pair: PortPair) -> List[Mbuf]:
        """Transform a received burst into the burst to transmit.

        Packets not returned must be freed by the implementation.
        Default: forward everything untouched.
        """
        return mbufs

    # -- the poll-loop body -------------------------------------------------------

    def iteration(self) -> float:
        total_cost = 0.0
        stages = self.stages
        for pair in self.pairs:
            rx = pair.rx
            if stages is not None:
                bypass_before = getattr(rx, "rx_via_bypass", 0)
                normal_before = getattr(rx, "rx_via_normal", 0)
            mbufs = rx.rx_burst(self.burst_size)
            if not mbufs:
                continue
            pair.rx_count += len(mbufs)
            out = self.process(mbufs, pair)
            per_packet = (self.costs.vm_forward * self.cost_multiplier
                          + pair.tx.tx_extra_cost)
            total_cost += (
                self.costs.burst_overhead + len(mbufs) * per_packet
            )
            if stages is not None:
                bypass = getattr(rx, "rx_via_bypass", 0) - bypass_before
                normal = getattr(rx, "rx_via_normal", 0) - normal_before
                if not (bypass or normal):
                    normal = len(mbufs)  # plain single-channel port
                stages.add("housekeeping", self.costs.burst_overhead)
                if normal:
                    stages.add("rx_normal", normal * per_packet,
                               packets=normal)
                if bypass:
                    stages.add("rx_bypass", bypass * per_packet,
                               packets=bypass)
            if out:
                sent = pair.tx.tx_burst(out)
                pair.tx_count += sent
                for rejected in out[sent:]:
                    pair.drop_count += 1
                    rejected.free()
        return total_cost

    # -- the idle contract (PollLoop.IdleContract) -----------------------------------
    # An idle iteration is one empty rx_burst per pair and nothing else,
    # so the app may stop polling while every RX port vouches for it.

    def idle_until(self, loop: PollLoop) -> Optional[float]:
        for pair in self.pairs:
            rx_park = getattr(pair.rx, "rx_park", None)
            if rx_park is None or not rx_park(loop):
                return None
        return math.inf

    def replay(self, polls: int) -> None:
        for pair in self.pairs:
            pair.rx.rx_replay(polls)

    # -- lifecycle -------------------------------------------------------------------

    def start(self, env: Environment) -> PollLoop:
        """Run the app on its own simulated core."""
        if self.loop is not None:
            raise RuntimeError("app %r already started" % self.name)
        self.loop = PollLoop(env, self.name, self.iteration,
                             costs=self.costs, idle=self).start()
        return self.loop

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None

    # -- introspection -----------------------------------------------------------------

    @property
    def rx_total(self) -> int:
        return sum(pair.rx_count for pair in self.pairs)

    @property
    def tx_total(self) -> int:
        return sum(pair.tx_count for pair in self.pairs)

    def __repr__(self) -> str:
        return "<%s %r rx=%d tx=%d>" % (
            type(self).__name__, self.name, self.rx_total, self.tx_total
        )
