"""Traffic sources.

:class:`SourceApp` runs inside a VM on its own core and transmits
through an ethdev port (possibly a bypassed one — the source neither
knows nor cares).  :class:`WireSource` paces frames onto a NIC's receive
side at a configurable fraction of line rate.

Both draw mbufs from a dedicated mempool: when the downstream path is
congested, allocation pressure and ring-full TX failures provide the
same backpressure a hardware generator sees, and leaked packets are
detectable as pool exhaustion at the end of a run.
"""

import itertools
from typing import Optional

from repro.dpdk.ethdev import EthDev
from repro.mem.mempool import Mempool
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment, Interrupt, Process
from repro.sim.nic import Nic
from repro.sim.pollloop import PollLoop
from repro.traffic.profiles import TrafficProfile, uniform_profile


class SourceApp:
    """In-VM traffic generator (a DPDK app with no RX side).

    Generates as fast as its single core allows unless ``rate_pps`` caps
    it; each packet is stamped with the injection timestamp for latency
    probes downstream.
    """

    def __init__(
        self,
        name: str,
        port: EthDev,
        profile: Optional[TrafficProfile] = None,
        pool_size: int = 8192,
        rate_pps: Optional[float] = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        burst_size: int = 32,
        tracer=None,
        on_time: Optional[float] = None,
        off_time: Optional[float] = None,
    ) -> None:
        self.name = name
        self.port = port
        self.profile = profile or uniform_profile()
        self.pool = Mempool("%s.pool" % name, size=pool_size)
        self.rate_pps = rate_pps
        # Optional on/off duty cycle (bursty traffic): transmit for
        # ``on_time`` simulated seconds, go silent for ``off_time``,
        # repeat.  Defaults to always-on.
        if (on_time is None) != (off_time is None):
            raise ValueError("on_time and off_time go together")
        if on_time is not None and (on_time <= 0 or off_time <= 0):
            raise ValueError("on_time/off_time must be positive")
        self.on_time = on_time
        self.off_time = off_time
        self.costs = costs
        self.burst_size = burst_size
        # Optional repro.obs.trace.PathTracer: stamps 1-in-N mbufs at
        # this ingress point.
        self.tracer = tracer
        self.generated = 0
        self.tx_failures = 0
        self.loop: Optional[PollLoop] = None
        self._env: Optional[Environment] = None
        self._next_template = 0   # index into profile.templates
        self._seq = 0
        self._credit = 0.0
        self._last_credit_time = 0.0

    def _allowance(self, now: float) -> int:
        """Packets the rate limiter permits at ``now``."""
        on_time = self.on_time
        if on_time is not None and now % (on_time + self.off_time) >= on_time:
            # Off phase: no transmission, and no credit accrues — the
            # burst after an off phase is shaped by rate_pps, not by a
            # backlog of saved-up credit.
            self._last_credit_time = now
            return 0
        if self.rate_pps is None:
            return self.burst_size
        credit = self._credit + (now - self._last_credit_time) * self.rate_pps
        self._last_credit_time = now
        # Never accumulate more than a couple of bursts of credit.
        cap = 4.0 * self.burst_size
        if credit > cap:
            credit = cap
        self._credit = credit
        return int(credit)

    def iteration(self) -> float:
        env = self._env
        now = env.now if env is not None else 0.0
        count = self._allowance(now)
        if count <= 0:
            return 0.0   # between two packets of a paced stream: most polls
        if count > self.burst_size:
            count = self.burst_size
        pool = self.pool
        available = pool.available
        if count > available:
            count = available
        if count <= 0:
            return 0.0
        # Ask first (rte_ring_free_count before building a burst): the
        # port has already counted what it will not take, so only the
        # packets it will are built.  The sequence numbers and templates
        # of the others are spent all the same — a packet that is sent
        # is the one that would have been sent had all been built.
        port = self.port
        room = port.tx_room(count)
        templates = self.profile.templates
        cycle = len(templates)
        index = self._next_template
        seq = self._seq
        sent = 0
        if room > 0:
            mbufs = pool.get_bulk(room)
            tracer = self.tracer
            for mbuf in mbufs:
                if index >= cycle:
                    index = 0
                template = templates[index]
                index += 1
                mbuf.packet = template.packet
                mbuf.wire_length = template.wire_length
                mbuf.userdata = template.flow_key  # pre-extracted
                mbuf.seq = seq
                seq += 1
                mbuf.ts_created = now
                mbuf.ts_injected = now
                if tracer is not None:
                    tracer.ingress(mbuf, source=self.name)
            sent = port.tx_burst(mbufs)
            if sent < room:
                # Only a port that could not tell without the packets
                # (EthDev.tx_room's default) refuses what it asked for.
                pool.free_burst(mbufs[sent:])
        skipped = count - room
        if skipped:
            if index >= cycle:
                index = 0
            index = (index + skipped - 1) % cycle + 1
            seq += skipped
        self._next_template = index
        self._seq = seq
        self.tx_failures += count - sent
        self.generated += sent
        if self.rate_pps is not None:
            self._credit -= count
        costs = self.costs
        return costs.burst_overhead + count * (
            costs.vm_forward + port.tx_extra_cost
        )

    # -- the idle contract (PollLoop.IdleContract) ---------------------------
    # Between two packets of a paced stream nothing wakes the source:
    # its idleness is a matter of time alone, so it looks ahead over its
    # own poll grid with the pacer's arithmetic.

    # Grid points one look-ahead may cover: a slower source polls for
    # real (and looks ahead again) this often, which is always exact.
    LOOKAHEAD_POLLS = 64

    def idle_until(self, loop: PollLoop) -> Optional[float]:
        rate = self.rate_pps
        if (rate is None or self.on_time is not None
                or self.pool.available <= 0):
            return None   # saturating, duty-cycled or out of mbufs
        credit = self._credit
        last = self._last_credit_time
        cap = 4.0 * self.burst_size
        horizon = self.LOOKAHEAD_POLLS
        # loop.idle_grid(), walked in place: the ladder's and
        # _allowance's float operations on copies, in their order.
        when = loop.next_poll
        delay = loop.idle_delay
        backoff_max = loop.idle_backoff_max
        polls = 0
        while True:
            ahead = credit + (when - last) * rate
            if ahead > cap:
                ahead = cap
            if ahead >= 1.0 or polls == horizon:
                if not polls:
                    return None   # the very next poll: just arm it
                # The pacer's state is read by nothing but the next real
                # poll, so it takes the values the skipped polls leave
                # behind right away instead of poll by poll.
                self._credit = credit
                self._last_credit_time = last
                return when
            credit = ahead
            last = when
            polls += 1
            when = when + delay
            delay = delay * 2
            if delay > backoff_max:
                delay = backoff_max

    replay = None   # an idle iteration publishes nothing

    def start(self, env: Environment) -> PollLoop:
        self._env = env
        self._last_credit_time = env.now
        self.loop = PollLoop(env, self.name, self.iteration,
                             costs=self.costs, idle=self).start()
        return self.loop

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None


class WireSource:
    """External generator feeding a NIC at a fraction of line rate."""

    def __init__(
        self,
        env: Environment,
        nic: Nic,
        profile: Optional[TrafficProfile] = None,
        load: float = 1.0,
        pool_size: int = 16384,
        burst_size: int = 32,
        tracer=None,
    ) -> None:
        if not 0.0 < load <= 1.0:
            raise ValueError("load must be in (0, 1]")
        self.env = env
        self.nic = nic
        self.profile = profile or uniform_profile()
        self.load = load
        self.burst_size = burst_size
        self.name = "%s.src" % nic.name
        self.tracer = tracer
        self.pool = Mempool("%s.pool" % self.name, size=pool_size)
        self.generated = 0
        self.nic_drops_seen = 0
        self._template_cycle = itertools.cycle(self.profile.templates)
        self._seq = itertools.count()
        self._stopped = False
        self.process: Process = env.process(self._run(), name=self.name)

    def _burst_interval(self, wire_length: int) -> float:
        serialization = (wire_length + 20) * 8 / self.nic.rate_bps
        return self.burst_size * serialization / self.load

    def _run(self):
        env = self.env
        try:
            while not self._stopped:
                count = min(self.burst_size, self.pool.available)
                if count:
                    now = env.now
                    mbufs = self.pool.get_bulk(count)
                    for mbuf in mbufs:
                        template = next(self._template_cycle)
                        mbuf.packet = template.packet
                        mbuf.wire_length = template.wire_length
                        mbuf.userdata = template.flow_key
                        mbuf.seq = next(self._seq)
                        mbuf.ts_created = now
                        mbuf.ts_injected = now
                        if self.tracer is not None:
                            self.tracer.ingress(mbuf, source=self.name)
                        if self.nic.wire_receive(mbuf):
                            self.generated += 1
                        else:
                            self.nic_drops_seen += 1
                interval = self._burst_interval(
                    int(self.profile.mean_frame_size)
                )
                yield env.timeout(interval)
        except Interrupt:
            return

    def stop(self) -> None:
        self._stopped = True
        if self.process.is_alive:
            self.process.interrupt("stop")
