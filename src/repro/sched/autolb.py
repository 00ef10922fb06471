"""The PMD auto-load-balancer (OVS ``pmd-auto-lb``).

A housekeeping :class:`~repro.sim.pollloop.PollLoop` (like the bypass
watchdog) that every ``rebalance_interval``:

1. closes the load tracker's measurement interval;
2. checks whether any core is overloaded (busy fraction at or above
   ``load_threshold`` — from the PMD loops' own busy/idle accounting
   when the switch is running, from the tracker otherwise);
3. dry-runs a reassignment and applies it only if the estimated
   per-core load variance improves by at least
   ``improvement_threshold``.

Thresholds mirror real OVS's ``pmd-auto-lb-load-threshold`` /
``pmd-auto-lb-improvement-threshold`` semantics, scaled to simulated
time.  Every skip is counted, so ``sched/show`` can answer "why did it
not rebalance?".
"""

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.sched.scheduler import PmdScheduler, RebalancePlan
from repro.sim.pollloop import PollLoop


@dataclass(frozen=True)
class AutoLbPolicy:
    """Auto-LB knobs (``pmd-auto-lb-*`` analog)."""

    # Simulated seconds between checks; also the tracker interval.
    rebalance_interval: float = 0.002
    # A core at/above this busy fraction counts as overloaded.
    load_threshold: float = 0.85
    # Required fractional variance improvement before applying.
    improvement_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.rebalance_interval <= 0:
            raise ValueError("rebalance_interval must be positive")
        if not 0.0 <= self.load_threshold <= 1.0:
            raise ValueError("load_threshold must be in [0, 1]")
        if not 0.0 <= self.improvement_threshold <= 1.0:
            raise ValueError("improvement_threshold must be in [0, 1]")


DEFAULT_AUTO_LB_POLICY = AutoLbPolicy()

#: Skip the first N intervals so EWMAs see real traffic first.
WARMUP_INTERVALS = 1


class AutoLoadBalancer:
    """Periodic measured-load rebalancing for one vSwitchd."""

    def __init__(
        self,
        switch,
        policy: AutoLbPolicy = DEFAULT_AUTO_LB_POLICY,
    ) -> None:
        self.switch = switch
        self.scheduler: PmdScheduler = switch.scheduler
        self.policy = policy
        self.loop: Optional[PollLoop] = None
        self.checks_run = 0
        self.rebalances_applied = 0
        self.skipped_warmup = 0
        self.skipped_no_overload = 0
        self.skipped_no_moves = 0
        self.skipped_small_improvement = 0
        # Set by VSwitchd when an OverloadMonitor runs alongside: active
        # RX shedding masks the busy signal (dropped packets cost no
        # cycles), so the no-overload skip must not trust it.
        self.overload_monitor = None
        self.overload_overrides = 0
        self.last_busy_fractions: List[float] = []
        # Fired with the applied plan (after scheduler.on_apply hooks).
        self.on_rebalance: List[Callable[[RebalancePlan], None]] = []

    # -- the periodic check ---------------------------------------------------

    def _busy_fractions(self) -> List[float]:
        """Per-core busy fractions over the last interval.

        The running PMD loops are the authority (their busy/idle split
        includes flush and idle-poll time); without started loops —
        synchronous tests — fall back to the tracker's attributed
        seconds over the interval length.
        """
        sampled = self.switch.sample_core_busy()
        if sampled:
            return sampled
        interval = self.policy.rebalance_interval
        return [
            self.scheduler.tracker.last_core_seconds.get(core, 0.0)
            / interval
            for core in range(self.scheduler.n_cores)
        ]

    def iteration(self) -> float:
        """One check pass; the housekeeping loop's body."""
        tracker = self.scheduler.tracker
        tracker.roll()
        self.checks_run += 1
        if tracker.intervals <= WARMUP_INTERVALS:
            self.skipped_warmup += 1
            return 0.0
        busy = self._busy_fractions()
        self.last_busy_fractions = busy
        if not any(b >= self.policy.load_threshold for b in busy):
            if (self.overload_monitor is not None
                    and self.overload_monitor.shedding_active):
                self.overload_overrides += 1
            else:
                self.skipped_no_overload += 1
                return 0.0
        plan = self.scheduler.plan_rebalance()
        if not plan.moves:
            self.skipped_no_moves += 1
            return 0.0
        if plan.improvement < self.policy.improvement_threshold:
            self.skipped_small_improvement += 1
            return 0.0
        self.scheduler.apply_plan(plan)
        self.rebalances_applied += 1
        for hook in self.on_rebalance:
            hook(plan)
        return 0.0

    # -- lifecycle -----------------------------------------------------------------

    def start(self, env) -> PollLoop:
        if self.loop is not None:
            raise RuntimeError("auto-lb already running")
        self.loop = PollLoop(
            env, "%s.autolb" % self.switch.name, self.iteration,
            period=self.policy.rebalance_interval,
        ).start()
        return self.loop

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None

    def __repr__(self) -> str:
        return ("<AutoLoadBalancer checks=%d rebalances=%d interval=%g>"
                % (self.checks_run, self.rebalances_applied,
                   self.policy.rebalance_interval))
