"""PollLoop: the shape of every busy-polling core in the system.

OVS PMD threads and in-guest DPDK application loops are all instances of
the same pattern: run one *iteration* of functional work, learn how much
simulated time that work cost, sleep for that cost, repeat.  An iteration
that did nothing sleeps for the idle-poll cost instead, so an idle core
consumes time without consuming packets — which is also what keeps the
event queue finite.
"""

from typing import Callable, Optional

from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment, Timer


class PollLoop:
    """Drives ``iteration()`` forever on its own simulated core.

    ``iteration`` returns the simulated cost (seconds) of the work it just
    performed, or 0.0 when there was nothing to do.  The loop accounts
    busy/idle time so experiments can report core utilization.

    With ``period`` set the loop is a fixed-interval housekeeping timer
    instead of a busy-poller: iterations fire every ``period`` seconds
    (stretched, never compressed, by a busy iteration's cost) and idle
    iterations neither back off nor spin faster.  The bypass watchdog is
    the canonical user — a real deployment would run it off the manager
    thread's timerfd, not a polling core.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        iteration: Callable[[], float],
        costs: CostModel = DEFAULT_COST_MODEL,
        idle_backoff_max: float = 5e-6,
        period: Optional[float] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.iteration = iteration
        self.costs = costs
        # Simulation shortcut: a real PMD spins at ~idle_poll cost per
        # empty iteration, but simulating every empty spin as an event
        # would dominate the run.  Consecutive empty iterations double
        # the sleep up to idle_backoff_max (still charged as idle time);
        # the first busy iteration resets it.  The only observable effect
        # is a bounded extra wakeup delay (< idle_backoff_max) after an
        # idle period.
        self.idle_backoff_max = idle_backoff_max
        if period is not None and period <= 0:
            raise ValueError("period must be positive, got %r" % period)
        self.period = period
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.iterations = 0
        self.idle_iterations = 0   # those that found nothing to do
        # Window marks for sample_activity() (load-balancer sampling).
        self._busy_mark = 0.0
        self._idle_mark = 0.0
        self._idle_delay = costs.idle_poll
        self._stopped = False
        # The loop's one engine event; callers check its ``is_alive``.
        self.process: Optional[Timer] = None

    def start(self) -> "PollLoop":
        if self.process is not None:
            raise RuntimeError("poll loop %r already started" % self.name)
        if self._stopped:
            raise RuntimeError(
                "poll loop %r was stopped and cannot be restarted"
                % self.name)
        self.process = Timer(self.env, self._poll, self.name)
        self.process.arm()
        return self

    def stop(self) -> None:
        """Stop the loop: no iteration runs after this call.

        The event already armed stays queued and fires as a no-op, so
        stopping moves no other event's place in the queue.
        """
        self._stopped = True
        if self.process is not None:
            self.process.is_alive = False

    def reset_accounting(self) -> None:
        """Zero busy/idle counters (e.g. at a measurement window start)."""
        self.busy_time = 0.0
        self.idle_time = 0.0
        self._busy_mark = 0.0
        self._idle_mark = 0.0

    def sample_activity(self) -> "tuple[float, float]":
        """``(busy, idle)`` deltas since the previous sample.

        A cheap windowed view for periodic consumers (the PMD auto-load
        balancer checks per-core busy fractions each interval) that
        leaves the cumulative counters untouched.
        """
        busy = self.busy_time - self._busy_mark
        idle = self.idle_time - self._idle_mark
        self._busy_mark = self.busy_time
        self._idle_mark = self.idle_time
        return busy, idle

    @property
    def utilization(self) -> float:
        """Fraction of elapsed loop time spent doing useful work."""
        total = self.busy_time + self.idle_time
        if total == 0:
            return 0.0
        return self.busy_time / total

    def _poll(self, timer: Timer) -> None:
        """One firing: run an iteration, account its cost, re-arm.
        Exactly one event is scheduled per iteration, after it ran:
        every event's place in the queue depends on that."""
        if self._stopped:
            return
        try:
            cost = self.iteration()
        except Exception as exc:  # noqa: BLE001 - step() raises it
            timer.crash(exc)
            return
        self.iterations += 1
        period = self.period
        if period is not None:
            if cost > 0.0:
                self.busy_time += cost
            else:
                self.idle_iterations += 1
            self.idle_time += max(period - cost, 0.0)
            timer.arm(max(cost, period))
        elif cost > 0.0:
            self.busy_time += cost
            self._idle_delay = self.costs.idle_poll
            timer.arm(cost)
        else:
            self.idle_iterations += 1
            delay = self._idle_delay
            self.idle_time += delay
            timer.arm(delay)
            self._idle_delay = min(delay * 2, self.idle_backoff_max)

    def __repr__(self) -> str:
        return "<PollLoop %s iters=%d util=%.2f>" % (
            self.name, self.iterations, self.utilization
        )
