"""PollLoop: the shape of every busy-polling core in the system.

OVS PMD threads and in-guest DPDK application loops are all instances of
the same pattern: run one *iteration* of functional work, learn how much
simulated time that work cost, sleep for that cost, repeat.  An iteration
that did nothing sleeps for the idle-poll cost instead, so an idle core
consumes time without consuming packets — which is also what keeps the
event queue finite.

A busy-poll loop is *tickless*: when its owner can say what would end
its idleness (the ``idle`` contract), the loop stops scheduling idle
polls and leaves the event queue — it *parks*.  It is re-armed at the
exact point of its own poll grid at which the every-poll-is-an-event
loop would first have seen the change, and the polls it skipped are
replayed — same float operations, same order — so every observable is
what polling through would have produced.  Only
``Environment.events_processed`` can tell the difference.

What ends a park is a :class:`repro.waiters.Waitable` the loop is
registered on.  The registration stays across parks; the producer wakes
the loop while the loop sleeps (``PollLoop.sleeping``) and does nothing
otherwise.
"""

from heapq import heappush
from math import frexp, inf, ldexp
from typing import Callable, Iterator, Optional

from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment, SimulationError, Timer


# A catch-up loops over its last polls at the cap when there are fewer
# than this many: the closed form costs about as much as sixteen polls.
_LOOPED_CAP_POLLS = 16


class IdleContract:
    """What a busy-poll loop's owner promises so the loop can park.

    Any object with these members will do; this class documents them
    and gives the defaults.  Without a contract a loop polls on.
    """

    def idle_until(self, loop: "PollLoop") -> Optional[float]:
        """Called after an iteration, with the next poll due at
        ``loop.next_poll``.  Return None when that poll may find work
        or the owner cannot tell; ``math.inf`` when every poll from
        there on is idle until ``loop.wake()`` — the loop is registered
        (:meth:`repro.waiters.Waitable.watch`, once: a registration
        stays) on everything that could change what an idle poll reads
        or publishes, which wakes it while it sleeps; or the point of
        ``loop.idle_grid()`` up to which idleness is a matter of time
        alone (the loop polls for real there).  A needless wake is
        always exact: a real poll is what the reference does.
        """
        return None

    # ``replay(polls)`` applies what ``polls`` skipped idle iterations
    # would have published (counts: heartbeat epochs and the like).  An
    # owner whose idle iteration publishes nothing leaves it None and
    # is not called.
    replay: Optional[Callable[[int], None]] = None


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

    ``idle`` is the owner's :class:`IdleContract`; a busy-poll loop
    that has one parks whenever the contract allows.  A ``period`` loop
    has nothing to skip and takes none.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        iteration: Callable[[], float],
        costs: CostModel = DEFAULT_COST_MODEL,
        idle_backoff_max: float = 5e-6,
        period: Optional[float] = None,
        idle: Optional[IdleContract] = None,
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
        if period is not None and idle is not None:
            raise ValueError("a period loop has no idle polls to skip")
        self.period = period
        self._idle = idle
        self._replay: Optional[Callable[[int], None]] = None
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.iterations = 0
        self.idle_iterations = 0   # those that found nothing to do
        # Where the simulator's own time did not go: times the loop left
        # the queue, and idle polls replayed instead of dispatched (they
        # are counted in iterations/idle_iterations like any other).
        self.parks = 0
        self.replayed_polls = 0
        # Window marks for sample_activity() (load-balancer sampling).
        self._busy_mark = 0.0
        self._idle_mark = 0.0
        self._stopped = False
        # ``next_poll`` and ``idle_delay`` are the time and the back-off
        # delay of the first poll not yet accounted — where the ladder
        # of ``idle_grid()`` starts, for an owner that walks it in
        # place.  ``sleeping``: parked until woken, and not yet woken —
        # the one state in which a producer calls ``wake()``; a parked
        # loop that is not sleeping has its timer queued for the real
        # poll that ends the park.
        self.idle_delay = costs.idle_poll
        self.next_poll = 0.0
        self._parked = False
        self.sleeping = False
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
        # A busy-poll iteration reads rings, not other loops' accounting.
        self.process.syncs = self.period is not None
        if self._idle is not None:
            self._replay = self._idle.replay
        self.process.arm()
        return self

    def stop(self) -> None:
        """Stop the loop: no iteration runs after this call.

        The event already armed stays queued and fires as a no-op, so
        stopping moves no other event's place in the queue.  A parked
        loop first accounts the polls it would have run by now.
        """
        if self._parked:
            self.catch_up()
            self._parked = False
            self.sleeping = False
            del self.env._parked[self]
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

    # -- parking -----------------------------------------------------------

    def idle_grid(self) -> Iterator[float]:
        """Times of the coming polls for as long as they stay idle: the
        back-off ladder from ``next_poll`` on (for an owner's look-ahead
        in :meth:`IdleContract.idle_until`)."""
        when = self.next_poll
        delay = self.idle_delay
        cap = self.idle_backoff_max
        while True:
            yield when
            when = when + delay
            delay = delay * 2
            if delay > cap:
                delay = cap

    def wake(self) -> None:
        """Something an idle poll reads or publishes changed: poll for
        real at the first grid point that has not fired yet.  Acts only
        while the loop sleeps; harmless on any other loop."""
        if self.sleeping:
            self.sleeping = False
            self.catch_up()
            # Re-arm at the grid point: the queue key ``Timer.arm``
            # pushes, at an absolute time and without its two calls.
            timer = self.process
            timer.callbacks = timer._armed
            env = self.env
            env._eid += 1
            heappush(env._queue,
                     (self.next_poll, timer.rank, env._eid, timer))

    def catch_up(self) -> None:
        """(Parked loops only.)  Replay the skipped polls that lie behind
        the engine's frontier: a poll at grid point ``when`` with back-off ``delay``
        does ``idle_time += delay; when = when + delay; delay =
        min(2 * delay, idle_backoff_max)`` — the float operations of
        ``_poll``, in its order.  The ladder is walked poll by poll;
        once the delay is at the cap, ``when`` and ``idle_time`` each
        take ``_add_repeated``'s closed form, which lands on the same
        bits."""
        env = self.env
        now = env.now
        when = self.next_poll
        if when > now:
            return
        delay = self.idle_delay
        cap = self.idle_backoff_max
        idle_time = self.idle_time
        polls = 0
        # A poll due now has fired iff a higher rank already has.
        while when < now or (when == now
                             and self.process.rank < env.frontier_rank):
            idle_time += delay
            when = when + delay
            delay = delay * 2
            polls += 1
            if delay > cap:   # min(2 * delay, cap) without the call
                delay = cap
                if when < now - _LOOPED_CAP_POLLS * cap:
                    # Every poll from here adds ``cap``: those strictly
                    # before ``now`` at once, then the one due now by
                    # rank.
                    when, steps = _add_repeated(when, cap, now, inf)
                    if when == now and self.process.rank < env.frontier_rank:
                        when = when + cap
                        steps += 1
                    idle_time = _add_repeated(idle_time, cap, inf, steps)[0]
                    polls += steps
                    break
        if polls:
            self.next_poll = when
            self.idle_delay = delay
            self.idle_time = idle_time
            self.iterations += polls
            self.idle_iterations += polls
            self.replayed_polls += polls
            if self._replay is not None:
                self._replay(polls)

    def _poll(self, timer: Timer) -> None:
        """One firing: run an iteration, account its cost, re-arm — or
        park.  At most one event is scheduled per iteration, after it
        ran, and always on the loop's own poll grid: every event's
        place in the queue depends on that."""
        if self._stopped:
            return
        env = self.env
        if self._parked:
            # Woken by ``wake()`` the loop sits on its grid point with
            # nothing left to replay (a poll due now has not fired while
            # its own rank is the frontier); a timed park ends some
            # polls further on.
            if self.next_poll != env.now:
                self.catch_up()
                if self.next_poll != env.now:
                    timer.crash(SimulationError(
                        "poll loop %r woke at %r, off its grid point %r"
                        % (self.name, env.now, self.next_poll)))
                    return
            self._parked = False
            self.sleeping = False
            del env._parked[self]
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
            return
        if cost > 0.0:
            self.busy_time += cost
            self.idle_delay = self.costs.idle_poll
            delay = cost
        else:
            self.idle_iterations += 1
            delay = self.idle_delay
            self.idle_time += delay
            backoff = delay * 2
            if backoff > self.idle_backoff_max:
                backoff = self.idle_backoff_max
            self.idle_delay = backoff
        # Leave the queue if the owner vouches for the polls from
        # ``now + delay`` on — until woken, or until a later point of
        # the grid; otherwise re-arm for the next poll.
        when = env.now + delay
        idle = self._idle
        if idle is not None and not self._stopped:
            self.next_poll = when
            until = idle.idle_until(self)
            if until is not None:
                self._parked = True
                self.parks += 1
                env._parked[self] = None
                if until == inf:
                    self.sleeping = True
                    return
                when = until
        # ``timer.arm(delay)`` — or at ``until`` — as ``wake()`` does.
        timer.callbacks = timer._armed
        env._eid += 1
        heappush(env._queue, (when, timer.rank, env._eid, timer))

    def __repr__(self) -> str:
        return "<PollLoop %s iters=%d util=%.2f>" % (
            self.name, self.iterations, self.utilization
        )


def _add_repeated(x: float, step: float, limit: float, count: float
                  ) -> "tuple[float, int]":
    """``x`` after at most ``count`` rounds of ``x = x + step``, stopping
    at the first ``x >= limit``, and the rounds taken: the loop's result,
    bit for bit, in O(binades crossed).  Needs ``x > 0`` and ``step >
    0``.

    Inside one binade ``[edge/2, edge)`` every sum rounds on the same
    grid, and once ``x >= step`` Sterbenz makes ``fl(x + step) - x``
    exact (below ``step``, ``x + step > 2x`` crosses the edge): every
    round adds the same ``s`` — except that the first one after a tie
    rounds to even once, and from an even ``x`` the same ``s``
    repeats.  So one round is taken alone, and from its result
    ``k`` more give ``x + k*s`` exactly, for ``k = floor((bound - x) /
    s)`` and ``bound = min(edge, limit)``: both differences are whole
    numbers of ulps, at most 2^52, so the rounded quotient never crosses
    an integer, and a sum that lands on the edge itself is what rounding
    gives there too.  A round that crosses an edge is taken alone.
    """
    taken = 0
    edge = ldexp(1.0, frexp(x)[1])
    while taken < count and x < limit:
        x = x + step
        taken += 1
        if x >= edge:   # the next round, from a new binade, goes alone
            edge = ldexp(1.0, frexp(x)[1])
            continue
        if x >= limit:
            continue
        s = (x + step) - x
        if not s:   # x + step rounds back to x: x never moves again
            if count == inf:
                raise SimulationError("poll grid stalls at %r" % x)
            return x, count
        k = int(((limit if limit < edge else edge) - x) / s)
        if k > count - taken:
            k = count - taken
        x = x + k * s
        taken += k
    return x, taken
