"""A compact discrete-event engine (generator-based, simpy-flavoured).

Processes are Python generators that ``yield`` events; the environment
resumes them when those events fire.  Only the features the library needs
are implemented — timeouts, one-shot events, process join, AllOf/AnyOf
composition and interrupts — but those are implemented completely and are
covered by their own unit/property tests.
"""

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for engine misuse (double trigger, yield of non-event...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that callbacks / processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_processed")

    PENDING = object()

    # Second component of the queue key ``(time, rank, eid)``: events
    # due at the same time fire in rank order, then in scheduling order.
    # Only a :class:`Timer` has a rank of its own.
    rank = 0

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (fired or failed)."""
        return self._triggered

    @property
    def value(self) -> Any:
        if self._value is Event.PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event with ``value`` at the current simulation time."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception; waiters will see it raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % delay)
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Timer(Event):
    """A re-armable event: one object and one callback for any number of
    firings.  ``name``/``is_alive`` mirror :class:`Process`, so a crash
    surfaces through ``Environment.step`` the same way.  Nothing may
    wait on a timer: it never carries a value.

    ``rank`` is the timer's creation order in its environment (1, 2, …).
    Among events due at the same time every rank-0 event (processes,
    timeouts, one-shot events) fires first, then the timers in rank
    order — so where a firing sits among its ties follows from *which*
    timer it is, not from when it was armed.

    ``syncs`` (default True) asks the engine to catch parked poll loops
    up before each firing (see :meth:`Environment.sync`); a busy-poll
    loop's own timer clears it, because its iteration reads rings, not
    other loops' accounting.
    """

    __slots__ = ("name", "is_alive", "_armed", "rank", "syncs")

    def __init__(self, env: "Environment",
                 callback: Callable[[Event], None], name: str) -> None:
        super().__init__(env)
        self.name = name
        self.is_alive = True
        self._triggered = True
        self._armed = [callback]   # never mutated: step() only reads it
        env._timers += 1
        self.rank = env._timers
        self.syncs = True

    def arm(self, delay: float = 0.0) -> None:
        """Fire the callback ``delay`` simulated seconds from now."""
        self.callbacks = self._armed
        self.env._schedule(self, delay)

    def arm_at(self, when: float) -> None:
        """Fire the callback at simulated time ``when`` (not before
        now): how a parked poll loop rejoins its own poll grid."""
        self.callbacks = self._armed
        env = self.env
        env._eid += 1
        heappush(env._queue, (when, self.rank, env._eid, self))

    def crash(self, exc: Exception) -> None:
        """The owner died: ``step`` raises once the callback returns."""
        self.is_alive = False
        self.env._crashed.append((self, exc))


class Process(Event):
    """A running generator; itself an event that fires on termination."""

    __slots__ = ("generator", "name", "_target", "is_alive")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process body must be a generator")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self.is_alive = True
        # Bootstrap: resume the process at the current time.
        initial = Event(env)
        initial.callbacks.append(self._resume)
        initial.succeed()

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(
                "cannot interrupt dead process %r" % self.name
            )
        if self._target is not None:
            # Stop waiting on the old target.
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        wakeup = Event(self.env)
        wakeup.callbacks.append(
            lambda _ev: self._resume_with_interrupt(cause)
        )
        wakeup.succeed()

    def _resume_with_interrupt(self, cause: Any) -> None:
        if not self.is_alive:
            return
        try:
            target = self.generator.throw(Interrupt(cause))
        except StopIteration as stop:
            self._terminate(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            self._terminate(False, exc)
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        self._target = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self._terminate(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            self._terminate(False, exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._terminate(
                False,
                SimulationError(
                    "process %r yielded %r (not an Event)"
                    % (self.name, target)
                ),
            )
            return
        self._target = target
        if target._processed:
            # Already fired and delivered: resume via a fresh zero-delay
            # event so ordering stays deterministic.
            immediate = Event(self.env)
            immediate.callbacks.append(lambda _ev: self._resume(target))
            immediate.succeed()
        else:
            target.callbacks.append(self._resume)

    def _terminate(self, ok: bool, value: Any) -> None:
        self.is_alive = False
        if ok:
            self.succeed(value)
        else:
            if not self.callbacks:
                # Nobody is waiting on this process: surface the crash.
                self.env._crashed.append((self, value))
            self.fail(value)


class Condition(Event):
    """Base for AllOf/AnyOf composition."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment",
                 events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            # Key on *delivery*, not trigger state: a Timeout is
            # "triggered" from construction but fires in the future; its
            # callback will run when the clock reaches it.  Only events
            # whose callbacks have already run must be consumed now.
            if event._processed:
                self._on_fire(event)
            else:
                event.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every component event has fired; value = list of values."""

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(Condition):
    """Fires when the first component event fires; value = that value."""

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(event._value)


class Environment:
    """The simulation clock and event queue."""

    def __init__(self) -> None:
        # Current simulated time in seconds.  A plain attribute, written
        # by step() and run() only: every layer reads the clock on its
        # hot path, and a property would cost each of them a call.
        self.now = 0.0
        self._queue: List = []
        self._eid = 0
        self._timers = 0   # timers created so far: the next one's rank
        self._crashed: List = []
        # Deterministic host-cost counter: events step() has delivered.
        self.events_processed = 0
        # The processing-order frontier is ``(now, frontier_rank)``: the
        # highest queue key dispatched so far at the current time.  An
        # event keyed below it has fired; that is how a parked poll loop
        # tells which of its skipped polls are already in the past.
        self.frontier_rank = 0
        # Poll loops that left the queue (keys only; see PollLoop).
        self._parked: dict = {}

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: Optional[str] = None
                ) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heappush(
            self._queue, (self.now + delay, event.rank, self._eid, event))

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events")
        when, rank, _eid, event = heappop(self._queue)
        if when != self.now:
            self.now = when
            self.frontier_rank = rank
        elif rank > self.frontier_rank:
            self.frontier_rank = rank
        self.events_processed += 1
        if self._parked and (rank == 0 or event.syncs):
            self.sync()
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if self._crashed:
            process, exc = self._crashed.pop()
            raise SimulationError(
                "process %r crashed: %r" % (process.name, exc)
            ) from exc

    def sync(self) -> None:
        """Catch every parked poll loop up to the frontier.

        Runs before each event that is not a busy-poll timer and when
        :meth:`run` returns, so whatever reads a loop's accounting or
        what its idle polls publish (watchdog, load balancer, scrapes,
        test code) reads what the every-poll-is-an-event loop would
        have written by then, without knowing that loops park.
        """
        for loop in self._parked:
            loop.catch_up()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation time at exit.  With ``until`` set, the
        clock is advanced exactly to ``until`` even if the next event lies
        beyond it (the event stays queued).  Parked poll loops are not in
        the queue: without ``until`` the run ends when only they remain.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                "cannot run backwards: now=%g until=%g" % (self.now, until)
            )
        queue = self._queue
        step = self.step   # every event is still dispatched through step
        if until is None:
            while queue:
                step()
        else:
            while queue and queue[0][0] <= until:
                step()
            self.now = until
            # Everything due at or before ``until`` has fired.
            self.frontier_rank = math.inf
        if self._parked:
            self.sync()
        return self.now
