"""The every-poll-is-an-event poll loop, kept as the oracle ``PollLoop``
is checked against: one timer firing per iteration, idle or not, and
never parked — whatever contract the owner offers is ignored.  The body
of ``_poll`` is ``PollLoop._poll`` as it stood before loops could leave
the event heap, under the same ``(time, rank, eid)`` queue key."""

import contextlib

from repro.sim.engine import Timer
from repro.sim.pollloop import PollLoop


class ReferencePollLoop(PollLoop):
    def start(self) -> "ReferencePollLoop":
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
        self._stopped = True
        if self.process is not None:
            self.process.is_alive = False

    def wake(self) -> None:
        """Never parked, so there is nothing to wake."""

    def _poll(self, timer: Timer) -> None:
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
            self.idle_delay = self.costs.idle_poll
            timer.arm(cost)
        else:
            self.idle_iterations += 1
            delay = self.idle_delay
            self.idle_time += delay
            timer.arm(delay)
            self.idle_delay = min(delay * 2, self.idle_backoff_max)


@contextlib.contextmanager
def every_poll_an_event():
    """Inside the block, every loop owner in the system (PMD cores,
    guest apps, sinks, sources) builds its loop on the reference: the
    same scenario run inside and outside is the differential."""
    import repro.apps.base
    import repro.traffic.generator
    import repro.traffic.sink
    import repro.vswitch.vswitchd

    owners = (repro.apps.base, repro.traffic.generator, repro.traffic.sink,
              repro.vswitch.vswitchd)
    for module in owners:
        module.PollLoop = ReferencePollLoop
    try:
        yield
    finally:
        for module in owners:
            module.PollLoop = PollLoop
