"""The generator-process poll loop ``PollLoop`` was before it became a
re-armed engine timer, kept as the oracle the timer is checked against:
one ``Timeout`` per iteration, stopped by an interrupt."""

from repro.sim.engine import Interrupt
from repro.sim.pollloop import PollLoop


class ReferencePollLoop(PollLoop):
    def start(self) -> "ReferencePollLoop":
        self.process = self.env.process(self._run(), name=self.name)
        return self

    def stop(self) -> None:
        self._stopped = True
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("stop")

    def _run(self):
        env = self.env
        idle_cost = self.costs.idle_poll
        idle_delay = idle_cost
        period = self.period
        try:
            while not self._stopped:
                cost = self.iteration()
                self.iterations += 1
                if period is not None:
                    if cost > 0.0:
                        self.busy_time += cost
                    self.idle_time += max(period - cost, 0.0)
                    yield env.timeout(max(cost, period))
                elif cost > 0.0:
                    self.busy_time += cost
                    idle_delay = idle_cost
                    yield env.timeout(cost)
                else:
                    self.idle_time += idle_delay
                    yield env.timeout(idle_delay)
                    idle_delay = min(idle_delay * 2, self.idle_backoff_max)
        except Interrupt:
            return
