"""PollLoop orders and accounts exactly as the loop whose every poll
is an engine event (tests/support/reference_pollloop.py).

The scenarios are built for ties: every delay is a small multiple of a
power-of-two tick, so loops and a timer-driven generator process keep
landing on the same timestamp and only the order in which their events
were scheduled separates them.  The loops share rings, so an iteration's
cost depends on who ran first: one swapped tie changes the whole log.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.mem.ring import Ring
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.pollloop import PollLoop

from tests.support.reference_pollloop import ReferencePollLoop

TICK = 2.0 ** -22          # ~238 ns, exact in binary: sums never round
COSTS = dataclasses.replace(DEFAULT_COST_MODEL, idle_poll=TICK)

# One loop: (period in ticks or None, role, scripted costs in ticks).
loop_specs = st.tuples(
    st.one_of(st.none(), st.integers(1, 6)),
    st.sampled_from(["producer", "consumer", "spawner", "scripted"]),
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 5]), min_size=1,
             max_size=12),
)
scenarios = st.tuples(
    st.lists(loop_specs, min_size=2, max_size=4),
    st.lists(st.integers(1, 8), min_size=1, max_size=6),   # timer delays
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3),
                                   st.integers(1, 40))),   # a stop() call
)


def drive(loop_class, scenario):
    """Run ``scenario`` on ``loop_class``; returns the resumption log and
    each loop's accounting."""
    specs, timer_delays, stop = scenario
    env = Environment()
    rings = [Ring("shared%d" % index, 8) for index in range(2)]
    log = []
    loops = []

    def make_iteration(index, role, script):
        state = {"calls": 0}
        ring = rings[index % len(rings)]

        def iteration():
            calls = state["calls"]
            state["calls"] = calls + 1
            ticks = script[calls % len(script)]
            if role == "producer":
                if ticks and not ring.enqueue_burst([calls]):
                    ticks = 0
            elif role == "consumer":
                ticks = ticks + 1 if ring.dequeue_burst(2) else 0
            elif role == "spawner" and ticks:
                # Due exactly when this loop next runs: the loop must
                # re-arm *after* the iteration for the timeout to win.
                env.timeout(ticks * TICK).callbacks.append(
                    lambda _event: log.append(
                        (env.now, "spawned%d" % index, 0.0)))
            if stop is not None and stop[0] % len(specs) == index \
                    and calls == stop[2]:
                loops[stop[1] % len(specs)].stop()
            cost = ticks * TICK
            log.append((env.now, "loop%d" % index, cost))
            return cost

        return iteration

    for index, (period, role, script) in enumerate(specs):
        loops.append(loop_class(
            env, "loop%d" % index, make_iteration(index, role, script),
            costs=COSTS, idle_backoff_max=16 * TICK,
            period=None if period is None else period * TICK))

    def timers():
        for count in range(200):
            yield env.timeout(timer_delays[count % len(timer_delays)] * TICK)
            log.append((env.now, "timers", float(len(rings[0]))))
            rings[0].enqueue_burst([count])

    for loop in loops:
        loop.start()
    env.process(timers(), name="timers")
    env.run(until=300 * TICK)
    samples = [loop.sample_activity() for loop in loops]
    env.run(until=600 * TICK)
    return log, [
        (loop.busy_time, loop.idle_time, loop.iterations,
         samples[index], loop.sample_activity())
        for index, loop in enumerate(loops)
    ]


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_poll_loop_matches_the_every_poll_reference(scenario):
    expected_log, expected_accounting = drive(ReferencePollLoop, scenario)
    log, accounting = drive(PollLoop, scenario)
    assert log == expected_log
    # == on floats: the accounting is the same operations in the same
    # order, so it is equal to the bit, not merely close.
    assert accounting == expected_accounting


def test_the_scenarios_are_decided_by_ties():
    """The property above is only as strong as the ties it exercises:
    in a typical scenario a good share of adjacent resumptions share a
    timestamp and are ordered by nothing but scheduling order."""
    scenario = (
        [(None, "producer", [0, 2, 0, 0, 3]), (None, "consumer", [1]),
         (None, "spawner", [0, 2]), (4, "consumer", [0, 1])],
        [1, 3, 4], (0, 2, 25),
    )
    log, _accounting = drive(PollLoop, scenario)
    ties = sum(1 for a, b in zip(log, log[1:])
               if a[0] == b[0] > 0.0 and a[1] != b[1])
    assert ties > len(log) // 10
