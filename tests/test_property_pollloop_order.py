"""PollLoop orders and accounts exactly as the loop whose every poll
is an engine event (tests/support/reference_pollloop.py), although it
leaves the event queue whenever its owner's idle contract allows.

The scenarios are built for ties: every delay is a small multiple of a
power-of-two tick, so loops and a timer-driven generator process keep
landing on the same timestamp and only the queue's tie rule separates
them.  The loops share rings, so an iteration's cost depends on who ran
first: one swapped tie changes the whole log.  Consumers and pacers
carry idle contracts, so under ``PollLoop`` they spend most of the run
parked while producers of lower and higher rank enqueue at their grid
instants, loops are stopped and woken mid-park, and rings are attached
and detached under them; a ``period`` observer samples every loop's
accounting and published heartbeat at each of its ticks.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.mem.ring import Ring
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.nic import Nic
from repro.sim.pollloop import PollLoop
from repro.traffic.generator import SourceApp
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf, sweep_seeded
from tests.support.reference_pollloop import (
    ReferencePollLoop,
    every_poll_an_event,
)

TICK = 2.0 ** -22          # ~238 ns, exact in binary: sums never round
COSTS = dataclasses.replace(DEFAULT_COST_MODEL, idle_poll=TICK)


ROLES = ["producer", "deferrer", "consumer", "consumer", "pacer", "spawner",
         "scripted"]

# One loop: (period in ticks or None, role, scripted costs in ticks).
loop_specs = st.tuples(
    st.one_of(st.none(), st.integers(1, 6)),
    st.sampled_from(ROLES),
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 5]), min_size=1,
             max_size=12),
)
scenarios = st.tuples(
    st.lists(loop_specs, min_size=2, max_size=6),
    st.lists(st.integers(1, 8), min_size=1, max_size=6),   # timer delays
    st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 5),
                                   st.integers(1, 40))),   # a stop() call
    st.integers(1, 7),    # every n-th timer firing wakes a loop for nothing
    st.integers(1, 7),    # every n-th one attaches / detaches a ring
    st.integers(1, 6),    # the observer's period in ticks
)


class Consumer:
    """Drains its attached rings and publishes a heartbeat on every
    poll, idle or not — the shape of ``DualChannelPmd.rx_burst`` — and
    offers the matching idle contract: park while every attached ring is
    empty, replay the heartbeat by count."""

    def __init__(self, env, log, name, rings, script):
        self.env = env
        self.log = log
        self.name = name
        self.rings = list(rings)
        self.script = script
        self.epoch = 0
        self.busy_calls = 0
        self.loop = None

    def iteration(self):
        self.epoch += 1
        got = sum(len(ring.dequeue_burst(2)) for ring in self.rings)
        if not got:
            return 0.0
        cost = (self.script[self.busy_calls % len(self.script)] + 1) * TICK
        self.busy_calls += 1
        self.log.append((self.env.now, self.name, cost))
        return cost

    def idle_until(self, loop):
        if any(not ring.is_empty for ring in self.rings):
            return None
        for ring in self.rings:
            ring.watch(loop)
        return math.inf

    def replay(self, polls):
        self.epoch += polls

    def toggle(self, ring):
        """Attach or detach ``ring``: what the skipped polls read
        changes, so the owner wakes the loop first."""
        self.loop.wake()
        if ring in self.rings:
            self.rings.remove(ring)
        else:
            self.rings.append(ring)


class Pacer:
    """Busy whenever a float credit reaches 1 — the shape of a paced
    ``SourceApp`` — so its idleness is a matter of time alone: it looks
    ahead over the loop's own poll grid and takes the credit the
    skipped polls leave behind at once (nothing else reads it)."""

    HORIZON = 5   # short, so look-aheads also end on idle grid points

    def __init__(self, env, log, name, ring, script):
        self.env = env
        self.log = log
        self.name = name
        self.ring = ring
        self.rate = 1.0 / ((2 + sum(script) % 5) * TICK)
        self.credit = 0.0
        self.last = 0.0
        self.epoch = 0
        self.loop = None

    def _accrue(self, now):
        self.credit = min(self.credit + (now - self.last) * self.rate, 3.0)
        self.last = now

    def iteration(self):
        self.epoch += 1
        self._accrue(self.env.now)
        if self.credit < 1.0:
            return 0.0
        self.credit -= 1.0
        self.ring.enqueue_burst([self.epoch])
        self.log.append((self.env.now, self.name, TICK))
        return TICK

    def idle_until(self, loop):
        credit, last = self.credit, self.last
        for polls, when in enumerate(loop.idle_grid()):
            ahead = min(credit + (when - last) * self.rate, 3.0)
            if ahead >= 1.0 or polls == self.HORIZON:
                if not polls:
                    return None
                self.credit, self.last = credit, last
                return when
            credit, last = ahead, when

    def replay(self, polls):
        self.epoch += polls


def drive(loop_class, scenario):
    """Run ``scenario`` on ``loop_class``; returns the log of busy
    iterations and timer firings, what the observer saw at each tick,
    each loop's final accounting and the number of parks."""
    specs, timer_delays, stop, wake_every, toggle_every, observe = scenario
    env = Environment()
    rings = [Ring("shared%d" % index, 8) for index in range(3)]
    log = []
    loops = []
    owners = []

    def stop_loop(index):
        loops[index % len(loops)].stop()

    def make_iteration(index, role, script):
        state = {"calls": 0}
        ring = rings[index % 2]

        def iteration():
            calls = state["calls"]
            state["calls"] = calls + 1
            ticks = script[calls % len(script)]
            if role == "producer":
                if ticks and not ring.enqueue_burst([calls]):
                    ticks = 0
            elif role == "deferrer" and ticks:
                # Enqueue from a zero-delay rank-0 event: it runs after
                # the polls lower-ranked loops had due at this instant,
                # so a parked one of them must count that poll as fired.
                env.timeout(0.0).callbacks.append(
                    lambda _event: log.append(
                        (env.now, "deferred%d" % index,
                         float(ring.enqueue_burst([calls])))))
            elif role == "spawner" and ticks:
                # Due exactly when this loop next runs: the loop must
                # re-arm *after* the iteration for the timeout to win.
                env.timeout(ticks * TICK).callbacks.append(
                    lambda _event: log.append(
                        (env.now, "spawned%d" % index, 0.0)))
            if stop is not None and stop[0] % len(specs) == index \
                    and calls == stop[2]:
                stop_loop(stop[1])
            cost = ticks * TICK
            if cost:
                log.append((env.now, "loop%d" % index, cost))
            return cost

        return iteration

    for index, (period, role, script) in enumerate(specs):
        name = "loop%d" % index
        owner = None
        if period is None and role == "consumer":
            # Every other consumer also polls the ring its neighbour
            # polls: a shared ring has one waiter slot.
            shared = rings[:2] if index % 2 else [rings[index % 2]]
            owner = Consumer(env, log, name, shared, script)
        elif period is None and role == "pacer":
            owner = Pacer(env, log, name, rings[index % 2], script)
        owners.append(owner)
        if owner is None:
            loop = loop_class(
                env, name, make_iteration(index, role, script),
                costs=COSTS, idle_backoff_max=16 * TICK,
                period=None if period is None else period * TICK)
        else:
            loop = owner.loop = loop_class(
                env, name, owner.iteration, costs=COSTS,
                idle_backoff_max=16 * TICK, idle=owner)
        loops.append(loop)

    consumers = [owner for owner in owners if isinstance(owner, Consumer)]
    stop_by_timer = stop is not None and \
        owners[stop[0] % len(specs)] is not None

    def timers():
        for count in range(200):
            yield env.timeout(timer_delays[count % len(timer_delays)] * TICK)
            log.append((env.now, "timers", float(len(rings[0]))))
            rings[0].enqueue_burst([count])
            if count % wake_every == 0:
                loops[count % len(loops)].wake()
            if consumers and count % toggle_every == 0:
                consumers[count % len(consumers)].toggle(rings[2])
            if count % 5 == 0:
                rings[2].enqueue_burst([count])
            if stop_by_timer and count == stop[2]:
                stop_loop(stop[1])

    observations = []

    def observer():
        observations.append([
            (loop.iterations, loop.idle_iterations, loop.idle_time,
             loop.busy_time, owner.epoch if owner is not None else 0)
            for loop, owner in zip(loops, owners)])
        return 0.0

    for loop in loops:
        loop.start()
    env.process(timers(), name="timers")
    loop_class(env, "observer", observer, costs=COSTS,
               period=observe * TICK).start()
    env.run(until=301 * TICK)   # 7 x 43: rarely one of the observer's ticks
    samples = [loop.sample_activity() for loop in loops]
    env.run(until=600 * TICK)
    accounting = [
        (loop.busy_time, loop.idle_time, loop.iterations,
         loop.idle_iterations, samples[index], loop.sample_activity(),
         owner.epoch if owner is not None else 0)
        for index, (loop, owner) in enumerate(zip(loops, owners))
    ]
    return log, observations, accounting, sum(loop.parks for loop in loops)


@sweep_seeded
@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_poll_loop_matches_the_every_poll_reference(scenario):
    expected = drive(ReferencePollLoop, scenario)
    log, observations, accounting, _parks = drive(PollLoop, scenario)
    assert log == expected[0]
    # == on floats: the accounting is the same operations in the same
    # order, so it is equal to the bit, not merely close.
    assert observations == expected[1]
    assert accounting == expected[2]


TIE_SCENARIO = (
    [(None, "producer", [0, 2, 0, 0, 3]), (None, "consumer", [1]),
     (None, "spawner", [0, 2]), (4, "consumer", [0, 1]),
     (None, "pacer", [1, 2]), (None, "deferrer", [0, 1, 0, 0, 0, 3])],
    [1, 3, 4], (0, 2, 25), 3, 4, 2,
)


def test_the_scenarios_are_decided_by_ties():
    """The property above is only as strong as the ties it exercises:
    in a typical scenario a good share of adjacent resumptions share a
    timestamp and are ordered by nothing but the tie rule."""
    log, _observations, _accounting, _parks = drive(PollLoop, TIE_SCENARIO)
    ties = sum(1 for a, b in zip(log, log[1:])
               if a[0] == b[0] > 0.0 and a[1] != b[1])
    assert ties > len(log) // 10


def test_the_scenarios_park():
    """... and only as strong as the parking it exercises: the loops
    with a contract leave the queue again and again, the reference
    never does, and the two still agree."""
    expected = drive(ReferencePollLoop, TIE_SCENARIO)
    outcome = drive(PollLoop, TIE_SCENARIO)
    assert expected[3] == 0
    assert outcome[3] > 50
    assert outcome[:3] == expected[:3]


# -- a PMD core parked on a NIC queue -------------------------------------------


def drive_nic(gaps, burst):
    """A one-core switch forwarding eth0 -> out0 while a rank-0 process
    delivers ``burst`` frames from the wire every ``gaps`` ticks (one
    ``Ring.enqueue`` each); a ``period`` observer samples the core."""
    env = Environment()
    switch = VSwitchd(env=env, costs=COSTS)
    nic = Nic(env, "eth0", ring_size=64)
    phy = switch.add_phy_port("eth0", nic)
    out = switch.add_dpdkr_port("out0")
    switch.bridge.table.add(FlowEntry(Match(in_port=phy.ofport),
                                      [OutputAction(out.ofport)]))
    log = []

    def wire():
        for count in range(120):
            yield env.timeout(gaps[count % len(gaps)] * TICK)
            accepted = sum(nic.wire_receive(mk_mbuf())
                           for _ in range(burst))
            log.append((env.now, "wire", accepted))

    switch.start()
    core, = switch._pmd_loops
    env.process(wire(), name="wire")
    observations = []

    def observer():
        observations.append((
            core.iterations, core.idle_iterations, core.idle_time,
            core.busy_time, phy.rx_packets, nic.rx_dropped,
            len(out.rings.to_guest)))
        return 0.0

    type(core)(env, "observer", observer, costs=COSTS,
               period=3 * TICK).start()
    env.run(until=2000 * TICK)
    return log, observations, core.parks


@sweep_seeded
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 24), min_size=1, max_size=6),
       st.integers(1, 40))
def test_a_core_parked_on_a_nic_queue_matches_the_reference(gaps, burst):
    """The NIC wake site.  Arrivals land on tick multiples, where the
    core's first polls after each burst are due too, and a burst larger
    than the core drains in one poll leaves the ring non-empty."""
    with every_poll_an_event():
        expected = drive_nic(gaps, burst)
    log, observations, parks = drive_nic(gaps, burst)
    assert expected[2] == 0 and parks > 0
    assert (log, observations) == expected[:2]


# -- SourceApp's look-ahead against the ladder it no longer iterates ----------


def lookahead_over_idle_grid(source, loop):
    """``SourceApp.idle_until`` as it stood while it walked
    ``loop.idle_grid()``: the generator, ``enumerate`` and ``min``."""
    rate = source.rate_pps
    credit = source._credit
    last = source._last_credit_time
    cap = 4.0 * source.burst_size
    horizon = source.LOOKAHEAD_POLLS
    for polls, when in enumerate(loop.idle_grid()):
        ahead = min(credit + (when - last) * rate, cap)
        if ahead >= 1.0 or polls == horizon:
            if not polls:
                return None, source._credit, source._last_credit_time
            return when, credit, last
        credit = ahead
        last = when


@settings(max_examples=300, deadline=None)
@given(
    rate=st.floats(min_value=1e2, max_value=2e7),
    credit=st.floats(min_value=0.0, max_value=1.5),
    since_credit=st.floats(min_value=0.0, max_value=1e-4),
    next_poll=st.floats(min_value=1e-3, max_value=1.0),
    busy_cost=st.floats(min_value=1e-8, max_value=1e-5),
    doublings=st.integers(0, 6),
)
def test_the_sources_lookahead_walks_the_idle_grid(
        rate, credit, since_credit, next_poll, busy_cost, doublings):
    """The in-place walk performs the generator's float operations in
    the generator's order: same park time, same pacer state, to the bit,
    wherever on the back-off ladder the loop stands."""
    env = Environment()
    source = SourceApp("src", port=None, rate_pps=rate)
    loop = PollLoop(env, "src", source.iteration, idle=source)
    loop.next_poll = next_poll + busy_cost
    loop.idle_delay = min(loop.costs.idle_poll * 2 ** doublings,
                          loop.idle_backoff_max)
    source._credit = credit
    source._last_credit_time = next_poll - since_credit
    expected = lookahead_over_idle_grid(source, loop)
    until = source.idle_until(loop)
    assert (until, source._credit, source._last_credit_time) == expected
