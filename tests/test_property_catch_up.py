"""``PollLoop.catch_up`` replays skipped polls in closed form; this holds
it, bit for bit, against the loop it replaced: one poll at a time, each
``idle_time += delay; when = when + delay; delay = min(2 * delay, cap)``,
for as long as the poll at ``when`` lies behind the engine's frontier.

The draws aim at what could make a closed form drift: start values of
0.0, subnormals and one ulp either side of a power of two (a binade
edge on the first step), ``idle_time`` on its own start (0.0 right after
``reset_accounting()``); steps of ``cap`` and ``idle_poll``, of 2^-n,
3 * 2^-n and (k + 1/2) ulps of the start (their sums tie and round to
even), of random values, and an ``idle_poll`` above the cap; up to 10^6
polls; and a frontier exactly on a grid point, on both sides of the
loop's rank, or one ulp either side.
"""

import dataclasses
import math

from hypothesis import assume, example, given, settings, strategies as st

from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Environment, Timer
from repro.sim.pollloop import PollLoop, _add_repeated

CAP = 5e-6   # PollLoop's default idle_backoff_max
IDLE_POLL = DEFAULT_COST_MODEL.idle_poll


def one_poll_at_a_time(when, delay, idle_time, cap, now, due_now_fired):
    """The replay loop as it stood before the closed form."""
    polls = 0
    while when < now or (when == now and due_now_fired):
        idle_time += delay
        when = when + delay
        delay = delay * 2
        if delay > cap:
            delay = cap
        polls += 1
    return when, delay, idle_time, polls


def walk(when, delay, cap, polls):
    """The grid point ``polls`` polls on."""
    for _ in range(polls):
        when = when + delay
        delay = min(delay * 2, cap)
    return when


def ladder(idle_poll, cap, rungs):
    """The back-off delay ``rungs`` idle polls after a busy one."""
    delay = idle_poll
    for _ in range(rungs):
        delay = min(delay * 2, cap)
    return delay


def around_powers_of_two():
    return st.integers(-30, 4).flatmap(lambda e: st.sampled_from([
        math.ldexp(1.0, e),
        math.nextafter(math.ldexp(1.0, e), 0.0),
        math.nextafter(math.ldexp(1.0, e), math.inf)]))


starts = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.0 ** -1022, exclude_max=True),
    around_powers_of_two(),
    st.floats(min_value=0.0, max_value=4096.0),
)
steps = st.one_of(
    st.sampled_from([CAP, IDLE_POLL]),
    st.integers(8, 60).map(lambda n: math.ldexp(1.0, -n)),
    st.integers(8, 60).map(lambda n: 3 * math.ldexp(1.0, -n)),
    st.floats(min_value=1e-15, max_value=1e-3),
)
# Log-uniform: every size up to 10^6 is drawn, most of them small.
counts = st.integers(0, 20).flatmap(
    lambda bits: st.integers(0, min(2 ** bits, 10 ** 6)))
# Where the frontier stands relative to the grid point after ``count``
# polls: on it, a poll of higher rank having fired or not, or off it.
frontiers = st.sampled_from(["fired", "not_fired", "ulp_below", "ulp_above"])


def parked_loop(when, delay, idle_time, idle_poll, cap):
    env = Environment()
    costs = dataclasses.replace(DEFAULT_COST_MODEL, idle_poll=idle_poll)
    loop = PollLoop(env, "parked", lambda: 0.0, costs=costs,
                    idle_backoff_max=cap)
    loop.process = Timer(env, loop._poll, loop.name)
    loop.next_poll = when
    loop.idle_delay = delay
    loop.idle_time = idle_time
    replayed = []
    loop._replay = replayed.append
    return loop, replayed


@settings(max_examples=300, deadline=None)
@given(when=starts, idle_time=starts, idle_poll=steps, cap=steps,
       tie=st.one_of(st.none(), st.tuples(
           st.integers(1, 40), st.sampled_from(["when", "above", "idle"]))),
       rungs=st.integers(0, 12), count=counts, frontier=frontiers)
# 10^6 polls at the cap across the 0.25, 0.5, 1, 2 and 4 s edges.
@example(when=0.2, idle_time=0.0, idle_poll=IDLE_POLL, cap=CAP, rungs=0,
         count=10 ** 6, tie=None, frontier="fired")
# Steps of 1.5 ulp below 16 (every sum a tie), of 0.75 ulp above it.
@example(when=math.nextafter(16.0, 0.0), idle_time=2.0 ** -1030,
         idle_poll=3 * 2.0 ** -51, cap=3 * 2.0 ** -50, rungs=0,
         count=10 ** 5, tie=None, frontier="not_fired")
# 1.5 ulps of an odd idle_time: its first sum rounds to even, then 2 ulps.
@example(when=0.5, idle_time=math.nextafter(1.0, 2.0),
         idle_poll=3 * 2.0 ** -53, cap=3 * 2.0 ** -53, rungs=0, count=1000,
         tie=None, frontier="not_fired")
# 3 ulps below 2, 1.5 above: the step across the edge lands on an odd
# value, the next rounds to even.
@example(when=math.nextafter(2.0, 0.0), idle_time=0.0,
         idle_poll=3 * 2.0 ** -52, cap=3 * 2.0 ** -52, rungs=0, count=5000,
         tie=None, frontier="fired")
# An idle_poll above the cap: the first step is the only rung.
@example(when=1.0, idle_time=0.125, idle_poll=2 * CAP, cap=CAP, rungs=0,
         count=777, tie=None, frontier="ulp_above")
def test_catch_up_is_the_loop_bit_for_bit(when, idle_time, idle_poll, cap,
                                           tie, rungs, count, frontier):
    if tie is not None:
        # (k + 1/2) ulps of ``when``, of the binade above it or of
        # ``idle_time``: sums there tie, and the first rounds to even.
        k, of = tie
        base = {"when": when, "above": math.ldexp(1.0, math.frexp(when)[1]),
                "idle": idle_time}[of]
        cap = (2 * k + 1) * math.ulp(base) / 2
        assume(cap > 0.0)
    delay = ladder(idle_poll, cap, rungs)
    grid = walk(when, delay, cap, count)
    # A grid that stops moving would replay for ever on either side.
    assume(grid + cap > grid)
    now = {"fired": grid, "not_fired": grid,
           "ulp_below": math.nextafter(grid, 0.0),
           "ulp_above": math.nextafter(grid, math.inf)}[frontier]
    loop, replayed = parked_loop(when, delay, idle_time, idle_poll, cap)
    env = loop.env
    env.now = now
    env.frontier_rank = loop.process.rank + (
        1 if frontier == "fired" else -1)
    expected = one_poll_at_a_time(when, delay, idle_time, cap, now,
                                  frontier == "fired")

    loop.catch_up()

    assert (loop.next_poll, loop.idle_delay, loop.idle_time,
            loop.replayed_polls) == expected
    assert loop.iterations == loop.idle_iterations == expected[3]
    assert replayed == ([expected[3]] if expected[3] else [])


def test_a_first_round_past_the_limit_ends_the_walk():
    """From an odd value a tie rounds up: 2.5 ulps become 3, the steady
    step is 2, and a limit one ulp on lies behind the first round by
    more than that step.  The walk must stop there, not step back."""
    ulp = 2.0 ** -51
    start = 2.0 + ulp
    assert _add_repeated(start, 2.5 * ulp, start + ulp, 10) \
        == (start + 3 * ulp, 1)
