"""Differential: the ``Mempool`` that builds a descriptor on its first
allocation against the one that built all ``size`` in its constructor
(``tests/support/reference_mempool.py``).

A hypothesis state machine drives both pools with the same operations —
allocation one at a time, in bulk (zero, negative and over-size counts
included) and without raising; ``put``; ``free_burst`` over bursts
mixing retained, foreign, pool-less, already freed and smuggled
descriptors; the ledger moves and the crash sweep — and after every step
asserts that every public counter and query reads the same, and that
every exception has the same type and message.  The machine pairs each
descriptor one pool hands out with the one the other hands out in the
same place, and every later operation on a pair must leave both halves
in the same state: the two pools lend, reuse and tag the same
descriptors in the same order.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mem.mempool import Mempool
from repro.packet.mbuf import Mbuf

from tests.helpers import sweep_seeded
from tests.support.reference_mempool import Mempool as EagerMempool

SIZE = 8
OTHER_SIZE = 4
HOLDERS = ("vm:a", "vm:b", "ring:r")

holders = st.sampled_from(HOLDERS)
picks = st.integers(0, 63)

# One entry of a free_burst: a kind and which pair of that kind.
burst_entries = st.tuples(
    st.sampled_from(("own", "own", "own", "foreign", "pool-less",
                     "smuggled")),
    picks,
)


def outcome(call):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", call())
    except (RuntimeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def books(pool):
    return (pool.size, pool.available, pool.in_use, pool.alloc_count,
            pool.free_count_total, pool.alloc_failures,
            pool.double_free_detected, pool.reclaim_sweeps,
            pool.reclaimed_total, pool.leaked_found_total,
            pool.leaked_permanent, repr(pool), pool.holders(),
            [pool.held_by(holder) for holder in HOLDERS])


def descriptor_state(mbuf):
    return (mbuf.refcnt, mbuf.in_pool, mbuf.holder, mbuf.seq, mbuf.packet,
            mbuf.userdata)


@sweep_seeded
class MempoolDifferential(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # Index 0 is the pool under test, 1 the eager oracle.
        self.pools = (Mempool("p", SIZE), EagerMempool("p", SIZE))
        self.others = (Mempool("o", OTHER_SIZE),
                       EagerMempool("o", OTHER_SIZE))
        # (lazy, eager) descriptor pairs, by the pool they came from.
        self.own = []
        self.foreign = []
        self.stray = []        # pool-less and smuggled descriptors
        self.partner = {}      # id(lazy half) -> eager half
        self.stamps = 0

    def both(self, call, pools=None):
        """``call(pool)`` on each pool; both outcomes must agree up to
        the results, which are returned as a pair."""
        lazy, eager = (outcome(lambda: call(pool))
                       for pool in (pools or self.pools))
        assert lazy[0] == eager[0], (lazy, eager)
        if lazy[0] == "raised":
            assert lazy == eager
            return None
        return lazy[1], eager[1]

    def lent(self, results, pairs):
        """Pair what the two pools handed out, slot by slot: a
        descriptor seen before must come back with its old partner."""
        lazy, eager = results
        if not isinstance(lazy, list):
            lazy, eager = [lazy], [eager]
        assert len(lazy) == len(eager)
        for left, right in zip(lazy, eager):
            assert (left is None) == (right is None)
            if left is None:
                continue
            known = self.partner.get(id(left))
            if known is None:
                assert all(right is not other for _, other in pairs)
                self.partner[id(left)] = right
                pairs.append((left, right))
            else:
                assert known is right
            assert descriptor_state(left) == descriptor_state(right)

    @staticmethod
    def pick(pairs, index):
        return pairs[index % len(pairs)] if pairs else None

    # -- allocation ----------------------------------------------------------

    @rule()
    def get(self):
        results = self.both(lambda pool: pool.get())
        if results is not None:
            self.lent(results, self.own)

    @rule(count=st.integers(-2, SIZE + 2))
    def get_bulk(self, count):
        results = self.both(lambda pool: pool.get_bulk(count))
        if results is not None:
            self.lent(results, self.own)

    @rule()
    def try_get(self):
        results = self.both(lambda pool: pool.try_get())
        if results is not None:
            self.lent(results, self.own)

    @rule(count=st.integers(1, 3))
    def get_foreign(self, count):
        results = self.both(lambda pool: pool.get_bulk(count), self.others)
        if results is not None:
            self.lent(results, self.foreign)

    # -- what a holder does with a descriptor -----------------------------

    @rule(index=picks)
    def stamp(self, index):
        """Write fields a reuse must reset."""
        pair = self.pick(self.own, index)
        if pair is None:
            return
        self.stamps += 1
        for mbuf in pair:
            mbuf.seq = mbuf.packet = self.stamps
            mbuf.userdata = "flow"

    @rule(index=picks)
    def retain(self, index):
        pair = self.pick(self.own, index)
        if pair is not None:
            for mbuf in pair:
                mbuf.retain()

    # -- returning descriptors ---------------------------------------------

    @rule(index=picks, smuggled=st.booleans())
    def put(self, index, smuggled):
        if smuggled:
            pair = self.smuggle()
        else:
            pair = self.pick(self.own, index)
            if pair is None:
                return
        results = iter(pair)
        self.both(lambda pool: pool.put(next(results)))

    def smuggle(self):
        """A descriptor that names the pool but is none of its own."""
        pair = tuple(Mbuf(pool=pool) for pool in self.pools)
        self.stray.append(pair)
        return pair

    @rule(entries=st.lists(burst_entries, max_size=SIZE + 2))
    def free_burst(self, entries):
        burst = []
        for kind, index in entries:
            if kind == "pool-less":
                pair = (Mbuf(), Mbuf())
                self.stray.append(pair)
            elif kind == "smuggled":
                pair = self.smuggle()
            else:
                pair = self.pick(self.own if kind == "own" else self.foreign,
                                 index)
            if pair is not None:
                burst.append(pair)
        halves = iter(([lazy for lazy, _ in burst],
                       [eager for _, eager in burst]))
        self.both(lambda pool: pool.free_burst(next(halves)))

    # -- the ledger ------------------------------------------------------------

    @rule(index=picks, holder=holders)
    def assign(self, index, holder):
        pair = self.pick(self.own + self.stray, index)
        if pair is not None:
            results = iter(pair)
            self.both(lambda pool: pool.assign(next(results), holder))

    @rule(indices=st.lists(st.tuples(st.booleans(), picks), max_size=6),
          holder=holders)
    def assign_burst(self, indices, holder):
        burst = []
        for foreign, index in indices:
            pair = self.pick(self.foreign if foreign else self.own, index)
            burst.append(pair or (object(), object()))
        halves = iter(([lazy for lazy, _ in burst],
                       [eager for _, eager in burst]))
        self.both(lambda pool: pool.assign_burst(next(halves), holder))

    @rule(holder=holders)
    def reclaim(self, holder):
        lazy, eager = self.both(lambda pool: pool.reclaim(holder))
        assert lazy == eager

    # -- after every step ------------------------------------------------------

    @invariant()
    def books_agree(self):
        for lazy, eager in (self.pools, self.others):
            assert books(lazy) == books(eager)

    @invariant()
    def every_pair_agrees(self):
        for left, right in self.own + self.foreign + self.stray:
            assert descriptor_state(left) == descriptor_state(right)


def test_a_sweep_refills_the_free_list_in_the_eager_order():
    """Buffers built in separate batches come back from a sweep, and go
    out again, in the order the eager pool keeps its descriptors in."""
    def relent(pool):
        lent = [pool.get()] + pool.get_bulk(2) + [pool.get()]
        for mbuf in lent:
            pool.assign(mbuf, "vm:a")
        pool.reclaim("vm:a")
        return [lent.index(mbuf) for mbuf in pool.get_bulk(len(lent))]

    assert relent(Mempool("p", SIZE)) == relent(EagerMempool("p", SIZE))


MempoolDifferential.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestMempoolDifferential = MempoolDifferential.TestCase
