"""Property: the live-index EMC is the scan-based EMC.

``ExactMatchCache`` keeps the keys stamped with the current generation in
an index of their own, so ``invalidate_matching`` and ``len()`` visit
only those instead of every slot; ``tests/support/reference_emc.py``
keeps the class that scanned.  Hypothesis interleaves inserts, lookups,
``invalidate_entry``, ``invalidate_matching``, ``invalidate_all`` and
``flush`` on one of each, at capacities of 8 to 16 so the admission
threshold is crossed and slots are evicted, and after every step the two
must agree on the return value, every counter, the admission coin, the
slots in order and ``len()``.  A pinned case holds admission to what it
was: tombstones occupy slots, so a cache of 8,192 slots holding 28 live
keys still admits one new key in eight.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.packet.flowkey import FlowKey
from repro.vswitch.emc import ExactMatchCache

from tests.support.reference_emc import ScanExactMatchCache

COUNTERS = ("hits", "misses", "stale_hits", "insertions",
            "insertions_skipped", "evictions", "stale_evictions",
            "precise_evictions", "generation", "_coin")


def _key(in_port, l4_dst, ip_dst=0x0A000001):
    return FlowKey(in_port, 0x020000000001, 0x020000000002, 0x0800, 0,
                   0x0A0000FE, ip_dst, 17, 0, 1000, l4_dst)


KEYS = [_key(in_port, l4_dst, ip_dst)
        for in_port in (1, 2, 3)
        for l4_dst in (53, 80, 443)
        for ip_dst in (0x0A000001, 0x0A000102, 0x0B000001)]
ENTRIES = [FlowEntry(Match(in_port=port), [OutputAction(9)], priority=10)
           for port in (1, 2, 3)] + [
    FlowEntry(Match(), [OutputAction(8)], priority=1),
    FlowEntry(Match(eth_type=0x0800, ip_proto=17, l4_dst=53), []),
]
# Cached values: pipeline traversals, and the bare entry unit tests use.
VALUES = [(ENTRIES[0],), (ENTRIES[1],), (ENTRIES[0], ENTRIES[3]),
          (ENTRIES[2], ENTRIES[4]), ENTRIES[3], ENTRIES[4]]
MATCHES = [
    Match(),
    Match(in_port=1),
    Match(in_port=2, eth_type=0x0800, ip_proto=17, l4_dst=80),
    Match(eth_type=0x0800, ip_dst=(0x0A000000, 0xFFFF0000)),
    Match(eth_type=0x0800, ip_dst=(0x0B000000, 0xFF000000)),
    Match(in_port=3),
]

# Weighted so that stretches between whole-cache resets are long enough
# to fill the cache with live keys and evict one of them.
KINDS = (["insert"] * 8 + ["lookup"] * 4 + ["invalidate_entry"] * 2
         + ["invalidate_matching"] * 2 + ["invalidate_all", "flush"])
# An operation is (method name, index into each argument's pool...).
POOLS = {"insert": (KEYS, VALUES), "lookup": (KEYS,),
         "invalidate_entry": (ENTRIES,), "invalidate_matching": (MATCHES,),
         "invalidate_all": (), "flush": ()}
operations = st.sampled_from(KINDS).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        *(st.integers(0, len(pool) - 1) for pool in POOLS[kind])))


def apply(emc, operation):
    kind, *indices = operation
    return getattr(emc, kind)(*(pool[index] for pool, index
                                in zip(POOLS[kind], indices)))


def state(emc):
    return ([getattr(emc, counter) for counter in COUNTERS],
            list(emc._entries.items()), len(emc), emc._by_entry)


def run_both(capacity, inv_prob, script):
    emc = ExactMatchCache(capacity=capacity, insert_inv_prob=inv_prob)
    reference = ScanExactMatchCache(capacity=capacity,
                                    insert_inv_prob=inv_prob)
    for step, operation in enumerate(script):
        got, expected = apply(emc, operation), apply(reference, operation)
        assert got is expected or got == expected, (step, operation)
        assert state(emc) == state(reference), (step, operation)
    return emc


@settings(max_examples=300, deadline=None)
@given(st.integers(8, 16), st.sampled_from([1, 2, 8]),
       st.lists(operations, max_size=120))
# A full cache of live keys evicts a live one, then a gated refill.
@example(8, 1, [("insert", index, 0) for index in range(10)]
         + [("lookup", 0), ("invalidate_matching", 1)])
@example(8, 8, [("insert", index, index % len(VALUES))
                for index in range(len(KEYS))]
         + [("invalidate_entry", 3), ("insert", 0, 1), ("lookup", 5)])
def test_live_index_emc_is_the_scan_emc(capacity, inv_prob, script):
    run_both(capacity, inv_prob, script)


def test_a_long_script_reaches_every_path():
    """One seeded script long enough that admission gates, both kinds
    of eviction and stale hits all happen: the differential above is
    only as good as the paths its scripts reach."""
    rng = random.Random(7)
    # No flush and a rare generation bump: long runs of live keys.
    kinds = (["insert"] * 6 + ["lookup"] * 3
             + ["invalidate_entry", "invalidate_matching"])
    script = []
    for _ in range(1500):
        kind = rng.choice(kinds + ["invalidate_all"] * (rng.random() < .02))
        script.append((kind,) + tuple(rng.randrange(len(pool))
                                      for pool in POOLS[kind]))
    emc = run_both(8, 2, script)
    for counter in ("hits", "stale_hits", "insertions_skipped",
                    "evictions", "stale_evictions", "precise_evictions"):
        assert getattr(emc, counter) > 0, counter


def test_tombstones_count_as_occupancy_for_admission():
    emc = ExactMatchCache()                  # 8,192 slots, 1-in-8 above half
    flow = (ENTRIES[3],)
    emc.insert_inv_prob = 1                  # fill every slot ungated
    live_from = emc.capacity - 28            # the newest 28 stay live
    for index in range(emc.capacity):
        emc.insert(_key(2 if index >= live_from else 1, index), flow)
    emc.insert_inv_prob = 8
    assert emc.invalidate_matching(Match(in_port=1)) == emc.capacity - 28
    assert len(emc) == 28                    # the churn workload's state

    coin, admitted = emc._coin, 0
    for _ in range(64):
        coin = (coin * 1103515245 + 12345) & 0x7FFFFFFF
        admitted += coin % 8 == 0
    for index in range(64):
        emc.insert(_key(3, index), flow)
    # Every one of the 64 flipped the coin: 28 live keys in a full cache
    # are not "plenty of room".
    assert emc.insertions_skipped == 64 - admitted
    assert 0 < admitted <= 16
    # Each admitted key took a tombstone's slot.
    assert emc.stale_evictions == admitted
    assert len(emc) == 28 + admitted
