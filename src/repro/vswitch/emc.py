"""The exact-match cache (EMC): OVS-DPDK's first-level lookup.

Maps full flow keys straight to the pipeline *traversal* resolved for
them (the tuple of flow entries matched in pipeline order), skipping the
classifier.  Three mechanisms keep it correct and effective under churn,
mirroring real OVS-DPDK:

* **Precise invalidation.**  A back-index from flow entry to the cached
  keys it serves lets a single flowmod tombstone only the affected keys
  (``invalidate_entry`` / ``invalidate_matching``) instead of wiping the
  whole cache.  The crude whole-cache *generation* bump is retained as
  ``invalidate_all`` for callers that want the old behaviour (the
  datapath does not; the tests' whole-cache-wipe oracle does).
* **Probabilistic insertion.**  Above an occupancy threshold only one in
  ``insert_inv_prob`` new keys is admitted (OVS's ``emc-insert-inv-prob``),
  so elephant flows are not thrashed out by a storm of mice.  Occupancy
  counts every slot, tombstoned and stale ones included, not only the
  live keys ``len()`` reports.  The coin is a deterministic LCG — reruns
  stay bit-identical.
* **Stale-aware eviction.**  At capacity an invalidated/stale victim is
  preferred over a live one; the two cases are counted separately
  (``stale_evictions`` vs ``evictions``).

Correctness only requires that no stale rule ever forwards a packet
after a flowmod; a tombstoned key behaves exactly like a stale
generation (counted as ``stale_hits``, lazily collected on lookup).
Under churn most slots are such tombstones, so the live keys are also
kept in an index of their own: ``invalidate_matching`` and ``len()``
visit only them.
"""

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.openflow.table import FlowEntry
from repro.packet.flowkey import FlowKey

# A cached value: the flow entries matched in pipeline order (table 0
# first).  Unit tests may cache a bare FlowEntry; the cache itself is
# value-agnostic and only unwraps values to maintain the back-index.
Traversal = Tuple[FlowEntry, ...]

# Generation stamp marking a precisely-invalidated (tombstoned) key.
# Real generations start at 0 and only grow, so -1 never validates.
_TOMBSTONE = -1

# How many oldest entries the evictor probes looking for a stale victim
# before sacrificing a live one (bounded, like OVC's EM_FLOW_HASH_SHIFT
# probe depth — a full scan would be O(capacity) on the hot path).
_EVICTION_PROBE_DEPTH = 8


def _components(value) -> Iterable[FlowEntry]:
    """The flow entries referenced by a cached value (for the back-index)."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, FlowEntry):
        return (value,)
    return ()


class ExactMatchCache:
    """Bounded FlowKey -> traversal cache with precise invalidation."""

    def __init__(self, capacity: int = 8192,
                 insert_inv_prob: int = 8,
                 insert_threshold: float = 0.5) -> None:
        if capacity <= 0:
            raise ValueError("EMC capacity must be positive")
        if insert_inv_prob < 1:
            raise ValueError("insert_inv_prob must be >= 1")
        self.capacity = capacity
        # 1-in-N admission for new keys once occupancy crosses the
        # threshold; 1 disables the filter (every insertion admitted).
        self.insert_inv_prob = insert_inv_prob
        self.insert_threshold = insert_threshold
        self.generation = 0
        self._entries: Dict[FlowKey, Tuple[int, Traversal]] = {}
        # The keys of _entries stamped with the current generation, in
        # the order they became live (a dict used as an ordered set).
        self._live: Dict[FlowKey, None] = {}
        # flow_id -> keys whose cached traversal contains that entry.
        self._by_entry: Dict[int, Set[FlowKey]] = {}
        # Deterministic LCG state for the insertion coin (no wall-clock
        # randomness: reruns must be bit-identical).
        self._coin = 0x9E3779B9
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.insertions = 0
        self.insertions_skipped = 0
        self.evictions = 0
        self.stale_evictions = 0
        self.precise_evictions = 0

    # -- back-index maintenance ---------------------------------------------

    def _link(self, key: FlowKey, value) -> None:
        for entry in _components(value):
            self._by_entry.setdefault(entry.flow_id, set()).add(key)

    def _unlink(self, key: FlowKey, value) -> None:
        for entry in _components(value):
            keys = self._by_entry.get(entry.flow_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_entry[entry.flow_id]

    def _delete(self, key: FlowKey) -> None:
        _generation, value = self._entries.pop(key)
        self._live.pop(key, None)
        self._unlink(key, value)

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: FlowKey) -> Optional[Traversal]:
        """Return the cached traversal for ``key`` or None.

        A hit from a previous table generation — or a key tombstoned by
        precise invalidation — counts as a miss (and is removed); the
        caller must fall back to the classifier.
        """
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        generation, value = cached
        if generation != self.generation:
            self._delete(key)
            self.stale_hits += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    # -- insertion ------------------------------------------------------------

    def _admit(self) -> bool:
        """The probabilistic-insertion coin (deterministic LCG).  The
        occupancy it weighs is every slot, tombstones included."""
        if self.insert_inv_prob <= 1:
            return True
        if len(self._entries) < self.capacity * self.insert_threshold:
            return True  # plenty of room: thrash is not a concern yet
        self._coin = (self._coin * 1103515245 + 12345) & 0x7FFFFFFF
        return self._coin % self.insert_inv_prob == 0

    def _evict_one(self) -> None:
        """Make room: prefer a stale victim within a bounded probe of the
        oldest entries, else sacrifice the oldest live one."""
        victim = None
        for probed, (key, (generation, _value)) in enumerate(
                self._entries.items()):
            if generation != self.generation:
                victim = key
                self.stale_evictions += 1
                break
            if probed + 1 >= _EVICTION_PROBE_DEPTH:
                break
        if victim is None:
            victim = next(iter(self._entries))
            self.evictions += 1
        self._delete(victim)

    def insert(self, key: FlowKey, traversal: Traversal) -> None:
        """Cache ``key -> traversal`` at the current generation.

        New keys are subject to the probabilistic-insertion filter;
        refreshing an existing key always succeeds (the flow already
        proved itself worth caching).
        """
        cached = self._entries.get(key)
        if cached is not None:
            self._unlink(key, cached[1])
        elif not self._admit():
            self.insertions_skipped += 1
            return
        elif len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[key] = (self.generation, traversal)
        self._live[key] = None
        self._link(key, traversal)
        self.insertions += 1

    # -- invalidation ---------------------------------------------------------

    def invalidate_all(self) -> None:
        """Invalidate every cached entry (whole-cache generation bump)."""
        self.generation += 1
        self._live.clear()

    def invalidate_entry(self, entry: FlowEntry) -> int:
        """Tombstone every key whose traversal contains ``entry``
        (a removed or modified rule).  Returns how many keys died."""
        keys = self._by_entry.get(entry.flow_id)
        if not keys:
            return 0
        evicted = 0
        for key in list(keys):
            if key not in self._live:
                continue  # already stale or collected
            del self._live[key]
            self._entries[key] = (_TOMBSTONE, self._entries[key][1])
            evicted += 1
        self.precise_evictions += evicted
        return evicted

    def invalidate_matching(self, match) -> int:
        """Tombstone every live key that ``match`` covers (a newly added
        rule may now outrank the cached resolution).  Returns the count."""
        entries = self._entries
        covered = [key for key in self._live if match.matches(key)]
        for key in covered:
            del self._live[key]
            entries[key] = (_TOMBSTONE, entries[key][1])
        self.precise_evictions += len(covered)
        return len(covered)

    def flush(self) -> None:
        """Drop storage as well (used when memory accounting matters)."""
        self._entries.clear()
        self._live.clear()
        self._by_entry.clear()
        self.generation += 1

    def __len__(self) -> int:
        # Live entries only: stale ones are lazily collected on lookup.
        return len(self._live)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
