"""The scan-based EMC, kept as the oracle the live-index
``ExactMatchCache`` is checked against.

Until the EMC kept an index of its live keys, ``invalidate_matching``
and ``len()`` scanned every slot and skipped the tombstoned and stale
ones — under churn nearly all of them.  ``ScanExactMatchCache`` is the
class as it stood, so a differential can hold the new one to the same
return values, counters, slot order and admission coin.
"""

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.openflow.table import FlowEntry
from repro.packet.flowkey import FlowKey

Traversal = Tuple[FlowEntry, ...]

_TOMBSTONE = -1
_EVICTION_PROBE_DEPTH = 8


def _components(value) -> Iterable[FlowEntry]:
    if isinstance(value, FlowEntry):
        return (value,)
    if isinstance(value, tuple):
        return value
    return ()


class ScanExactMatchCache:
    def __init__(self, capacity: int = 8192,
                 insert_inv_prob: int = 8,
                 insert_threshold: float = 0.5) -> None:
        if capacity <= 0:
            raise ValueError("EMC capacity must be positive")
        if insert_inv_prob < 1:
            raise ValueError("insert_inv_prob must be >= 1")
        self.capacity = capacity
        self.insert_inv_prob = insert_inv_prob
        self.insert_threshold = insert_threshold
        self.generation = 0
        self._entries: Dict[FlowKey, Tuple[int, Traversal]] = {}
        self._by_entry: Dict[int, Set[FlowKey]] = {}
        self._coin = 0x9E3779B9
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.insertions = 0
        self.insertions_skipped = 0
        self.evictions = 0
        self.stale_evictions = 0
        self.precise_evictions = 0

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
        self._unlink(key, value)

    def lookup(self, key: FlowKey) -> Optional[Traversal]:
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

    def _admit(self) -> bool:
        if self.insert_inv_prob <= 1:
            return True
        if len(self._entries) < self.capacity * self.insert_threshold:
            return True
        self._coin = (self._coin * 1103515245 + 12345) & 0x7FFFFFFF
        return self._coin % self.insert_inv_prob == 0

    def _evict_one(self) -> None:
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
        cached = self._entries.get(key)
        if cached is not None:
            self._unlink(key, cached[1])
        elif not self._admit():
            self.insertions_skipped += 1
            return
        elif len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[key] = (self.generation, traversal)
        self._link(key, traversal)
        self.insertions += 1

    def invalidate_all(self) -> None:
        self.generation += 1

    def invalidate_entry(self, entry: FlowEntry) -> int:
        keys = self._by_entry.get(entry.flow_id)
        if not keys:
            return 0
        evicted = 0
        for key in list(keys):
            cached = self._entries.get(key)
            if cached is None or cached[0] != self.generation:
                continue  # already stale or collected
            self._entries[key] = (_TOMBSTONE, cached[1])
            evicted += 1
        self.precise_evictions += evicted
        return evicted

    def invalidate_matching(self, match) -> int:
        evicted = 0
        for key, (generation, value) in self._entries.items():
            if generation != self.generation:
                continue
            if match.matches(key):
                self._entries[key] = (_TOMBSTONE, value)
                evicted += 1
        self.precise_evictions += evicted
        return evicted

    def flush(self) -> None:
        self._entries.clear()
        self._by_entry.clear()
        self.generation += 1

    def __len__(self) -> int:
        return sum(
            1 for generation, _value in self._entries.values()
            if generation == self.generation
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
