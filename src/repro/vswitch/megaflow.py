"""Megaflow (wildcard) cache: the missing OVS tier between the SMC and
the tuple-space classifier.

Real OVS gets most of its speed from the datapath *megaflow* cache: one
cached entry covers an entire traffic aggregate because it is keyed by
the packet's flow key masked down to the *minimal* set of bits the
classifier actually examined while resolving it — OVS's
``flow_wildcards`` / dynamic flow unwildcarding.  This module supplies
that tier for the simulated datapath:

* :class:`FlowWildcards` accumulates, during one classifier walk, the
  union of every ``(field, mask)`` a subtable probe examined.  The
  tuple-space classifier's staged probes (see
  :meth:`~repro.vswitch.classifier._Subtable.masked_key`) feed it, so a
  miss proven at an early stage unwildcards only the fields of that
  stage.
* :class:`MegaflowCache` stores ``masked key -> traversal`` entries
  grouped by distinct mask (a miniature tuple space of its own),
  bounded, with stale-aware eviction and the same per-flowmod precise
  invalidation contract as the EMC (back-index by ``flow_id`` plus
  overlap-based eviction for added rules).

Correctness invariant (pinned by ``tests/test_property_megaflow.py``):
a megaflow entry's mask covers every packet bit the classifier walk
examined — subtable probes unwildcard the fields they hash, staged
misses unwildcard exactly the prefix stages that proved the miss, and
priority comparisons examine *no* packet bits (the probe order and the
early-exit break depend only on table contents).  Therefore any key
matching ``key & mask == value`` reproduces the identical walk and the
identical winning traversal — a megaflow hit is priority-safe by
construction, never by revalidation.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.packet.flowkey import FlowKey

MaskTuple = Tuple[Tuple[str, int], ...]

#: Eviction probes before falling back to the oldest entry (EMC's
#: bounded-probe pattern: prefer reclaiming a tombstoned victim).
_EVICTION_PROBE_DEPTH = 8


class FlowWildcards:
    """Accumulator for the bits one classifier walk examined.

    ``add(field, mask)`` ORs ``mask`` into the field's unwildcarded
    bits.  The resulting mask is *minimal* for the walk that produced
    it: fields never examined stay fully wildcarded.
    """

    __slots__ = ("bits",)

    def __init__(self) -> None:
        self.bits: Dict[str, int] = {}

    def add(self, field: str, mask: int) -> None:
        if mask:
            self.bits[field] = self.bits.get(field, 0) | mask

    def mask_tuple(self) -> MaskTuple:
        """Canonical (sorted, nonzero-mask) form — the subtable key."""
        return tuple(sorted(self.bits.items()))

    def __repr__(self) -> str:
        inside = ",".join("%s/%#x" % (name, mask)
                          for name, mask in sorted(self.bits.items()))
        return "<FlowWildcards %s>" % (inside or "match-all")


class MegaflowEntry:
    """One cached aggregate: ``key & mask == values -> traversal``."""

    __slots__ = ("uid", "mask", "values", "traversal", "alive", "hit_count")

    def __init__(self, uid: int, mask: MaskTuple,
                 values: Tuple[int, ...],
                 traversal: Tuple[FlowEntry, ...]) -> None:
        self.uid = uid
        self.mask = mask
        self.values = values
        self.traversal = traversal
        self.alive = True
        self.hit_count = 0

    def __repr__(self) -> str:
        inside = ",".join(
            "%s=%#x/%#x" % (name, value, mask)
            for (name, mask), value in zip(self.mask, self.values)
        )
        return "<MegaflowEntry %s %s>" % (
            inside or "match-all", "live" if self.alive else "dead")


class MegaflowCache:
    """Bounded wildcard cache keyed by minimally-masked flow keys.

    Lookup probes one hash bucket per *distinct mask* currently cached
    (a tiny tuple space — distinct masks stay few because masks come
    from subtable signatures, not from flows).  When two live entries
    with different masks both cover a key, either answer is correct:
    each entry's region reproduces the full classifier walk, so both
    traversals equal the classifier's answer for that key (see module
    docstring); the first live hit wins.

    Invalidation mirrors the EMC contract: ``invalidate_entry`` kills
    every cached traversal containing a removed/modified rule via the
    ``flow_id`` back-index; ``invalidate_matching`` kills every entry
    whose region overlaps a newly added rule's match (the new rule
    could outrank the cached winner anywhere in the overlap).  Dead
    entries are tombstoned in place and reclaimed lazily by lookups and
    preferentially by eviction.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # mask -> (values tuple -> entry): the per-mask hash tables.
        self._masks: Dict[MaskTuple, Dict[Tuple[int, ...],
                                          MegaflowEntry]] = {}
        # uid -> entry in insertion order (dict order = age).
        self._entries: Dict[int, MegaflowEntry] = {}
        # flow_id -> entries whose traversal contains that rule.
        self._by_flow: Dict[int, Set[MegaflowEntry]] = {}
        self._next_uid = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.refreshes = 0
        self.evictions = 0
        self.stale_evictions = 0
        self.invalidations = 0
        self.stale_lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def mask_count(self) -> int:
        return len(self._masks)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: FlowKey) -> Optional[Tuple[FlowEntry, ...]]:
        """The cached traversal covering ``key``, or None.

        Tombstoned entries found along the way are reclaimed (lazy
        collection) and never answer.
        """
        dead: List[MegaflowEntry] = []
        found: Optional[Tuple[FlowEntry, ...]] = None
        for mask, bucket in self._masks.items():
            # A list, not a generator: one call, not one per field.
            values = tuple([getattr(key, name) & field_mask
                            for name, field_mask in mask])
            entry = bucket.get(values)
            if entry is None:
                continue
            if not entry.alive:
                dead.append(entry)
                continue
            entry.hit_count += 1
            found = entry.traversal
            break
        for entry in dead:
            self._remove(entry)
            self.stale_lookups += 1
        if found is not None:
            self.hits += 1
        else:
            self.misses += 1
        return found

    # -- population --------------------------------------------------------

    def insert(self, key: FlowKey, wc: FlowWildcards,
               traversal: Tuple[FlowEntry, ...]) -> MegaflowEntry:
        """Cache ``traversal`` under ``key`` masked down to ``wc``."""
        mask = wc.mask_tuple()
        values = tuple([getattr(key, name) & field_mask
                        for name, field_mask in mask])
        bucket = self._masks.get(mask)
        if bucket is not None:
            existing = bucket.get(values)
            if existing is not None:
                # Refresh in place (an invalidated region resolved
                # again): relink the back-index to the new traversal.
                self._unlink(existing)
                existing.traversal = traversal
                existing.alive = True
                self._link(existing)
                self.refreshes += 1
                return existing
        while len(self._entries) >= self.capacity:
            self._evict_one()
        entry = MegaflowEntry(self._next_uid, mask, values, traversal)
        self._next_uid += 1
        self._masks.setdefault(mask, {})[values] = entry
        self._entries[entry.uid] = entry
        self._link(entry)
        self.insertions += 1
        return entry

    def _link(self, entry: MegaflowEntry) -> None:
        for flow_entry in entry.traversal:
            self._by_flow.setdefault(flow_entry.flow_id, set()).add(entry)

    def _unlink(self, entry: MegaflowEntry) -> None:
        for flow_entry in entry.traversal:
            linked = self._by_flow.get(flow_entry.flow_id)
            if linked is not None:
                linked.discard(entry)
                if not linked:
                    del self._by_flow[flow_entry.flow_id]

    def _remove(self, entry: MegaflowEntry) -> None:
        self._entries.pop(entry.uid, None)
        bucket = self._masks.get(entry.mask)
        if bucket is not None and bucket.get(entry.values) is entry:
            del bucket[entry.values]
            if not bucket:
                del self._masks[entry.mask]
        self._unlink(entry)

    def _evict_one(self) -> None:
        """Reclaim one slot: a tombstone within the probe window if one
        exists (stale-aware), else the oldest entry."""
        victim = None
        probed = 0
        for entry in self._entries.values():
            if victim is None:
                victim = entry  # oldest entry: the live fallback
            if not entry.alive:
                victim = entry
                break
            probed += 1
            if probed >= _EVICTION_PROBE_DEPTH:
                break
        if victim is None:  # pragma: no cover - capacity >= 1 guards this
            return
        stale = not victim.alive
        self._remove(victim)
        if stale:
            self.stale_evictions += 1
        else:
            self.evictions += 1

    # -- invalidation ------------------------------------------------------

    def invalidate_entry(self, flow_entry: FlowEntry) -> int:
        """Tombstone every cached traversal containing ``flow_entry``
        (rule removed or its actions modified).  Returns the count."""
        linked = self._by_flow.get(flow_entry.flow_id)
        if not linked:
            return 0
        killed = 0
        for entry in linked:
            if entry.alive:
                entry.alive = False
                killed += 1
        self.invalidations += killed
        return killed

    def invalidate_matching(self, match: Match) -> int:
        """Tombstone every entry whose region overlaps ``match`` (a
        newly added rule could outrank the cached winner there)."""
        fields = match.fields   # a copy: taken once, not once per entry
        killed = 0
        for entry in self._entries.values():
            if entry.alive and self._region_overlaps(entry, fields):
                entry.alive = False
                killed += 1
        self.invalidations += killed
        return killed

    @staticmethod
    def _region_overlaps(entry: MegaflowEntry,
                         fields: Dict[str, Tuple[int, int]]) -> bool:
        """Whether some key can satisfy both the entry's region and the
        match whose ``fields`` are given.  Disjoint iff some field
        disagrees on shared mask bits.

        Unlike :meth:`Match.overlaps` this works on arbitrary bit
        masks — megaflow masks on exact-only fields (``in_port``,
        ``l4_src``, ...) are legal here even though :class:`Match`
        itself refuses to construct them.
        """
        for (name, mask), value in zip(entry.mask, entry.values):
            constraint = fields.get(name)
            if constraint is None:
                continue  # match unconstrained on this field
            match_value, match_mask = constraint
            common = mask & match_mask
            if (value & common) != (match_value & common):
                return False
        return True

    def flush(self) -> int:
        """Drop everything (generation-style wipe)."""
        count = len(self._entries)
        self._masks.clear()
        self._entries.clear()
        self._by_flow.clear()
        return count

    def __repr__(self) -> str:
        return "<MegaflowCache %d/%d entries, %d masks, %d hits>" % (
            len(self._entries), self.capacity, len(self._masks),
            self.hits)
