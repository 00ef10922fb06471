"""Tuple-space search classifier (OVS's ``dpcls``).

Rules are grouped into *subtables* by their mask signature (the set of
``(field, mask)`` pairs they constrain).  A lookup masks the packet's
flow key once per subtable and does a hash probe, so cost scales with the
number of distinct masks rather than the number of rules — the same
algorithm OVS-DPDK uses after an EMC miss.

Two of OVS's lookup optimizations are modelled:

* **Subtable ranking.**  Subtables are visited in descending
  ``max_priority`` order (hit count breaking ties), so once a match is
  found every remaining subtable that could only yield a *lower*
  priority is skipped in one ``break`` — OVS's sorted subtable vector.
* **Hinted lookup** (:meth:`lookup_hinted`).  The signature-match cache
  (:mod:`repro.vswitch.smc`) remembers which subtable matched a key
  hash last time; the hinted subtable is probed first and the result is
  verified against every subtable that could outrank it, so a stale
  hint can never return the wrong rule.

The classifier is maintained incrementally from
:class:`~repro.openflow.table.FlowTable` change events and must always
agree with the table's linear priority lookup; a property test
(`tests/test_property_classifier.py`) drives both with random rule sets
and random packets to pin that equivalence down.
"""

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey

MaskSignature = FrozenSet[Tuple[str, int]]
MaskedValues = Tuple[Tuple[str, int], ...]

#: OVS's staged-lookup groups: metadata, L2, L3, L4.  A subtable's
#: fields are ordered by stage so a probe can prove a miss on an early
#: prefix and unwildcard only the fields of the stages it examined —
#: the heart of minimal-mask megaflow generation.
_FIELD_STAGE = {
    "in_port": 0,
    "eth_src": 1, "eth_dst": 1, "eth_type": 1, "vlan_vid": 1,
    "ip_src": 2, "ip_dst": 2, "ip_proto": 2, "ip_tos": 2,
    "l4_src": 3, "l4_dst": 3,
}


def _stage_of(field: Tuple[str, int]) -> int:
    return _FIELD_STAGE.get(field[0], len(_FIELD_STAGE))


class _Subtable:
    """All rules sharing one mask signature."""

    __slots__ = ("signature", "fields", "buckets", "max_priority", "hits",
                 "_stage_ends", "_stage_prefixes")

    def __init__(self, signature: MaskSignature) -> None:
        self.signature = signature
        # Canonical field order: by stage, then name — masked-value
        # tuples are per-subtable canonical and stage prefixes are
        # contiguous slices.
        self.fields: List[Tuple[str, int]] = sorted(
            signature, key=lambda field: (_stage_of(field), field[0])
        )
        self.buckets: Dict[MaskedValues, List[FlowEntry]] = {}
        self.max_priority = 0
        self.hits = 0  # lookups that found a candidate here (rank input)
        # Non-final stage boundaries (prefix lengths) and, per boundary,
        # a refcounted set of the masked prefixes present among the
        # rules — "is any rule compatible so far?" in one dict probe.
        ends: List[int] = []
        for index in range(1, len(self.fields)):
            if _stage_of(self.fields[index]) \
                    != _stage_of(self.fields[index - 1]):
                ends.append(index)
        self._stage_ends: Tuple[int, ...] = tuple(ends)
        self._stage_prefixes: List[Dict[MaskedValues, int]] = [
            {} for _ in ends
        ]

    def mask_key(self, key: FlowKey) -> MaskedValues:
        return tuple(
            (name, getattr(key, name) & mask) for name, mask in self.fields
        )

    def masked_key_staged(self, key: FlowKey, wc) -> Optional[MaskedValues]:
        """Masked values of ``key``, or None when a stage prefix proves
        no rule here can match.

        ``wc`` (a :class:`~repro.vswitch.megaflow.FlowWildcards`)
        accumulates the mask of every field actually examined: all
        stages through the one that proved the miss, or every field on
        a full probe.  Nothing past the miss stage is unwildcarded —
        that is what keeps megaflow masks minimal.
        """
        fields = self.fields
        values: List[Tuple[str, int]] = []
        consumed = 0
        for end, prefixes in zip(self._stage_ends, self._stage_prefixes):
            for name, mask in fields[consumed:end]:
                wc.add(name, mask)
                values.append((name, getattr(key, name) & mask))
            consumed = end
            if tuple(values) not in prefixes:
                return None
        for name, mask in fields[consumed:]:
            wc.add(name, mask)
            values.append((name, getattr(key, name) & mask))
        return tuple(values)

    def index_stages(self, values: MaskedValues) -> None:
        for end, prefixes in zip(self._stage_ends, self._stage_prefixes):
            prefix = values[:end]
            prefixes[prefix] = prefixes.get(prefix, 0) + 1

    def unindex_stages(self, values: MaskedValues) -> None:
        for end, prefixes in zip(self._stage_ends, self._stage_prefixes):
            prefix = values[:end]
            count = prefixes.get(prefix, 0) - 1
            if count <= 0:
                prefixes.pop(prefix, None)
            else:
                prefixes[prefix] = count

    def mask_entry(self, entry: FlowEntry) -> MaskedValues:
        return tuple(
            (name, entry.match.get(name)[0]) for name, _mask in self.fields
        )

    def recompute_max_priority(self) -> None:
        self.max_priority = max(
            (entry.priority for bucket in self.buckets.values()
             for entry in bucket),
            default=0,
        )

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())


def signature_of(entry: FlowEntry) -> MaskSignature:
    """The mask signature of a rule — the subtable it lives in."""
    return frozenset(
        (name, mask) for name, (_value, mask) in entry.match.fields.items()
    )


class TupleSpaceClassifier:
    """The dpcls: subtable-per-mask lookup structure."""

    #: Lookups between ranking-hit decays.  Without decay the ``hits``
    #: rank input grows without bound and the probe order stays frozen
    #: by historical traffic; halving on an interval keeps the ranking
    #: adaptive while preserving the current relative order.
    RANK_DECAY_INTERVAL = 4096

    def __init__(self, table: Optional[FlowTable] = None) -> None:
        self._subtables: Dict[MaskSignature, _Subtable] = {}
        # Subtables in probe order; rebuilt lazily when the set of
        # subtables (or a max_priority) changes.
        self._ranked: List[_Subtable] = []
        self._rank_dirty = False
        self.lookups = 0
        self.subtables_probed = 0
        self.rank_decays = 0
        if table is not None:
            self.bind(table)

    def bind(self, table: FlowTable) -> None:
        """Populate from ``table`` and track its future changes."""
        for entry in table.entries():
            self.add_entry(entry)
        table.add_listener(self._on_table_change)

    def _on_table_change(self, kind: str, entry: FlowEntry) -> None:
        if kind == "added":
            self.add_entry(entry)
        elif kind == "removed":
            self.remove_entry(entry)
        # "modified" only rewrites actions; the index is match-keyed.

    # -- maintenance -------------------------------------------------------

    def add_entry(self, entry: FlowEntry) -> None:
        signature = signature_of(entry)
        subtable = self._subtables.get(signature)
        if subtable is None:
            subtable = _Subtable(signature)
            self._subtables[signature] = subtable
            self._rank_dirty = True
        values = subtable.mask_entry(entry)
        subtable.buckets.setdefault(values, []).append(entry)
        subtable.index_stages(values)
        if entry.priority > subtable.max_priority:
            subtable.max_priority = entry.priority
            self._rank_dirty = True

    def remove_entry(self, entry: FlowEntry) -> None:
        signature = signature_of(entry)
        subtable = self._subtables.get(signature)
        if subtable is None:
            return
        values = subtable.mask_entry(entry)
        bucket = subtable.buckets.get(values)
        if bucket is None or entry not in bucket:
            return
        bucket.remove(entry)
        subtable.unindex_stages(values)
        if not bucket:
            del subtable.buckets[values]
        if not subtable.buckets:
            del self._subtables[signature]
            self._rank_dirty = True
        elif entry.priority >= subtable.max_priority:
            subtable.recompute_max_priority()
            self._rank_dirty = True

    def _ranked_subtables(self) -> List[_Subtable]:
        if self._rank_dirty:
            self._ranked = sorted(
                self._subtables.values(),
                key=lambda s: (-s.max_priority, -s.hits),
            )
            self._rank_dirty = False
        return self._ranked

    # -- lookup ------------------------------------------------------------------

    @staticmethod
    def _better(entry: FlowEntry, best: Optional[FlowEntry]) -> bool:
        """OpenFlow winner order: priority, then FIFO (lower flow_id)."""
        return best is None or entry.priority > best.priority or (
            entry.priority == best.priority and entry.flow_id < best.flow_id
        )

    def _account_lookup(self) -> None:
        self.lookups += 1
        if self.lookups % self.RANK_DECAY_INTERVAL == 0:
            self.decay_hits()

    def decay_hits(self) -> None:
        """Halve every subtable's ranking-hit counter (rank adapts to
        recent traffic instead of being frozen by history)."""
        for subtable in self._subtables.values():
            subtable.hits >>= 1
        self._rank_dirty = True
        self.rank_decays += 1

    def _probe(self, subtable: _Subtable, key: FlowKey,
               best: Optional[FlowEntry],
               wc=None) -> Optional[FlowEntry]:
        self.subtables_probed += 1
        if wc is None:
            masked = subtable.mask_key(key)
        else:
            # Staged probe: unwildcards exactly the fields examined;
            # None means a stage prefix proved the miss early.
            masked = subtable.masked_key_staged(key, wc)
            if masked is None:
                return best
        bucket = subtable.buckets.get(masked)
        if not bucket:
            return best
        subtable.hits += 1
        for entry in bucket:
            if self._better(entry, best):
                best = entry
        return best

    def lookup(self, key: FlowKey, wc=None) -> Optional[FlowEntry]:
        """Highest-priority matching entry (FIFO tie-break), or None.

        Matches :meth:`FlowTable.lookup` exactly, including the
        insertion-order tie-break encoded in ``FlowEntry.flow_id``.
        Subtables are visited best-first, so the scan stops as soon as
        no remaining subtable can outrank the current winner (ties are
        still probed: FIFO order must be honoured across subtables).

        When ``wc`` (a :class:`~repro.vswitch.megaflow.FlowWildcards`)
        is given, every probe unwildcards the bits it examined.  The
        early-exit break and the probe order examine *no* packet bits
        (they depend only on priorities and ranking state), so the
        accumulated mask covers the whole decision: any key equal under
        the mask reproduces this traversal exactly.
        """
        self._account_lookup()
        best: Optional[FlowEntry] = None
        for subtable in self._ranked_subtables():
            if best is not None and subtable.max_priority < best.priority:
                break  # ranked descending: nothing later can win
            best = self._probe(subtable, key, best, wc)
        return best

    def lookup_hinted(
        self, key: FlowKey, signature: MaskSignature, wc=None
    ) -> Tuple[Optional[FlowEntry], bool]:
        """Lookup with an SMC hint: probe the hinted subtable first.

        Returns ``(best, confirmed)`` where ``confirmed`` is True when
        the winner came from the hinted subtable — the hint saved the
        full scan.  The hint is never trusted blindly: every subtable
        whose ``max_priority`` could outrank the hinted candidate is
        verified, so the result is always identical to :meth:`lookup`.
        """
        hinted = self._subtables.get(signature)
        if hinted is None:
            return self.lookup(key, wc), False
        self._account_lookup()
        best = self._probe(hinted, key, None, wc)
        confirmed = best is not None
        for subtable in self._ranked_subtables():
            if best is not None and subtable.max_priority < best.priority:
                break
            if subtable is hinted:
                continue
            candidate = self._probe(subtable, key, best, wc)
            if candidate is not best:
                best = candidate
                confirmed = False
        return best, confirmed

    @property
    def subtable_count(self) -> int:
        return len(self._subtables)

    def ranking(self) -> List[Tuple[str, int, int, int]]:
        """``(signature, rules, max_priority, hits)`` rows in probe
        order — the ``repro_classifier_subtable_*`` samples of the sort."""
        rows = []
        for subtable in self._ranked_subtables():
            fields = ",".join(name for name, _mask in subtable.fields)
            rows.append((fields or "<wildcard>", len(subtable),
                         subtable.max_priority, subtable.hits))
        return rows

    def __len__(self) -> int:
        return sum(len(subtable) for subtable in self._subtables.values())
