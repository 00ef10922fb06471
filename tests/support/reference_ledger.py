"""The bucket ownership ledger, kept as the oracle the tag-only
``Mempool`` ledger is checked against.

Until the ledger became the ``mbuf.holder`` tag alone, the pool kept
``holder token -> {id(mbuf): mbuf}`` buckets and paid for them on every
move.  ``ReferenceLedgerMempool`` is a real pool that *also* keeps
those buckets, with the bookkeeping as it stood (its own ``_where`` map
standing in for the tag, which the pool under test now owns), so both
ledgers see the same descriptors in the same order.  ``reference_*``
answer from the buckets; ``reclaim`` predicts the sweep's report from
its bucket before the real sweep runs and appends ``(predicted,
actual)`` to ``sweeps``.
"""

from typing import Dict, List, Tuple

from repro.mem.mempool import Mempool, ReclaimReport
from repro.packet.mbuf import Mbuf


class ReferenceLedgerMempool(Mempool):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._holders: Dict[str, Dict[int, Mbuf]] = {}
        self._where: Dict[int, str] = {}
        self.sweeps: List[Tuple[ReclaimReport, ReclaimReport]] = []

    def put(self, mbuf: Mbuf) -> None:
        super().put(mbuf)   # raises before the ledger is touched
        if id(mbuf) in self._where:
            self._drop_from_ledger(mbuf)

    def free_burst(self, mbufs) -> None:
        try:
            super().free_burst(mbufs)
        finally:
            # What the burst loop sent home never went through put().
            for mbuf in mbufs:
                if mbuf.in_pool and id(mbuf) in self._where:
                    self._drop_from_ledger(mbuf)

    def assign(self, mbuf: Mbuf, holder: str) -> None:
        super().assign(mbuf, holder)
        self._move(mbuf, holder)

    def assign_burst(self, objs, holder: str) -> None:
        super().assign_burst(objs, holder)   # foreign ones reach assign()
        for obj in objs:
            if getattr(obj, "pool", None) is self:
                self._move(obj, holder)

    def _move(self, mbuf: Mbuf, holder: str) -> None:
        current = self._where.get(id(mbuf))
        if current == holder:
            return
        if current is not None:
            bucket = self._holders.get(current)
            if bucket is not None:
                bucket.pop(id(mbuf), None)
        self._holders.setdefault(holder, {})[id(mbuf)] = mbuf
        self._where[id(mbuf)] = holder

    def _drop_from_ledger(self, mbuf: Mbuf) -> None:
        bucket = self._holders.get(self._where.pop(id(mbuf)))
        if bucket is not None:
            bucket.pop(id(mbuf), None)

    def reference_holders(self) -> Dict[str, int]:
        return {
            token: len(bucket)
            for token, bucket in self._holders.items() if bucket
        }

    def reference_held_by(self, owner: str) -> int:
        bucket = self._holders.get(owner)
        return len(bucket) if bucket else 0

    def reclaim(self, owner: str) -> ReclaimReport:
        predicted = ReclaimReport(owner=owner)
        bucket = self._holders.pop(owner, None) or {}
        predicted.leaked = len(bucket)
        for mbuf in bucket.values():
            del self._where[id(mbuf)]
            if mbuf.in_pool:
                predicted.double_free_detected += 1
            elif mbuf.refcnt > 1:
                predicted.unreclaimable += 1
            else:
                predicted.reclaimed += 1
        report = super().reclaim(owner)
        self.sweeps.append((predicted, report))
        return report
