"""The eager mempool, kept as the oracle the lazy ``Mempool`` is
checked against.

Until the pool built each descriptor on its first allocation,
``Mempool.__init__`` built all ``size`` of them up front, kept them in
a fixed tuple for the ledger queries to scan, and every counter read
straight off the free list.  ``Mempool`` below is that class as it
stood, verbatim; it raises the production exception types and returns
the production ``ReclaimReport``, so a differential compares both pools
down to the exception type and message
(``tests/test_property_mempool.py``).
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.mem.mempool import (
    MempoolDoubleFreeError,
    MempoolEmptyError,
    ReclaimReport,
)
from repro.packet.mbuf import Mbuf


class Mempool:
    """Fixed-size pool of recycled :class:`Mbuf` descriptors."""

    def __init__(self, name: str, size: int = 4096) -> None:
        if size <= 0:
            raise ValueError("mempool size must be positive")
        self.name = name
        self.size = size
        self._free: List[Mbuf] = [Mbuf(pool=self) for _ in range(size)]
        for mbuf in self._free:
            mbuf.in_pool = True
        # Every descriptor the pool owns, in or out: what the ledger
        # queries scan.
        self._mbufs: Tuple[Mbuf, ...] = tuple(self._free)
        self.alloc_count = 0
        self.free_count_total = 0
        self.alloc_failures = 0
        self.double_free_detected = 0
        self.reclaim_sweeps = 0
        self.reclaimed_total = 0
        self.leaked_found_total = 0
        self.leaked_permanent = 0

    @property
    def available(self) -> int:
        """Mbufs currently free in the pool."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        return self.size - len(self._free)

    def get(self) -> Mbuf:
        """Allocate one mbuf; raises :class:`MempoolEmptyError` when dry."""
        if not self._free:
            self.alloc_failures += 1
            raise MempoolEmptyError("mempool %r exhausted" % self.name)
        mbuf = self._free.pop()
        mbuf.reset()
        mbuf.in_pool = False
        self.alloc_count += 1
        return mbuf

    def get_bulk(self, count: int) -> List[Mbuf]:
        """Allocate exactly ``count`` mbufs or none."""
        if count <= 0:
            # ``self._free[-0:]`` is the whole free list, not none of it.
            if count < 0:
                raise ValueError("cannot allocate %d mbufs" % count)
            return []
        if len(self._free) < count:
            self.alloc_failures += 1
            raise MempoolEmptyError(
                "mempool %r: need %d mbufs, have %d"
                % (self.name, count, len(self._free))
            )
        out = self._free[-count:]
        del self._free[-count:]
        for mbuf in out:
            # Mbuf.reset(), without the call per descriptor.
            mbuf.packet = None
            mbuf.wire_length = 0
            mbuf.port = -1
            mbuf.seq = -1
            mbuf.ts_injected = -1.0
            mbuf.refcnt = 1
            mbuf.userdata = None
            mbuf.trace = None
            mbuf.in_pool = False
        self.alloc_count += count
        return out

    def try_get(self) -> Optional[Mbuf]:
        """Allocate one mbuf, or return None instead of raising."""
        if not self._free:
            self.alloc_failures += 1
            return None
        return self.get()

    def put(self, mbuf: Mbuf) -> None:
        """Return an mbuf to the pool (called by :meth:`Mbuf.free`)."""
        if mbuf.pool is not self:
            raise ValueError(
                "mbuf belongs to pool %r, not %r"
                % (getattr(mbuf.pool, "name", None), self.name)
            )
        if mbuf.in_pool:
            self.double_free_detected += 1
            raise MempoolDoubleFreeError(
                "mempool %r: mbuf freed twice (already in pool)"
                % self.name
            )
        if len(self._free) >= self.size:
            # Backstop: a foreign descriptor smuggled in (can't happen
            # through put()'s pool check, but keep the aggregate guard).
            raise RuntimeError("mempool %r over-freed" % self.name)
        mbuf.holder = None
        mbuf.in_pool = True
        self._free.append(mbuf)
        self.free_count_total += 1

    def free_burst(self, mbufs: List[Mbuf]) -> None:
        """``mbuf.free()`` for each of ``mbufs``, in order, at one call
        for the burst (``rte_pktmbuf_free_bulk``).

        The loop takes the leading run of mbufs a free has nothing to
        check on — this pool's, one reference, not in the free list —
        and returns it with one ``extend``; from the first mbuf that is
        anything else (retained, foreign or pool-less, already freed)
        the rest go through :meth:`Mbuf.free` one by one, which routes
        or raises exactly as it always did, after the run before it is
        home and counted.
        """
        free = self._free
        room = self.size - len(free)
        plain = 0
        rest = ()
        for mbuf in mbufs:
            if (mbuf.refcnt != 1 or mbuf.pool is not self or mbuf.in_pool
                    or plain >= room):
                rest = mbufs[plain:]
                mbufs = mbufs[:plain]
                break
            mbuf.refcnt = 0
            mbuf.holder = None
            mbuf.in_pool = True
            plain += 1
        free.extend(mbufs)
        self.free_count_total += plain
        for mbuf in rest:
            mbuf.free()

    # -- ownership ledger ---------------------------------------------------

    def assign(self, mbuf: Mbuf, holder: str) -> None:
        """Tag ``mbuf`` as held by ``holder``.

        A buffer with no tokenized touchpoints simply never carries a
        tag.
        """
        mbuf.holder = holder

    def assign_burst(self, objs: Sequence[Any], holder: str) -> None:
        """:meth:`assign` for a burst led by one of this pool's
        descriptors: what ring enqueue and guest PMD rx call, once per
        burst, on the head's pool (:func:`charge` for any other burst).
        The one ledger hook of the data path: a subclass that keeps
        books of its own overrides it.  A descriptor of another pool
        goes to that pool's :meth:`assign`; an object without a pool
        carries no tag.
        """
        for obj in objs:
            try:
                pool = obj.pool
            except AttributeError:
                continue
            if pool is self:
                obj.holder = holder
            elif pool is not None:
                pool.assign(obj, holder)

    def holders(self) -> Dict[str, int]:
        """Holder token -> number of mbufs tagged with it."""
        counts: Dict[str, int] = {}
        for mbuf in self._mbufs:
            holder = mbuf.holder
            if holder is not None:
                counts[holder] = counts.get(holder, 0) + 1
        return counts

    def held_by(self, owner: str) -> int:
        """Number of mbufs the ledger charges to ``owner``."""
        return sum(1 for mbuf in self._mbufs if mbuf.holder == owner)

    def reclaim(self, owner: str) -> ReclaimReport:
        """Sweep a dead holder's buffers back into the pool.

        Invariant: ``leaked == reclaimed + double_free_detected +
        unreclaimable``.  Only call this once the holder is truly dead —
        a live holder's buffers would be recycled under it.
        """
        report = ReclaimReport(owner=owner)
        self.reclaim_sweeps += 1
        for mbuf in self._mbufs:
            if mbuf.holder != owner:
                continue
            mbuf.holder = None
            report.leaked += 1
            if mbuf.in_pool:
                # Ledger said "held by owner" but the descriptor is in
                # the free list: it was freed twice somewhere.
                report.double_free_detected += 1
                self.double_free_detected += 1
                continue
            if mbuf.refcnt > 1:
                # Someone else still holds a reference; forcing it back
                # would hand out an aliased buffer.  Permanent loss.
                report.unreclaimable += 1
                self.leaked_permanent += 1
                continue
            mbuf.refcnt = 0
            mbuf.in_pool = True
            self._free.append(mbuf)
            report.reclaimed += 1
            self.reclaimed_total += 1
            self.free_count_total += 1
        self.leaked_found_total += report.leaked
        return report

    def __repr__(self) -> str:
        return "<Mempool %r %d/%d free>" % (
            self.name, len(self._free), self.size
        )
