"""An ``rte_mempool``-style mbuf allocator with bulk get/put.

Traffic generators allocate mbufs here and sinks free them; because the
pool is fixed-size, a leak anywhere in the data path shows up as
allocation failure — the same backpressure behaviour a real DPDK
deployment has, and one of the invariants the property tests check
(every experiment must end with all mbufs back in the pool).

The pool also keeps an **ownership ledger**: each in-flight mbuf can be
tagged with its current *holder* — a ring (``"ring:<name>"``) or a VM
(``"vm:<name>"``) — updated as the buffer moves through the data path.
The ledger *is* that tag (``mbuf.holder``): a move is one attribute
store, and the queries (:meth:`holders`, :meth:`held_by`,
:meth:`reclaim` — scrape and crash frequency) scan the descriptors ever
lent, O(high-water).  When a holder dies abruptly (a crashed VNF),
:meth:`reclaim` sweeps its buffers back, so a crash costs latency
instead of permanently shrinking forwarding capacity.  Per-mbuf
``in_pool`` state doubles as an immediate double-free detector: the old
aggregate "over-freed" guard only fired once the pool was *full*,
silently letting a specific mbuf sit in the free list twice while
others were in flight.

Like ``rte_mempool``, the pool reserves its ``size`` up front, but it
builds each descriptor the first time an allocation needs it: a pool
that never has more than a few mbufs in flight never builds more than
a few.  The descriptors not yet built (*unborn*) are free, untagged and
counted everywhere a free one is — ``available``, ``in_use``, the
over-free guards — so exhaustion, back-pressure and leak detection read
exactly as for a pool built whole.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.packet.mbuf import Mbuf


class MempoolEmptyError(RuntimeError):
    """Raised when the pool cannot satisfy an allocation."""


class MempoolDoubleFreeError(RuntimeError):
    """Raised when an mbuf already in the free list is put() again."""


@dataclass
class ReclaimReport:
    """Outcome of one :meth:`Mempool.reclaim` sweep.

    ``leaked`` is the number of mbufs the dead holder was charged with
    at sweep start; every one of them is either returned to the pool
    (``reclaimed``), found to already be in the free list — ledger vs.
    in_pool inconsistency, i.e. a double free (``double_free_detected``)
    — or still referenced elsewhere and therefore unreclaimable
    (``unreclaimable``; counted into the pool's ``leaked_permanent``).
    """

    owner: str
    leaked: int = 0
    reclaimed: int = 0
    double_free_detected: int = 0
    unreclaimable: int = 0


class Mempool:
    """Fixed-size pool of recycled :class:`Mbuf` descriptors."""

    def __init__(self, name: str, size: int = 4096) -> None:
        if size <= 0:
            raise ValueError("mempool size must be positive")
        self.name = name
        self.size = size
        self._free: List[Mbuf] = []
        # Descriptors reserved but not yet built: free and untagged.
        self._unborn = size
        # Every descriptor ever lent, in or out: what the ledger
        # queries scan.  Newest batch first, the order a pool built
        # whole keeps: a sweep returns buffers to the free list, and so
        # to the next borrower, in that order.
        self._mbufs: List[Mbuf] = []
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
        """Mbufs currently free in the pool, built or not."""
        return len(self._free) + self._unborn

    @property
    def in_use(self) -> int:
        return self.size - self.available

    def _build(self, count: int) -> List[Mbuf]:
        """``count`` new descriptors, lent: a new :class:`Mbuf` is in
        its alloc-time state and out of the pool already."""
        self._unborn -= count
        out = [Mbuf(self) for _ in range(count)]
        self._mbufs[:0] = out
        return out

    def get(self) -> Mbuf:
        """Allocate one mbuf; raises :class:`MempoolEmptyError` when dry."""
        if self._free:
            mbuf = self._free.pop()
            mbuf.reset()
            mbuf.in_pool = False
        elif self._unborn:
            mbuf = self._build(1)[0]
        else:
            self.alloc_failures += 1
            raise MempoolEmptyError("mempool %r exhausted" % self.name)
        self.alloc_count += 1
        return mbuf

    def get_bulk(self, count: int) -> List[Mbuf]:
        """Allocate exactly ``count`` mbufs or none: the most recently
        freed ones, and only what the free list lacks built new, at the
        head of the burst."""
        if count <= 0:
            # ``self._free[-0:]`` is the whole free list, not none of it.
            if count < 0:
                raise ValueError("cannot allocate %d mbufs" % count)
            return []
        free = self._free
        short = count - len(free)
        if short <= 0:
            out = reused = free[-count:]
            del free[-count:]
        elif short > self._unborn:
            self.alloc_failures += 1
            raise MempoolEmptyError(
                "mempool %r: need %d mbufs, have %d"
                % (self.name, count, self.available)
            )
        else:
            reused = free[:]
            del free[:]
            out = self._build(short) + reused
        for mbuf in reused:
            # Mbuf.reset(), without the call per descriptor.
            mbuf.packet = None
            mbuf.wire_length = 0
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
        if not self._free and not self._unborn:
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
        if len(self._free) + self._unborn >= self.size:
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
        room = self.size - len(free) - self._unborn
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
            self.name, self.available, self.size
        )


def charge(objs: Sequence[Any], holder: str) -> None:
    """Tag a burst as held by ``holder``: one
    :meth:`Mempool.assign_burst`, on the pool of the first descriptor
    that has one — the head of the burst, and every descriptor's pool,
    on a chain fed by one source.  Objects without a pool ahead of it
    are passed over at no call each.  The per-packet paths (ring
    enqueue, guest PMD rx) call ``assign_burst`` on the head's pool
    directly and come here only for a head without one.
    """
    passed = 0
    for obj in objs:
        try:
            pool = obj.pool
        except AttributeError:
            pool = None   # a ring carries any object; only mbufs have pools
        if pool is not None:
            pool.assign_burst(objs[passed:] if passed else objs, holder)
            return
        passed += 1
