"""A ``rte_ring``-style fixed-capacity FIFO.

The DPDK ring is the transport under both the *normal* channel (VM ↔
vSwitch) and the *bypass* channel (VM ↔ VM) of a dpdkr port.  We keep the
semantics that the architecture depends on:

* fixed power-of-two capacity, usable slots = capacity - 1 (like DPDK);
* bulk enqueue/dequeue (all-or-nothing) and burst (as-many-as-fit);
* single- vs multi-producer/consumer modes — in this cooperative
  simulation they only toggle bookkeeping/assertion behaviour, but the
  mode is recorded because misconfiguring it is a real deployment bug the
  tests exercise;
* watermark signalling (enqueue reports when occupancy exceeds it).

The implementation is a preallocated slot array with head/tail indices —
deliberately not ``collections.deque`` — so occupancy arithmetic matches
the C layout and stays O(1).
"""

import enum
from typing import Any, List, Optional, Sequence

from repro.faults import RING_CORRUPT, FaultMode
from repro.mem.mempool import charge


class RingError(RuntimeError):
    """Base class for ring errors."""


class RingFullError(RingError):
    """Bulk enqueue failed: not enough free slots."""


class RingEmptyError(RingError):
    """Bulk dequeue failed: not enough queued objects."""


class RingIntegrityError(RingError):
    """:meth:`Ring.validate` found the ring in an impossible state."""


class RingMode(enum.Enum):
    """Producer/consumer concurrency contract."""

    SP_SC = "sp_sc"  # single producer, single consumer (dpdkr default)
    MP_MC = "mp_mc"
    SP_MC = "sp_mc"
    MP_SC = "mp_sc"


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class Ring:
    """Fixed-capacity FIFO with DPDK-style bulk/burst operations."""

    def __init__(
        self,
        name: str,
        capacity: int = 1024,
        mode: RingMode = RingMode.SP_SC,
        watermark: Optional[int] = None,
    ) -> None:
        if not _is_power_of_two(capacity):
            raise ValueError(
                "ring capacity must be a power of two, got %d" % capacity
            )
        if watermark is not None and not 0 < watermark < capacity:
            raise ValueError("watermark must be in (0, capacity)")
        self.name = name
        self.capacity = capacity
        self.mode = mode
        self.watermark = watermark
        self._mask = capacity - 1
        self._slots: List[Any] = [None] * capacity
        self._head = 0  # next slot to write (producer index)
        self._tail = 0  # next slot to read (consumer index)
        # Generation tag: stamped by whoever provisions the ring (the
        # bypass manager uses the zone serial) and checked by the
        # watchdog, so a validator holding a stale handle can tell "this
        # memory was re-provisioned" apart from "this memory rotted".
        self.generation = 0
        # Lifetime statistics; the PMD exports these per channel.
        self.enqueued = 0
        self.dequeued = 0
        self.enqueue_failures = 0   # burst/bulk enqueues where nothing fit
        self.partial_enqueues = 0   # burst enqueues that fit only a prefix
        self.dequeue_failures = 0
        # Armed by the owner for ring.corrupt injection (None = clean).
        self.faults = None
        self.corruptions_injected = 0
        # Ownership-ledger token (``"ring:<name>"``): when set, every
        # successful enqueue charges the mbufs to this ring in their
        # pool's ledger, so a crashed consumer's backlog can be
        # reclaimed.  None (the default) keeps the hot path free of
        # ledger work for untracked rings.
        self.holder_token: Optional[str] = None
        # One-slot consumer waiter: a parked poll loop whose ``wake()``
        # the next successful enqueue calls (see :meth:`watch`).
        self.waiter = None

    # -- the consumer waiter ------------------------------------------------

    def watch(self, waiter) -> None:
        """Call ``waiter.wake()`` once, at the next successful enqueue.

        The slot holds one waiter (a ring has one polling consumer); a
        different waiter found in it is woken rather than dropped, which
        is always safe — a woken loop just polls.
        """
        prior = self.waiter
        if prior is not None and prior is not waiter:
            prior.wake()
        self.waiter = waiter

    def _wake_waiter(self) -> None:
        waiter, self.waiter = self.waiter, None
        waiter.wake()

    # -- occupancy ---------------------------------------------------------

    def __len__(self) -> int:
        return (self._head - self._tail) & self._mask

    @property
    def free_count(self) -> int:
        """Free slots (capacity - 1 usable, like rte_ring)."""
        return self.capacity - 1 - len(self)

    @property
    def is_empty(self) -> bool:
        return self._head == self._tail

    @property
    def is_full(self) -> bool:
        return self.free_count == 0

    @property
    def above_watermark(self) -> bool:
        return self.watermark is not None and len(self) >= self.watermark

    # -- single-object convenience ------------------------------------------

    def enqueue(self, obj: Any) -> None:
        """Enqueue one object; raises :class:`RingFullError` when full."""
        if self.free_count < 1:
            self.enqueue_failures += 1
            raise RingFullError("ring %r full" % self.name)
        self._slots[self._head & self._mask] = obj
        self._head = (self._head + 1) & self._mask
        self.enqueued += 1
        if self.holder_token is not None:
            charge((obj,), self.holder_token)
        if self.waiter is not None:
            self._wake_waiter()

    def dequeue(self) -> Any:
        """Dequeue one object; raises :class:`RingEmptyError` when empty."""
        if self.is_empty:
            self.dequeue_failures += 1
            raise RingEmptyError("ring %r empty" % self.name)
        obj = self._slots[self._tail & self._mask]
        self._slots[self._tail & self._mask] = None
        self._tail = (self._tail + 1) & self._mask
        self.dequeued += 1
        return obj

    # -- bulk: all-or-nothing ------------------------------------------------

    def enqueue_bulk(self, objs: Sequence[Any]) -> None:
        """Enqueue all of ``objs`` or none (raises RingFullError)."""
        count = len(objs)
        if self.free_count < count:
            self.enqueue_failures += 1
            raise RingFullError(
                "ring %r: need %d slots, have %d"
                % (self.name, count, self.free_count)
            )
        self._store(self._head, objs, count)
        self._head = (self._head + count) & self._mask
        self.enqueued += count
        if self.holder_token is not None:
            charge(objs, self.holder_token)
        if count and self.waiter is not None:
            self._wake_waiter()

    def dequeue_bulk(self, count: int) -> List[Any]:
        """Dequeue exactly ``count`` objects or none (raises RingEmptyError)."""
        if len(self) < count:
            self.dequeue_failures += 1
            raise RingEmptyError(
                "ring %r: need %d objects, have %d"
                % (self.name, count, len(self))
            )
        return self._take(count)

    # -- burst: best effort ----------------------------------------------------

    def enqueue_room(self, offered: int) -> int:
        """How many of ``offered`` objects :meth:`enqueue_burst` would
        take now (``rte_ring_free_count``, capped), counting the refusal
        as that call would: a producer that asks first and then offers
        only what fits leaves ``enqueue_failures`` and
        ``partial_enqueues`` where offering everything would have.
        """
        mask = self._mask
        room = mask - ((self._head - self._tail) & mask)
        if room >= offered:
            return offered
        if room:
            self.partial_enqueues += 1
        else:
            self.enqueue_failures += 1
        return room

    def enqueue_burst(self, objs: Sequence[Any]) -> int:
        """Enqueue as many of ``objs`` as fit; returns the number enqueued.

        Failure accounting distinguishes total rejection
        (``enqueue_failures``: the consumer is not draining at all) from
        a partial fit (``partial_enqueues``: transient backpressure) —
        the watchdog treats only the former as a stall symptom.
        """
        offered = len(objs)
        head = self._head
        mask = self._mask
        count = mask - ((head - self._tail) & mask)   # free_count
        if count > offered:
            count = offered
        if count == 0:
            if offered:
                self.enqueue_failures += 1
            return 0
        if count < offered:
            objs = objs[:count]
            self.partial_enqueues += 1
        if count == 1:
            self._slots[head] = objs[0]
        else:
            self._store(head, objs, count)
        self._head = (head + count) & mask
        self.enqueued += count
        if self.holder_token is not None:
            charge(objs, self.holder_token)
        waiter = self.waiter
        if waiter is not None:   # _wake_waiter(), on the per-packet path
            self.waiter = None
            waiter.wake()
        faults = self.faults
        if faults is not None and faults.has_specs(RING_CORRUPT):
            action = faults.fire(RING_CORRUPT)
            if action is not None:
                self._corrupt(action)
        return count

    def _store(self, head: int, objs: Sequence[Any], count: int) -> None:
        """Copy ``count`` objects into the slots from ``head`` on, by
        slices (two when the run wraps)."""
        slots = self._slots
        room = self.capacity - head
        if count <= room:
            slots[head:head + count] = objs
        else:
            slots[head:] = objs[:room]
            slots[:count - room] = objs[room:]

    def _corrupt(self, action) -> None:
        """Apply one injected corruption (see ``faults.RING_CORRUPT``)."""
        if action.mode is FaultMode.CRASH:
            self.generation += 1
        elif not self.is_empty:
            self._slots[self._tail & self._mask] = None
        else:
            return
        self.corruptions_injected += 1

    def dequeue_burst(self, max_count: int) -> List[Any]:
        """Dequeue up to ``max_count`` objects (possibly empty list)."""
        tail = self._tail
        count = (self._head - tail) & self._mask
        if count > max_count:
            count = max_count
        if count <= 0:
            return []   # the common case on a polled ring
        if count > 1:
            return self._take(count)
        slots = self._slots
        obj = slots[tail]
        slots[tail] = None
        self._tail = (tail + 1) & self._mask
        self.dequeued += 1
        return [obj]

    def _take(self, count: int) -> List[Any]:
        """Copy ``count`` queued objects out by slices (two when the run
        wraps) and clear their slots."""
        tail = self._tail
        slots = self._slots
        room = self.capacity - tail
        if count <= room:
            out = slots[tail:tail + count]
            slots[tail:tail + count] = [None] * count
        else:
            out = slots[tail:] + slots[:count - room]
            slots[tail:] = [None] * room
            slots[:count - room] = [None] * (count - room)
        self._tail = (tail + count) & self._mask
        self.dequeued += count
        return out

    # -- maintenance -------------------------------------------------------------

    def drain(self) -> List[Any]:
        """Remove and return everything queued (used at bypass teardown)."""
        return self._take(len(self))

    def peek(self) -> Any:
        """Return the oldest object without removing it."""
        if self.is_empty:
            raise RingEmptyError("ring %r empty" % self.name)
        return self._slots[self._tail & self._mask]

    def validate(self, expected_generation: Optional[int] = None) -> None:
        """Check structural invariants; raise :class:`RingIntegrityError`.

        Verifies head/tail bounds, that occupancy agrees with the
        lifetime enqueue/dequeue counters, that every occupied slot
        holds a real object, and (when given) that the generation tag
        still matches what the validator was provisioned against.  Cost
        is O(occupancy); the watchdog runs it once per poll interval,
        not per packet.
        """
        if not 0 <= self._head < self.capacity:
            raise RingIntegrityError(
                "ring %r: head %d out of bounds" % (self.name, self._head)
            )
        if not 0 <= self._tail < self.capacity:
            raise RingIntegrityError(
                "ring %r: tail %d out of bounds" % (self.name, self._tail)
            )
        occupancy = len(self)
        flow = self.enqueued - self.dequeued
        if flow < 0 or flow > self.capacity - 1 or occupancy != flow:
            raise RingIntegrityError(
                "ring %r: occupancy %d disagrees with counters "
                "(enqueued %d - dequeued %d)"
                % (self.name, occupancy, self.enqueued, self.dequeued)
            )
        for offset in range(occupancy):
            if self._slots[(self._tail + offset) & self._mask] is None:
                raise RingIntegrityError(
                    "ring %r: occupied slot %d holds None"
                    % (self.name, (self._tail + offset) & self._mask)
                )
        if (expected_generation is not None
                and self.generation != expected_generation):
            raise RingIntegrityError(
                "ring %r: generation %d != expected %d"
                % (self.name, self.generation, expected_generation)
            )

    def __repr__(self) -> str:
        return "<Ring %r %d/%d %s>" % (
            self.name, len(self), self.capacity - 1, self.mode.value
        )
