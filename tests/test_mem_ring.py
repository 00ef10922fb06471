"""Unit tests for the rte_ring-style FIFO."""

import pytest

from repro.mem.ring import (
    Ring,
    RingEmptyError,
    RingFullError,
)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Ring("r", capacity=100)

    def test_rejects_bad_watermark(self):
        with pytest.raises(ValueError):
            Ring("r", capacity=8, watermark=8)
        with pytest.raises(ValueError):
            Ring("r", capacity=8, watermark=0)

    def test_usable_capacity_is_minus_one(self):
        ring = Ring("r", capacity=8)
        assert ring.free_count == 7


class TestSingleOps:
    def test_fifo_order(self):
        ring = Ring("r", capacity=8)
        for value in range(5):
            ring.enqueue(value)
        assert [ring.dequeue() for _ in range(5)] == list(range(5))

    def test_full_raises_and_counts(self):
        ring = Ring("r", capacity=4)
        for value in range(3):
            ring.enqueue(value)
        assert ring.is_full
        with pytest.raises(RingFullError):
            ring.enqueue(99)
        assert ring.enqueue_failures == 1

    def test_empty_raises_and_counts(self):
        ring = Ring("r", capacity=4)
        with pytest.raises(RingEmptyError):
            ring.dequeue()
        assert ring.dequeue_failures == 1

    def test_wraparound(self):
        ring = Ring("r", capacity=4)
        for cycle in range(10):
            ring.enqueue(cycle)
            assert ring.dequeue() == cycle
        assert ring.is_empty
        assert ring.enqueued == 10 and ring.dequeued == 10

    def test_peek(self):
        ring = Ring("r", capacity=4)
        ring.enqueue("a")
        assert ring.peek() == "a"
        assert len(ring) == 1
        assert ring.dequeue() == "a"
        with pytest.raises(RingEmptyError):
            ring.peek()


class TestBulk:
    def test_bulk_all_or_nothing_enqueue(self):
        ring = Ring("r", capacity=8)
        ring.enqueue_bulk([1, 2, 3, 4, 5])
        with pytest.raises(RingFullError):
            ring.enqueue_bulk([6, 7, 8])  # only 2 slots free
        assert len(ring) == 5

    def test_bulk_all_or_nothing_dequeue(self):
        ring = Ring("r", capacity=8)
        ring.enqueue_bulk([1, 2])
        with pytest.raises(RingEmptyError):
            ring.dequeue_bulk(3)
        assert ring.dequeue_bulk(2) == [1, 2]

    def test_bulk_preserves_order(self):
        ring = Ring("r", capacity=16)
        ring.enqueue_bulk(list(range(10)))
        assert ring.dequeue_bulk(10) == list(range(10))


class TestBurst:
    def test_burst_partial_enqueue(self):
        ring = Ring("r", capacity=8)
        accepted = ring.enqueue_burst(list(range(10)))
        assert accepted == 7
        # A burst that fit *partially* is back-pressure, not an outright
        # failure — the two are accounted separately.
        assert ring.partial_enqueues == 1
        assert ring.enqueue_failures == 0
        assert ring.dequeue_burst(16) == list(range(7))

    def test_burst_empty_dequeue(self):
        ring = Ring("r", capacity=8)
        assert ring.dequeue_burst(4) == []

    def test_burst_zero_on_full(self):
        ring = Ring("r", capacity=4)
        ring.enqueue_burst([1, 2, 3])
        assert ring.enqueue_burst([4]) == 0
        assert ring.enqueue_failures == 1
        assert ring.partial_enqueues == 0

    def test_burst_enqueue_nothing(self):
        ring = Ring("r", capacity=4)
        assert ring.enqueue_burst([]) == 0
        assert ring.enqueue_failures == 0


class TestWatermark:
    def test_watermark_flag(self):
        ring = Ring("r", capacity=8, watermark=4)
        for value in range(3):
            ring.enqueue(value)
        assert not ring.above_watermark
        ring.enqueue(3)
        assert ring.above_watermark

    def test_no_watermark(self):
        ring = Ring("r", capacity=8)
        ring.enqueue_bulk(list(range(7)))
        assert not ring.above_watermark


class TestMaintenance:
    def test_drain(self):
        ring = Ring("r", capacity=8)
        ring.enqueue_bulk([1, 2, 3])
        assert ring.drain() == [1, 2, 3]
        assert ring.is_empty

    def test_slots_cleared_after_dequeue(self):
        # Ensures no lingering references keep mbufs alive (leak check).
        ring = Ring("r", capacity=4)
        ring.enqueue("x")
        ring.dequeue()
        assert all(slot is None for slot in ring._slots)


class TestIntegrity:
    def test_validate_clean_ring(self):
        ring = Ring("r", capacity=8)
        ring.enqueue_bulk([1, 2, 3])
        ring.dequeue()
        ring.validate()  # no exception
        ring.validate(expected_generation=0)

    def test_validate_catches_smashed_slot(self):
        from repro.mem.ring import RingIntegrityError

        ring = Ring("r", capacity=8)
        ring.enqueue_bulk([1, 2, 3])
        ring._slots[ring.tail & ring._mask] = None  # bit-rot the head
        with pytest.raises(RingIntegrityError):
            ring.validate()

    def test_validate_catches_counter_drift(self):
        from repro.mem.ring import RingIntegrityError

        ring = Ring("r", capacity=8)
        ring.enqueue_bulk([1, 2])
        ring.enqueued += 5  # occupancy no longer matches the counters
        with pytest.raises(RingIntegrityError):
            ring.validate()

    def test_validate_catches_generation_mismatch(self):
        from repro.mem.ring import RingIntegrityError

        ring = Ring("r", capacity=8)
        ring.generation = 3
        ring.validate(expected_generation=3)
        ring.generation = 4  # memory was re-provisioned under us
        with pytest.raises(RingIntegrityError):
            ring.validate(expected_generation=3)

    def test_corruption_fault_smashes_oldest_slot(self):
        from repro.faults import RING_CORRUPT, FaultMode, FaultPlan
        from repro.mem.ring import RingIntegrityError

        ring = Ring("r", capacity=8)
        ring.faults = FaultPlan(seed=1, specs=[])
        ring.faults.inject(RING_CORRUPT, FaultMode.ERROR, occurrences=(2,))
        assert ring.enqueue_burst([1]) == 1
        ring.validate()  # occurrence 1: clean
        assert ring.enqueue_burst([2]) == 1
        assert ring.corruptions_injected == 1
        with pytest.raises(RingIntegrityError):
            ring.validate()

    def test_crash_mode_bumps_generation(self):
        from repro.faults import RING_CORRUPT, FaultMode, FaultPlan
        from repro.mem.ring import RingIntegrityError

        ring = Ring("r", capacity=8)
        ring.generation = 7
        ring.faults = FaultPlan(seed=1, specs=[])
        ring.faults.inject(RING_CORRUPT, FaultMode.CRASH, occurrences=(1,))
        ring.enqueue_burst([1])
        assert ring.generation == 8
        ring.validate()  # structurally fine...
        with pytest.raises(RingIntegrityError):
            ring.validate(expected_generation=7)  # ...but re-provisioned
