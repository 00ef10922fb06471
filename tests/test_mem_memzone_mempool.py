"""Unit tests for memzones and mempools."""

import pytest

from repro.mem import (
    Mempool,
    MempoolEmptyError,
    MemzoneError,
    MemzoneRegistry,
)
from repro.packet.mbuf import Mbuf


class TestMemzoneRegistry:
    def test_reserve_and_lookup(self):
        registry = MemzoneRegistry()
        zone = registry.reserve("dpdkr0", size=4096, owner="ovs")
        assert registry.lookup("dpdkr0") is zone
        assert "dpdkr0" in registry
        assert len(registry) == 1

    def test_duplicate_reserve_raises(self):
        registry = MemzoneRegistry()
        registry.reserve("z")
        with pytest.raises(MemzoneError):
            registry.reserve("z")

    def test_lookup_missing_raises(self):
        with pytest.raises(MemzoneError):
            MemzoneRegistry().lookup("nope")

    def test_map_unmap_visibility(self):
        registry = MemzoneRegistry()
        registry.reserve("bypass0")
        registry.map_into("bypass0", "vm1")
        registry.map_into("bypass0", "vm2")
        visible = registry.zones_visible_to("vm1")
        assert [zone.name for zone in visible] == ["bypass0"]
        registry.unmap_from("bypass0", "vm1")
        assert registry.zones_visible_to("vm1") == []
        assert registry.zones_visible_to("vm2") != []

    def test_double_map_raises(self):
        registry = MemzoneRegistry()
        registry.reserve("z")
        registry.map_into("z", "vm1")
        with pytest.raises(MemzoneError):
            registry.map_into("z", "vm1")

    def test_unmap_not_mapped_raises(self):
        registry = MemzoneRegistry()
        registry.reserve("z")
        with pytest.raises(MemzoneError):
            registry.unmap_from("z", "vm1")

    def test_free_refuses_while_mapped(self):
        registry = MemzoneRegistry()
        registry.reserve("z")
        registry.map_into("z", "vm1")
        with pytest.raises(MemzoneError):
            registry.free("z")
        registry.unmap_from("z", "vm1")
        registry.free("z")
        assert "z" not in registry

    def test_zone_object_store(self):
        registry = MemzoneRegistry()
        zone = registry.reserve("z")
        zone.put("ring", object())
        assert "ring" in zone
        with pytest.raises(MemzoneError):
            zone.put("ring", object())
        with pytest.raises(MemzoneError):
            zone.get("other")


class TestMempool:
    def test_get_put_cycle(self):
        pool = Mempool("p", size=4)
        mbuf = pool.get()
        assert pool.available == 3
        mbuf.free()
        assert pool.available == 4

    def test_exhaustion(self):
        pool = Mempool("p", size=2)
        first = pool.get()
        pool.get()
        with pytest.raises(MempoolEmptyError):
            pool.get()
        assert pool.alloc_failures == 1
        assert pool.try_get() is None
        first.free()
        assert pool.try_get() is not None

    def test_get_bulk_all_or_nothing(self):
        pool = Mempool("p", size=4)
        got = pool.get_bulk(3)
        assert len(got) == 3
        with pytest.raises(MempoolEmptyError):
            pool.get_bulk(2)
        assert pool.available == 1

    def test_get_bulk_of_nothing_takes_nothing(self):
        # ``free[-0:]`` is the whole free list: get_bulk(0) used to hand
        # out every mbuf of the pool without counting one allocation.
        pool = Mempool("p", size=8)
        assert pool.get_bulk(0) == []
        assert pool.available == 8
        assert pool.alloc_count == 0

    def test_get_bulk_rejects_a_negative_count(self):
        pool = Mempool("p", size=8)
        with pytest.raises(ValueError):
            pool.get_bulk(-2)
        assert pool.available == 8
        assert pool.alloc_count == 0
        assert pool.alloc_failures == 0

    def test_put_foreign_mbuf_raises(self):
        pool_a = Mempool("a", size=1)
        pool_b = Mempool("b", size=1)
        mbuf = pool_a.get()
        with pytest.raises(ValueError):
            pool_b.put(mbuf)

    def test_reset_on_alloc(self):
        pool = Mempool("p", size=1)
        mbuf = pool.get()
        mbuf.seq = 9
        mbuf.free()
        again = pool.get()
        assert again.seq == -1

    def test_get_bulk_resets_every_slot_as_reset_does(self):
        """``get_bulk`` resets its descriptors inline: slot for slot
        over ``Mbuf.__slots__`` they equal one ``get`` hands out, which
        calls ``Mbuf.reset()`` — so a slot that ``reset`` learns to
        clear and ``get_bulk`` does not fails here."""
        # What a free leaves for the allocator to see: the pool's
        # pointer, a single reference and no ledger tag.
        kept = {"pool", "refcnt", "in_pool", "holder"}
        pool = Mempool("p", size=4)
        for mbuf in pool.get_bulk(4):
            for slot in Mbuf.__slots__:
                if slot not in kept:
                    setattr(mbuf, slot, ("stale", slot))
            mbuf.free()
        by_reset = pool.get()
        for mbuf in pool.get_bulk(3):
            for slot in Mbuf.__slots__:
                assert getattr(mbuf, slot) == getattr(by_reset, slot), slot

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Mempool("p", size=0)
