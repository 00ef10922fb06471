"""The mempool ownership ledger: who holds each in-flight mbuf.

A fixed-size pool turns leaks into allocation failures — but only the
ledger says *whose* leak it was.  These tests pin the ledger mechanics
(assign / holders / reclaim and the per-mbuf double-free detector) and
the two hot-path touchpoints that feed it: rings with a
``holder_token`` charge on enqueue, and guest PMDs re-charge to
``"vm:<name>"`` on rx.
"""

import pytest

from repro.mem import Mempool, MempoolDoubleFreeError, Ring
from repro.mem.mempool import charge
from repro.orchestration import NfvNode
from repro.packet.mbuf import Mbuf

from tests.helpers import mk_mbuf
from tests.support.reference_ledger import ReferenceLedgerMempool


class TestLedgerBasics:
    def test_assign_moves_between_holders(self):
        pool = Mempool("p", size=8)
        mbuf = pool.get()
        pool.assign(mbuf, "ring:a")
        assert pool.holders() == {"ring:a": 1}
        pool.assign(mbuf, "vm:b")
        assert mbuf.holder == "vm:b"
        assert pool.held_by("ring:a") == 0
        assert pool.held_by("vm:b") == 1
        mbuf.free()

    def test_put_clears_ledger_entry(self):
        pool = Mempool("p", size=8)
        mbuf = pool.get()
        pool.assign(mbuf, "vm:x")
        mbuf.free()
        assert mbuf.holder is None
        assert pool.holders() == {}
        assert pool.available == 8

    def test_reassign_to_same_holder_is_noop(self):
        pool = Mempool("p", size=8)
        mbuf = pool.get()
        pool.assign(mbuf, "vm:x")
        pool.assign(mbuf, "vm:x")
        assert pool.held_by("vm:x") == 1
        mbuf.free()


class TestDoubleFree:
    def test_put_twice_raises_and_counts(self):
        pool = Mempool("p", size=8)
        mbuf = pool.get()
        pool.put(mbuf)
        with pytest.raises(MempoolDoubleFreeError):
            pool.put(mbuf)
        assert pool.double_free_detected == 1
        # The pool books stayed consistent: one free, all mbufs home.
        assert pool.available == 8
        assert pool.free_count_total == 1

    def test_specific_mbuf_caught_while_others_in_flight(self):
        # The old aggregate guard only fired once the pool was *full*;
        # the per-mbuf flag must catch the exact descriptor even when
        # other buffers are still out.
        pool = Mempool("p", size=8)
        out = pool.get_bulk(4)
        victim = out[0]
        victim.free()
        with pytest.raises(MempoolDoubleFreeError):
            pool.put(victim)
        for mbuf in out[1:]:
            mbuf.free()
        assert pool.available == 8

    def test_foreign_mbuf_rejected(self):
        pool_a = Mempool("a", size=4)
        pool_b = Mempool("b", size=4)
        mbuf = pool_a.get()
        with pytest.raises(ValueError):
            pool_b.put(mbuf)
        mbuf.free()


class TestReclaim:
    def test_reclaim_returns_dead_holders_buffers(self):
        pool = Mempool("p", size=16)
        for _ in range(5):
            pool.assign(pool.get(), "vm:dead")
        report = pool.reclaim("vm:dead")
        assert (report.leaked, report.reclaimed) == (5, 5)
        assert report.double_free_detected == 0
        assert report.unreclaimable == 0
        assert pool.available == 16
        assert pool.in_use == 0
        assert pool.reclaimed_total == 5
        assert pool.leaked_found_total == 5
        assert pool.leaked_permanent == 0

    def test_reclaim_unknown_owner_is_empty(self):
        pool = Mempool("p", size=4)
        report = pool.reclaim("vm:ghost")
        assert report.leaked == 0
        assert pool.reclaim_sweeps == 1

    def test_reclaim_skips_referenced_buffers(self):
        pool = Mempool("p", size=8)
        mbuf = pool.get()
        pool.assign(mbuf, "vm:dead")
        mbuf.retain()  # someone else still references it
        report = pool.reclaim("vm:dead")
        assert report.unreclaimable == 1
        assert report.reclaimed == 0
        assert pool.leaked_permanent == 1
        assert pool.in_use == 1  # honestly reported as lost, not hidden

    def test_reclaim_report_invariant(self):
        pool = Mempool("p", size=16)
        clean = [pool.get() for _ in range(3)]
        pinned = pool.get()
        for mbuf in clean + [pinned]:
            pool.assign(mbuf, "vm:dead")
        pinned.retain()
        report = pool.reclaim("vm:dead")
        assert report.leaked == (report.reclaimed
                                 + report.double_free_detected
                                 + report.unreclaimable)
        assert (report.reclaimed, report.unreclaimable) == (3, 1)

    def test_reclaimed_buffers_are_reallocatable(self):
        pool = Mempool("p", size=2)
        for _ in range(2):
            pool.assign(pool.get(), "vm:dead")
        with pytest.raises(Exception):
            pool.get()  # exhausted by the "crashed" holder
        pool.reclaim("vm:dead")
        again = pool.get_bulk(2)
        assert len(again) == 2
        for mbuf in again:
            mbuf.free()


def _one_by_one(pool, mbufs):
    for mbuf in mbufs:
        mbuf.free()


def _in_one_burst(pool, mbufs):
    pool.free_burst(mbufs)


# Bursts for TestFreeBurst: each builds, from a fresh pool and a
# second one, the list of mbufs to free.

def plain(pool, other):
    stale = pool.get()   # lent and returned: a free mbuf that exists
    mbufs = pool.get_bulk(5)
    stale.free()
    pool.assign(stale, "stale")   # a tag on a free mbuf
    for mbuf in mbufs:
        pool.assign(mbuf, "vm:x")
    return mbufs


def retained_reference_only_drops_a_count(pool, other):
    mbufs = pool.get_bulk(4)
    mbufs[1].retain()
    return mbufs


def retained_then_freed_twice_in_one_burst(pool, other):
    mbufs = pool.get_bulk(3)
    return [mbufs[0], mbufs[1].retain(), mbufs[1], mbufs[2]]


def foreign_pool_goes_home(pool, other):
    return pool.get_bulk(2) + other.get_bulk(2) + pool.get_bulk(1)


def pool_less_descriptor(pool, other):
    return pool.get_bulk(1) + [Mbuf()] + pool.get_bulk(1)


def same_mbuf_twice_raises_mid_burst(pool, other):
    mbufs = pool.get_bulk(3)
    return [mbufs[0], mbufs[1], mbufs[0], mbufs[2]]


def refcnt_already_zero(pool, other):
    mbufs = pool.get_bulk(3)
    mbufs[1].refcnt = 0
    return mbufs


def already_in_the_free_list(pool, other):
    mbufs = pool.get_bulk(3)
    pool.put(mbufs[1])   # put() leaves refcnt alone: 1 and in_pool
    return mbufs


def over_free_backstop(pool, other):
    # A descriptor that claims the pool but is not one of its own,
    # offered while every real one is home.
    return [Mbuf(pool=pool)]


def over_free_backstop_mid_burst(pool, other):
    return pool.get_bulk(2) + [Mbuf(pool=pool)]


FREE_BURSTS = {build.__name__: build for build in (
    plain,
    retained_reference_only_drops_a_count,
    retained_then_freed_twice_in_one_burst,
    foreign_pool_goes_home,
    pool_less_descriptor,
    same_mbuf_twice_raises_mid_burst,
    refcnt_already_zero,
    already_in_the_free_list,
    over_free_backstop,
    over_free_backstop_mid_burst,
)}


class TestFreeBurst:
    """``Mempool.free_burst`` is ``mbuf.free()`` per mbuf: each case
    builds the same burst twice and frees one copy each way — the pools
    must end identical, down to the free-list order and the exception.
    """

    @staticmethod
    def run(build, free):
        pool, other = Mempool("p", size=8), Mempool("other", size=4)
        mbufs = build(pool, other)
        try:
            free(pool, mbufs)
            raised = None
        except (RuntimeError, ValueError) as exc:
            raised = (type(exc), str(exc))
        descriptors = pool._mbufs + other._mbufs
        return {
            "raised": raised,
            "burst": [(descriptors.index(m) if m in descriptors else -1,
                       m.refcnt, m.in_pool, m.holder) for m in mbufs],
            "free_lists": [[descriptors.index(m) if m in descriptors else -1
                            for m in p._free] for p in (pool, other)],
            "books": [(p.available, p.free_count_total, p.alloc_count,
                       p.double_free_detected) for p in (pool, other)],
        }

    @pytest.mark.parametrize("name", sorted(FREE_BURSTS))
    def test_burst_free_is_free_per_mbuf(self, name):
        expected = self.run(FREE_BURSTS[name], _one_by_one)
        assert self.run(FREE_BURSTS[name], _in_one_burst) == expected

    def test_the_cases_hit_every_check(self):
        raised = {name: self.run(build, _in_one_burst)["raised"]
                  for name, build in FREE_BURSTS.items()}
        assert raised["plain"] is None
        assert raised["foreign_pool_goes_home"] is None
        assert raised["same_mbuf_twice_raises_mid_burst"] == (
            RuntimeError, "double free of mbuf")
        assert raised["refcnt_already_zero"] == (
            RuntimeError, "double free of mbuf")
        assert raised["already_in_the_free_list"][0] is \
            MempoolDoubleFreeError
        assert "over-freed" in raised["over_free_backstop"][1]
        assert "over-freed" in raised["over_free_backstop_mid_burst"][1]

    def test_counts_are_right_when_it_raises_mid_burst(self):
        pool = Mempool("p", size=8)
        mbufs = pool.get_bulk(4)
        pool.put(mbufs[2])
        with pytest.raises(MempoolDoubleFreeError):
            pool.free_burst(mbufs)
        # Two went home before the bad one, which was counted; the
        # fourth is still the caller's.
        assert pool.free_count_total == 3 and pool.available == 7
        assert pool.double_free_detected == 1
        assert not mbufs[3].in_pool and mbufs[3].refcnt == 1


class TestBurstLedger:
    def test_one_pool_burst_is_tagged_whole(self):
        pool = Mempool("p", size=8)
        mbufs = pool.get_bulk(4)
        pool.assign_burst(mbufs, "ring:a")
        assert pool.holders() == {"ring:a": 4}

    def test_mixed_pool_burst_routes_each_descriptor(self):
        pool, other = Mempool("p", size=8), Mempool("other", size=8)
        stranger = object()   # a ring carries any object
        burst = (pool.get_bulk(2) + [Mbuf(), stranger] + other.get_bulk(2)
                 + pool.get_bulk(1))
        charge(burst, "ring:a")
        assert pool.holders() == {"ring:a": 3}
        assert other.holders() == {"ring:a": 2}
        assert burst[2].holder is None

    def test_burst_led_by_a_pool_less_object(self):
        pool = Mempool("p", size=8)
        burst = [object(), Mbuf()] + pool.get_bulk(2)
        charge(burst, "vm:x")
        assert pool.holders() == {"vm:x": 2}
        assert burst[1].holder is None

    def test_ring_and_pmd_charge_through_the_burst_hook(self):
        # The crash-reclaim oracle subclasses the pool: a store that
        # bypassed assign_burst would leave its buckets behind.
        pool = ReferenceLedgerMempool("p", size=8)
        ring = Ring("r", capacity=8)
        ring.holder_token = "ring:r"
        ring.enqueue_burst(pool.get_bulk(3))
        ring.enqueue_bulk(pool.get_bulk(2))
        ring.enqueue(pool.get())
        assert pool.reference_holders() == pool.holders() == {"ring:r": 6}
        pool.free_burst(ring.drain())
        assert pool.reference_holders() == pool.holders() == {}


class TestRingCharging:
    def test_tokenized_ring_charges_on_enqueue(self):
        pool = Mempool("p", size=16)
        ring = Ring("bz.to_guest", capacity=8)
        ring.holder_token = "ring:bz"
        mbufs = [mk_mbuf(pool=pool) for _ in range(3)]
        for mbuf in mbufs:
            ring.enqueue(mbuf)
        assert pool.held_by("ring:bz") == 3
        # Draining does not discharge by itself — the next touchpoint
        # (a PMD, or free) moves or clears the entry.
        out = ring.dequeue_burst(8)
        for mbuf in out:
            mbuf.free()
        assert pool.holders() == {}

    def test_untokenized_ring_stays_off_the_ledger(self):
        pool = Mempool("p", size=16)
        ring = Ring("plain", capacity=8)
        mbuf = mk_mbuf(pool=pool)
        ring.enqueue(mbuf)
        assert pool.holders() == {}
        ring.dequeue().free()


class TestDataPathCharging:
    def test_pmd_rx_charges_vm_and_sink_free_discharges(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        pool = Mempool("traffic", size=64)
        node.track_mempool(pool)
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        batch = [mk_mbuf(pool=pool) for _ in range(4)]
        assert sender.tx_burst(batch) == 4
        # In the bypass ring: charged to the zone's ring token.
        holders = pool.holders()
        assert list(holders.values()) == [4]
        (ring_token,) = holders
        assert ring_token.startswith("ring:")
        got = receiver.rx_burst(32)
        assert got == batch
        # Received by the guest: re-charged to the consumer VM.
        assert pool.holders() == {"vm:vm2": 4}
        for mbuf in got:
            mbuf.free()
        assert pool.holders() == {}
        assert pool.in_use == 0

    def test_node_tracks_pool_for_manager_and_obs(self):
        node = NfvNode()
        pool = Mempool("traffic", size=8)
        node.track_mempool(pool)
        node.track_mempool(pool)  # idempotent
        assert node.mempools == [pool]
        assert node.manager.mempools == [pool]
        assert node.obs.registry.sample_value(
            "repro_mempool_size", {"pool": "traffic"}
        ) == 8
