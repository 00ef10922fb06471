"""Unit tests for the megaflow (wildcard) cache tier.

Cache mechanics (masks, buckets, refresh, stale-aware eviction,
precise invalidation), the staged unwildcarding the classifier feeds
it, the datapath integration (tier order, counters, flowmod
invalidation), and the appctl surface.
"""

import pytest

from repro.obs.plane import Observability
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_UDP
from repro.vswitch.appctl import AppCtl
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.megaflow import FlowWildcards, MegaflowCache
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf, view_values
from tests.support.reference_datapath import install_generation_wipe


def make_key(in_port=1, eth_src=2, l4_src=1000):
    return FlowKey(
        in_port=in_port, eth_src=eth_src, eth_dst=3,
        eth_type=ETH_TYPE_IPV4, vlan_vid=0, ip_src=0x0A000001,
        ip_dst=0x0A000002, ip_proto=IP_PROTO_UDP, ip_tos=0,
        l4_src=l4_src, l4_dst=2000,
    )


def make_entry(priority=10, **fields):
    return FlowEntry(Match(**fields), [OutputAction(9)],
                     priority=priority)


def wc_for(*fields):
    wc = FlowWildcards()
    for name, mask in fields:
        wc.add(name, mask)
    return wc


class TestFlowWildcards:
    def test_accumulates_union_of_masks(self):
        wc = FlowWildcards()
        wc.add("eth_src", 0xFF00)
        wc.add("eth_src", 0x00FF)
        wc.add("in_port", 0xFFFF)
        assert wc.mask_tuple() == (("eth_src", 0xFFFF),
                                   ("in_port", 0xFFFF))

    def test_zero_mask_is_not_recorded(self):
        wc = FlowWildcards()
        wc.add("eth_src", 0)
        assert wc.mask_tuple() == ()


class TestMegaflowCacheMechanics:
    def test_hit_requires_only_masked_bits(self):
        cache = MegaflowCache()
        entry = make_entry()
        cache.insert(make_key(in_port=1), wc_for(("in_port", 0xFFFF)),
                     (entry,))
        # Same in_port, totally different flow otherwise: still a hit.
        assert cache.lookup(make_key(in_port=1, eth_src=77,
                                     l4_src=4242)) == (entry,)
        assert cache.lookup(make_key(in_port=2)) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_masks_get_distinct_buckets(self):
        cache = MegaflowCache()
        cache.insert(make_key(in_port=1), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        cache.insert(make_key(in_port=2),
                     wc_for(("in_port", 0xFFFF), ("eth_src", 0xFF)),
                     (make_entry(),))
        assert len(cache) == 2
        assert cache.mask_count == 2

    def test_refresh_in_place_relinks_back_index(self):
        cache = MegaflowCache()
        old, new = make_entry(), make_entry()
        cache.insert(make_key(), wc_for(("in_port", 0xFFFF)), (old,))
        cache.insert(make_key(), wc_for(("in_port", 0xFFFF)), (new,))
        assert len(cache) == 1
        assert cache.refreshes == 1
        assert cache.invalidate_entry(old) == 0  # unlinked
        assert cache.invalidate_entry(new) == 1

    def test_capacity_evicts_oldest_live_entry(self):
        cache = MegaflowCache(capacity=2)
        first = make_entry()
        cache.insert(make_key(in_port=1), wc_for(("in_port", 0xFFFF)),
                     (first,))
        cache.insert(make_key(in_port=2), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        cache.insert(make_key(in_port=3), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(make_key(in_port=1)) is None  # evicted

    def test_eviction_prefers_tombstones(self):
        cache = MegaflowCache(capacity=2)
        doomed = make_entry()
        cache.insert(make_key(in_port=1), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        cache.insert(make_key(in_port=2), wc_for(("in_port", 0xFFFF)),
                     (doomed,))
        cache.invalidate_entry(doomed)  # tombstone the *newer* entry
        cache.insert(make_key(in_port=3), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        assert cache.stale_evictions == 1 and cache.evictions == 0
        # The older live entry survived.
        assert cache.lookup(make_key(in_port=1)) is not None

    def test_tombstone_never_answers_and_is_reclaimed(self):
        cache = MegaflowCache()
        doomed = make_entry()
        cache.insert(make_key(), wc_for(("in_port", 0xFFFF)), (doomed,))
        cache.invalidate_entry(doomed)
        assert cache.lookup(make_key()) is None
        assert cache.stale_lookups == 1
        assert len(cache) == 0  # lazily collected

    def test_invalidate_matching_uses_region_overlap(self):
        cache = MegaflowCache()
        cache.insert(make_key(in_port=1), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        cache.insert(make_key(in_port=2), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        # A new rule pinned to in_port=1 overlaps only the first region.
        assert cache.invalidate_matching(Match(in_port=1)) == 1
        assert cache.lookup(make_key(in_port=1)) is None
        assert cache.lookup(make_key(in_port=2)) is not None

    def test_invalidate_matching_wildcard_kills_everything(self):
        cache = MegaflowCache()
        for port in (1, 2, 3):
            cache.insert(make_key(in_port=port),
                         wc_for(("in_port", 0xFFFF)), (make_entry(),))
        assert cache.invalidate_matching(Match()) == 3

    def test_partial_mask_overlap(self):
        cache = MegaflowCache()
        # Region: eth_src high byte == 0x02.
        key = make_key(eth_src=0x0200)
        cache.insert(key, wc_for(("eth_src", 0xFF00)), (make_entry(),))
        # Exact eth_src=0x0300 disagrees on the shared high byte.
        assert cache.invalidate_matching(Match(eth_src=0x0300)) == 0
        # Exact eth_src=0x0211 agrees on it -> overlap.
        assert cache.invalidate_matching(Match(eth_src=0x0211)) == 1

    def test_flush(self):
        cache = MegaflowCache()
        cache.insert(make_key(), wc_for(("in_port", 0xFFFF)),
                     (make_entry(),))
        assert cache.flush() == 1
        assert len(cache) == 0 and cache.mask_count == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MegaflowCache(capacity=0)


class TestStagedUnwildcarding:
    def test_wc_collects_only_examined_fields(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(make_entry(in_port=1))
        wc = FlowWildcards()
        entry = classifier.lookup(make_key(in_port=1), wc=wc)
        assert entry is not None
        # Only the subtable's single field was examined; l4 fields and
        # addresses stay fully wildcarded.
        assert dict(wc.mask_tuple()) == {"in_port": 0xFFFFFFFF}

    def test_staged_miss_unwildcards_only_proving_stages(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        # in_port is stage 0, l4_src is stage 3: a key with the wrong
        # in_port is proven a miss at stage 0, so l4_src is never
        # examined and stays wildcarded.
        table.add(make_entry(in_port=7, eth_type=ETH_TYPE_IPV4,
                             ip_proto=IP_PROTO_UDP, l4_src=1000))
        wc = FlowWildcards()
        assert classifier.lookup(make_key(in_port=1), wc=wc) is None
        fields = dict(wc.mask_tuple())
        assert "in_port" in fields
        assert "l4_src" not in fields


class TestRankDecay:
    def test_periodic_decay_halves_subtable_hits(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(make_entry(in_port=1))
        key = make_key(in_port=1)
        for _ in range(TupleSpaceClassifier.RANK_DECAY_INTERVAL):
            assert classifier.lookup(key) is not None
        assert classifier.rank_decays == 1
        subtable = next(iter(classifier._subtables.values()))
        assert subtable.hits == TupleSpaceClassifier.RANK_DECAY_INTERVAL // 2

    def test_decay_keeps_ranking_order(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(make_entry(in_port=1))
        table.add(make_entry(eth_src=2, priority=5))
        for _ in range(10):
            classifier.lookup(make_key(in_port=1))
        classifier.decay_hits()
        ranking = classifier.ranking()
        assert ranking[0][3] >= ranking[-1][3]  # still sorted by hits


def add_flow(switch, match, actions, priority=0x8000):
    switch.bridge.table.add(FlowEntry(match, actions, priority=priority))


def new_flow_mbuf(sequence):
    """A brand-new flow per call: defeats EMC and SMC insertion."""
    return mk_mbuf(src_port=1000 + sequence)


class TestDatapathIntegration:
    def setup_switch(self, megaflow=True, smc=True):
        switch = VSwitchd()
        switch.datapath.megaflow_enabled = megaflow
        switch.datapath.smc_enabled = smc
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(b.ofport)])
        return switch, a, b

    def test_new_flows_served_by_megaflow_after_first(self):
        switch, a, b = self.setup_switch(smc=False)
        for sequence in range(4):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        datapath = switch.datapath
        assert datapath.megaflow_hits == 3
        assert datapath.classifier.lookups == 1  # only the first packet
        assert len(drain(b.rings.to_guest)) == 4

    @pytest.mark.parametrize("smc", [False, True])
    def test_megaflow_probed_once_per_resolution(self, smc):
        # With the SMC off the miss path probes the megaflow cache before
        # the walk; a miss there must not be probed (and counted) again.
        switch, a, _b = self.setup_switch(smc=smc)
        for sequence in range(4):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        megaflow = switch.datapath.megaflow
        assert (megaflow.hits, megaflow.misses) == (3, 1)

    def test_disabled_megaflow_goes_to_dpcls(self):
        switch, a, b = self.setup_switch(megaflow=False, smc=False)
        for sequence in range(4):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        assert switch.datapath.megaflow_hits == 0
        assert switch.datapath.classifier.lookups == 4

    def test_megaflow_hits_count_inside_classifier_hits(self):
        switch, a, _b = self.setup_switch(smc=False)
        for sequence in range(3):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        datapath = switch.datapath
        assert datapath.classifier_hits == 3
        assert datapath.megaflow_hits == 2

    def test_added_rule_precisely_invalidates_megaflow(self):
        switch, a, b = self.setup_switch(smc=False)
        c = switch.add_dpdkr_port("dpdkr2")
        for sequence in range(2):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        assert switch.datapath.megaflow_hits == 1
        # A higher-priority rule overlapping the cached region must
        # take effect immediately.
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(c.ofport)], priority=0x9000)
        a.rings.to_switch.enqueue(new_flow_mbuf(2))
        switch.step_dataplane()
        drain(b.rings.to_guest)
        assert len(drain(c.rings.to_guest)) == 1
        assert switch.datapath.megaflow.invalidations >= 1

    def test_deleted_rule_tombstones_megaflow(self):
        switch, a, b = self.setup_switch(smc=False)
        for sequence in range(2):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        switch.bridge.table.delete(Match(in_port=a.ofport))
        a.rings.to_switch.enqueue(new_flow_mbuf(2))
        switch.step_dataplane()
        assert switch.datapath.miss_upcalls == 1
        assert len(drain(b.rings.to_guest)) == 2  # the pre-delete pair

    def test_generation_invalidation_flushes_megaflow(self):
        switch, a, _b = self.setup_switch(smc=False)
        install_generation_wipe(switch.datapath)
        for sequence in range(2):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        assert len(switch.datapath.megaflow) == 1
        add_flow(switch, Match(in_port=99), [])
        assert len(switch.datapath.megaflow) == 0


def fastpath_show(switch):
    obs = Observability()
    obs.register_vswitchd(switch)
    return view_values(AppCtl(switch, obs=obs).run("dpif/fastpath-show"))


class TestAppctlSurface:
    def test_fastpath_show_waterfall_and_megaflow_rows(self):
        switch = VSwitchd()
        switch.datapath.smc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(b.ofport)])
        for sequence in range(3):
            a.rings.to_switch.enqueue(new_flow_mbuf(sequence))
            switch.step_dataplane()
        out = fastpath_show(switch)
        for tier, enabled in (("emc", 1), ("smc", 0), ("megaflow", 1)):
            assert out['repro_datapath_tier_enabled{switch="ovs",tier="%s"}'
                       % tier] == enabled
        hits = {tier: out['repro_datapath_%s_hits{switch="ovs"}' % tier]
                for tier in ("emc", "smc", "megaflow", "classifier")}
        # The miss-chain waterfall: dpcls serves what no cache did.
        dpcls = hits["classifier"] - hits["smc"] - hits["megaflow"]
        assert (hits["emc"], hits["smc"], hits["megaflow"], dpcls) \
            == (0, 0, 2, 1)
        assert sum(value for series, value in out.items() if series
                   .startswith("repro_datapath_miss_upcalls_total")) == 0
        assert out['repro_megaflow_entries{switch="ovs"}'] == 1
        assert out['repro_megaflow_masks{switch="ovs"}'] == 1
        assert out['repro_megaflow_hits{switch="ovs"}'] == 2
        assert 'repro_classifier_rank_decays_total{switch="ovs"}' in out

    def test_fastpath_show_reports_megaflow_off(self):
        switch = VSwitchd()
        switch.datapath.megaflow_enabled = False
        out = fastpath_show(switch)
        assert out['repro_datapath_tier_enabled{switch="ovs",'
                   'tier="megaflow"}'] == 0
