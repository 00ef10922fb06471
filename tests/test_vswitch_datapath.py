"""Unit tests for the datapath fast path."""

import pytest

from repro.dpdk.dpdkr import DpdkrSharedRings
from repro.mem.mempool import Mempool
from repro.mem.memzone import MemzoneRegistry
from repro.openflow.actions import (
    ControllerAction,
    OutputAction,
    SetFieldAction,
)
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.headers import ETH_TYPE_IPV4, Ethernet, MacAddress
from repro.vswitch.datapath import Datapath
from repro.vswitch.ports import DpdkrOvsPort
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf
from tests.support.reference_datapath import (
    install_generation_wipe,
    install_scalar_lane,
)


@pytest.fixture
def switch():
    return VSwitchd()


def add_flow(switch, match, actions, priority=0x8000):
    switch.bridge.table.add(FlowEntry(match, actions, priority=priority))


class TestForwarding:
    def test_port_to_port_forward(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(b.ofport)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        cost = switch.step_dataplane()
        assert cost > 0
        delivered = drain(b.rings.to_guest)
        assert delivered == [mbuf]
        assert a.rx_packets == 1 and b.tx_packets == 1

    def test_table_miss_drops_without_connection(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert switch.datapath.miss_upcalls == 1
        assert mbuf.refcnt == 0  # freed

    def test_second_packet_hits_emc(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.classifier_hits == 1
        assert switch.datapath.emc_hits == 1

    def test_emc_disabled(self):
        switch = VSwitchd()
        switch.datapath.emc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.emc_hits == 0
        assert switch.datapath.classifier_hits == 2

    def test_flow_counters_updated(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        mbuf = mk_mbuf(frame_size=64)
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        entry = switch.bridge.table.entries()[0]
        assert entry.packet_count == 1
        assert entry.byte_count == 64

    def test_drop_rule(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        add_flow(switch, Match(in_port=a.ofport), [])  # explicit drop
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert mbuf.refcnt == 0
        assert switch.datapath.miss_upcalls == 0

    def test_multicast_refcounts(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(b.ofport), OutputAction(c.ofport)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == [mbuf]
        assert drain(c.rings.to_guest) == [mbuf]
        assert mbuf.refcnt == 2

    def test_output_to_unknown_port_drops(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(99)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert mbuf.refcnt == 0

    def test_tx_ring_overflow_counts_drops(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1", ring_size=4)
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(8):
            a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert b.tx_packets == 3  # ring capacity - 1
        assert b.tx_dropped == 5

    def test_set_field_rewrites_and_reroutes(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        new_mac = 0x020000000099
        add_flow(switch, Match(in_port=a.ofport),
                 [SetFieldAction("eth_dst", new_mac),
                  OutputAction(b.ofport)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        delivered = drain(b.rings.to_guest)[0]
        assert delivered.packet.get(Ethernet).dst == MacAddress(new_mac)
        assert delivered.userdata is None  # flow-key cache invalidated

    def test_controller_action_upcalls(self):
        upcalls = []
        table = FlowTable()
        datapath = Datapath(
            table,
            upcall_handler=lambda m, p, r: upcalls.append((p, r)) or m.free(),
        )
        registry = MemzoneRegistry()
        port = DpdkrOvsPort(1, DpdkrSharedRings(registry, "dpdkr0"))
        datapath.add_port(port)
        table.add(FlowEntry(Match(in_port=1), [ControllerAction()]))
        port.rings.to_switch.enqueue(mk_mbuf())
        datapath.process_ports([port])
        assert upcalls == [(1, "action")]


class TestControllerPlusOutput:
    """``[controller, output:b]``: two consumers, two references — taken
    before the first hand-off, whichever lane runs the actions."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_inline_upcall_cannot_free_the_outputs_reference(
            self, vectorized):
        # Inline upcalls: the bridge's handler frees its reference
        # inside execute_actions.  Retaining for the output only after
        # that revived an mbuf that was already back in its pool.
        switch = VSwitchd(upcall_policy=None)
        if not vectorized:
            install_scalar_lane(switch.datapath)
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport),
                 [ControllerAction(), OutputAction(b.ofport)])
        pool = Mempool("pkts", size=4)
        mbuf = mk_mbuf(pool=pool)
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert switch.datapath.upcalls_action == 1
        assert (switch.datapath.flow_batches > 0) == vectorized
        assert drain(b.rings.to_guest) == [mbuf]
        assert not mbuf.in_pool and mbuf.refcnt == 1
        assert pool.available == 3
        mbuf.free()
        assert pool.available == 4 and pool.double_free_detected == 0

    def test_packet_out_takes_the_same_references(self):
        switch = VSwitchd(upcall_policy=None)
        b = switch.add_dpdkr_port("dpdkr1")
        pool = Mempool("pkts", size=4)
        mbuf = mk_mbuf(pool=pool)
        switch.datapath.inject(
            mbuf, [ControllerAction(), OutputAction(b.ofport)])
        assert drain(b.rings.to_guest) == [mbuf]
        assert not mbuf.in_pool and mbuf.refcnt == 1
        mbuf.free()
        assert pool.available == 4

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_bare_datapath_frees_the_controller_copy(self, vectorized):
        # Neither upcall queue nor handler: nobody takes the controller
        # copy, so it must be dropped, not leaked.
        table = FlowTable()
        datapath = Datapath(table)
        if not vectorized:
            install_scalar_lane(datapath)
        registry = MemzoneRegistry()
        a = DpdkrOvsPort(1, DpdkrSharedRings(registry, "dpdkr0"))
        b = DpdkrOvsPort(2, DpdkrSharedRings(registry, "dpdkr1"))
        datapath.add_port(a)
        datapath.add_port(b)
        table.add(FlowEntry(Match(in_port=1),
                            [ControllerAction(), OutputAction(2)]))
        pool = Mempool("pkts", size=4)
        mbuf = mk_mbuf(pool=pool)
        a.rings.to_switch.enqueue(mbuf)
        datapath.process_ports([a, b])
        assert (datapath.flow_batches > 0) == vectorized
        assert drain(b.rings.to_guest) == [mbuf]
        assert mbuf.refcnt == 1
        mbuf.free()
        assert pool.available == 4


class TestFlowPlans:
    """The batched lane replays a plan compiled once per traversal."""

    def test_one_plan_serves_every_key_of_a_rule(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for burst in range(3):
            for flow in range(5):
                a.rings.to_switch.enqueue(mk_mbuf(src_port=1000 + flow))
            switch.step_dataplane()
        plans = switch.datapath.plans
        assert (plans.entries, plans.compiles, plans.flushes) == (1, 1, 0)
        assert len(drain(b.rings.to_guest)) == 15

    @pytest.mark.parametrize("emc_enabled", [True, False])
    def test_modified_actions_of_a_cached_entry_take_effect(
            self, emc_enabled):
        # table.modify rewrites entry.actions in place: the traversal
        # tuple — the plan memo's key — is unchanged, so the memo must
        # not survive the flowmod.
        switch = VSwitchd()
        switch.datapath.emc_enabled = emc_enabled
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        match = Match(in_port=a.ofport)
        add_flow(switch, match, [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert len(drain(b.rings.to_guest)) == 2
        switch.bridge.table.modify(match, [OutputAction(c.ofport)])
        a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == []
        assert len(drain(c.rings.to_guest)) == 1
        plans = switch.datapath.plans
        assert (plans.compiles, plans.flushes) == (2, 1)

    def test_deleted_output_port_drops_and_accounts(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        pool = Mempool("pkts", size=4)
        a.rings.to_switch.enqueue(mk_mbuf(pool=pool))
        switch.step_dataplane()
        drain(b.rings.to_guest)[0].free()
        switch.del_port(b.ofport)     # no flowmod: the plan is still cached
        a.rings.to_switch.enqueue(mk_mbuf(pool=pool))
        switch.step_dataplane()
        datapath = switch.datapath
        assert datapath.plans.flushes == 0
        assert (datapath.unknown_port_drops, datapath.action_drops) == (1, 1)
        assert pool.available == 4


class TestPortManagement:
    def test_duplicate_ofport_rejected(self, switch):
        switch.add_dpdkr_port("dpdkr0", ofport=5)
        with pytest.raises(ValueError):
            switch.add_dpdkr_port("dpdkr1", ofport=5)

    def test_del_port(self, switch):
        port = switch.add_dpdkr_port("dpdkr0")
        removed = switch.del_port(port.ofport)
        assert removed is port
        with pytest.raises(ValueError):
            switch.datapath.remove_port(port.ofport)

    def test_port_by_name(self, switch):
        port = switch.add_dpdkr_port("dpdkr7")
        assert switch.port_by_name("dpdkr7") is port
        with pytest.raises(KeyError):
            switch.port_by_name("nope")

    def test_core_assignment_round_robin(self):
        switch = VSwitchd(n_pmd_cores=2)
        for index in range(4):
            switch.add_dpdkr_port("dpdkr%d" % index)
        assignment = switch.core_assignment()
        assert len(assignment[0]) == 2 and len(assignment[1]) == 2


class TestVectorizedFastPath:
    def _wire(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        return a, b

    def test_burst_grouped_into_flow_batches(self, switch):
        a, b = self._wire(switch)
        # Two flows interleaved in one burst: A B A B A B.
        for i in range(6):
            a.rings.to_switch.enqueue(mk_mbuf(src_port=1000 + i % 2))
        switch.step_dataplane()
        datapath = switch.datapath
        assert datapath.flow_batches == 2
        assert datapath.packets_batched == 6
        assert datapath.batch_fill_counts == {3: 2}
        assert datapath.avg_batch_fill == 3.0
        assert len(drain(b.rings.to_guest)) == 6

    def test_batch_resolves_once_per_distinct_flow(self, switch):
        a, b = self._wire(switch)
        for _ in range(8):
            a.rings.to_switch.enqueue(mk_mbuf(src_port=1000))
        switch.step_dataplane()
        # One classifier resolution served all 8 packets; counters
        # still count packets so the scalar path stays comparable.
        assert switch.datapath.classifier_hits == 8
        assert switch.datapath.classifier.lookups == 1
        assert len(drain(b.rings.to_guest)) == 8

    def test_same_flow_order_preserved(self, switch):
        a, b = self._wire(switch)
        mbufs = [mk_mbuf(src_port=1000) for _ in range(4)]
        for mbuf in mbufs:
            a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == mbufs

    def test_smc_serves_after_emc_disabled(self):
        switch = VSwitchd()
        switch.datapath.emc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        datapath = switch.datapath
        # First packet: full dpcls walk, SMC learns the subtable.
        # Second packet: validated SMC hit.
        assert datapath.smc.hits == 1
        assert datapath.smc_hits == 1
        assert datapath.classifier_hits == 2  # smc_hits is a subset
        assert datapath.emc_hits == 0
        assert len(drain(b.rings.to_guest)) == 2

    def test_smc_disabled_uses_dpcls_only(self):
        switch = VSwitchd()
        switch.datapath.emc_enabled = False
        switch.datapath.smc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.smc_hits == 0
        assert switch.datapath.smc.hits == 0
        assert switch.datapath.classifier_hits == 2

    def test_precise_invalidation_spares_unrelated_flows(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        add_flow(switch, Match(in_port=c.ofport), [OutputAction(b.ofport)])
        for port in (a, c):
            port.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert len(switch.datapath.emc) == 2
        # Deleting the rule for port c tombstones only c's cached key.
        switch.bridge.table.delete(Match(in_port=c.ofport))
        assert switch.datapath.emc.precise_evictions == 1
        a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert switch.datapath.emc_hits == 1  # a's entry survived

    def test_generation_mode_restores_whole_cache_wipe(self, switch):
        install_generation_wipe(switch.datapath)
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        add_flow(switch, Match(in_port=c.ofport), [OutputAction(b.ofport)])
        for port in (a, c):
            port.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        switch.bridge.table.delete(Match(in_port=c.ofport))
        a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert switch.datapath.emc_hits == 0  # everything was wiped

    def test_batch_upcall_per_packet(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        upcalls = []
        switch.datapath.upcall_handler = \
            lambda mbuf, in_port, reason: (upcalls.append(reason),
                                           mbuf.free())
        for _ in range(3):
            a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert switch.datapath.miss_upcalls == 3
        assert upcalls == ["no_match"] * 3

    def test_batched_iteration_cheaper_than_scalar(self):
        def run(vectorized):
            switch = VSwitchd()
            if not vectorized:
                install_scalar_lane(switch.datapath)
            a = switch.add_dpdkr_port("dpdkr0")
            switch.add_dpdkr_port("dpdkr1")
            add_flow(switch, Match(in_port=a.ofport), [OutputAction(2)])
            for _ in range(32):
                a.rings.to_switch.enqueue(mk_mbuf(src_port=1000))
            cost = switch.step_dataplane()
            assert (switch.datapath.flow_batches > 0) == vectorized
            return cost

        assert run(True) < run(False)
