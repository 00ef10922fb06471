"""Unit tests for the PMD scheduler subsystem (repro.sched)."""

import pytest

from repro.metrics.timeline import EventTimeline, attach_sched_tracing
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.sched import (
    AutoLbPolicy,
    PmdScheduler,
    RxqLoadTracker,
    make_policy,
)
from repro.vswitch.appctl import AppCtl, pmd_rxq_show, sched_show
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf


class FakePort:
    """Duck-typed stand-in for OvsPort (the scheduler only reads
    ``ofport`` and ``name``)."""

    def __init__(self, ofport):
        self.ofport = ofport
        self.name = "p%d" % ofport


class TestRxqLoadTracker:
    def test_record_then_roll_builds_ewma(self):
        tracker = RxqLoadTracker(alpha=0.5)
        tracker.record(1, 0, 4e-6, packets=32)
        tracker.roll()
        assert tracker.pair_load(1, 0) == pytest.approx(2e-6)
        tracker.record(1, 0, 4e-6)
        tracker.roll()
        assert tracker.pair_load(1, 0) == pytest.approx(3e-6)

    def test_idle_pairs_decay_and_die(self):
        tracker = RxqLoadTracker(alpha=0.5)
        tracker.record(1, 0, 1e-6)
        tracker.roll()
        first = tracker.pair_load(1, 0)
        for _ in range(80):
            tracker.roll()
        assert tracker.pair_load(1, 0) < first
        assert tracker.pair_load(1, 0) == 0.0  # dropped below epsilon

    def test_port_and_core_aggregates(self):
        tracker = RxqLoadTracker(alpha=1.0)
        tracker.record(1, 0, 1e-6)
        tracker.record(1, 1, 3e-6)   # history on two cores after a move
        tracker.record(2, 1, 2e-6)
        tracker.roll()
        assert tracker.port_load(1) == pytest.approx(4e-6)
        assert tracker.core_load(1) == pytest.approx(5e-6)
        assert tracker.core_loads(2) == [
            pytest.approx(1e-6), pytest.approx(5e-6)
        ]

    def test_last_core_seconds_is_raw_interval(self):
        tracker = RxqLoadTracker(alpha=0.1)
        tracker.record(1, 0, 8e-6)
        tracker.roll()
        assert tracker.last_core_seconds[0] == pytest.approx(8e-6)

    def test_forget_and_reset_pair(self):
        tracker = RxqLoadTracker(alpha=1.0)
        tracker.record(1, 0, 1e-6)
        tracker.record(1, 1, 1e-6)
        tracker.record(2, 0, 1e-6)
        tracker.roll()
        tracker.reset_pair(1, 0)
        assert tracker.pair_load(1, 0) == 0.0
        assert tracker.pair_load(1, 1) > 0.0
        tracker.forget(1)
        assert tracker.port_load(1) == 0.0
        assert tracker.port_load(2) > 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            RxqLoadTracker(alpha=0.0)


class TestPolicies:
    def _scheduler(self, policy, n_cores=4):
        return PmdScheduler(n_cores, policy=policy)

    def test_roundrobin_is_the_static_hash(self):
        scheduler = self._scheduler("roundrobin")
        for ofport in (1, 5, 2, 7):
            core = scheduler.add_port(FakePort(ofport))
            assert core == ofport % 4

    def test_cycles_assign_puts_heaviest_on_least_loaded(self):
        scheduler = self._scheduler("cycles", n_cores=2)
        ports = [FakePort(ofport) for ofport in (1, 2, 3)]
        for port in ports:
            scheduler.add_port(port)
        # Port 1 is hot; 2 and 3 together weigh less than 1.
        scheduler.tracker.record(1, 0, 10e-6)
        scheduler.tracker.record(2, 0, 3e-6)
        scheduler.tracker.record(3, 1, 2e-6)
        scheduler.tracker.roll()
        assignment = scheduler.policy.assign(ports, scheduler)
        assert assignment[1] != assignment[2]
        assert assignment[2] == assignment[3]

    def test_group_honors_pin_and_isolation(self):
        scheduler = self._scheduler("group", n_cores=3)
        ports = [FakePort(ofport) for ofport in (1, 2, 3)]
        for port in ports:
            scheduler.add_port(port)
        scheduler.pin(1, 2)
        scheduler.isolate(2)
        assignment = scheduler.policy.assign(ports, scheduler)
        assert assignment[1] == 2                # pinned wins
        assert assignment[2] in (0, 1)           # isolation respected
        assert assignment[3] in (0, 1)

    def test_group_isolation_fallback_when_all_isolated(self):
        scheduler = self._scheduler("group", n_cores=2)
        port = FakePort(1)
        scheduler.isolate(0)
        scheduler.isolate(1)
        # No usable core left: isolation is ignored rather than
        # stranding the port.
        assert scheduler.add_port(port) in (0, 1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown rxq"):
            make_policy("hash")
        with pytest.raises(ValueError):
            PmdScheduler(2, policy="nope")


class TestPmdScheduler:
    def test_core_ports_object_identity_survives_everything(self):
        scheduler = PmdScheduler(2)
        aliases = list(scheduler.core_ports)
        port = FakePort(1)
        scheduler.add_port(port)
        scheduler.tracker.record(1, 1, 1e-6)
        scheduler.tracker.roll()
        scheduler.set_policy("cycles")
        scheduler.rebalance()
        scheduler.remove_port(port)
        for before, after in zip(aliases, scheduler.core_ports):
            assert before is after

    def test_plan_rebalance_is_a_dry_run(self):
        scheduler = PmdScheduler(2, policy="cycles")
        ports = [FakePort(ofport) for ofport in (1, 2)]
        for port in ports:
            scheduler.add_port(port)
        scheduler.tracker.record(1, 0, 5e-6)
        scheduler.tracker.record(2, 0, 5e-6)
        scheduler.tracker.roll()
        before = scheduler.current_assignment()
        plan = scheduler.plan_rebalance()
        assert scheduler.current_assignment() == before
        assert plan.variance_before >= plan.variance_after

    def test_apply_plan_moves_and_fires_hooks(self):
        scheduler = PmdScheduler(2, policy="cycles")
        hot, cold = FakePort(1), FakePort(2)
        scheduler.core_ports[0].extend([hot, cold])  # forced collision
        scheduler.tracker.record(1, 0, 9e-6)
        scheduler.tracker.record(2, 0, 1e-6)
        scheduler.tracker.roll()
        moves_seen = []
        scheduler.on_move.append(
            lambda port, src, dst: moves_seen.append((port.ofport, src,
                                                      dst)))
        plan = scheduler.rebalance()
        assert plan.moves and scheduler.port_moves == len(plan.moves)
        assert moves_seen
        assert plan.improvement > 0
        # Exactly one core each now.
        assert sorted(len(ports) for ports in scheduler.core_ports) == \
            [1, 1]

    def test_apply_plan_skips_departed_ports(self):
        scheduler = PmdScheduler(2, policy="cycles")
        hot, cold = FakePort(1), FakePort(2)
        scheduler.core_ports[0].extend([hot, cold])
        scheduler.tracker.record(1, 0, 9e-6)
        scheduler.tracker.record(2, 0, 1e-6)
        scheduler.tracker.roll()
        plan = scheduler.plan_rebalance()
        moved = {move.ofport for move in plan.moves}
        gone = hot if hot.ofport in moved else cold
        scheduler.remove_port(gone)
        applied = scheduler.apply_plan(plan)
        assert applied == len(plan.moves) - (1 if gone.ofport in moved
                                             else 0)

    def test_pin_validation(self):
        scheduler = PmdScheduler(2)
        with pytest.raises(ValueError):
            scheduler.pin(1, 2)
        with pytest.raises(ValueError):
            scheduler.isolate(-1)


class TestAutoLbPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoLbPolicy(rebalance_interval=0)
        with pytest.raises(ValueError):
            AutoLbPolicy(load_threshold=1.5)
        with pytest.raises(ValueError):
            AutoLbPolicy(improvement_threshold=-0.1)


def _wire(switch, src_name, dst_name, src_ofport=None, dst_ofport=None):
    a = switch.add_dpdkr_port(src_name, ofport=src_ofport)
    b = switch.add_dpdkr_port(dst_name, ofport=dst_ofport)
    switch.bridge.table.add(FlowEntry(
        Match(in_port=a.ofport), [OutputAction(b.ofport)], priority=10,
    ))
    return a, b


def _push(switch, port, count=8):
    for index in range(count):
        port.rings.to_switch.enqueue(mk_mbuf(src_port=1000 + index))
    switch.step_dataplane()


class TestVSwitchdAttribution:
    """Satellite: per-core stage accounting stays consistent when ports
    move cores or leave."""

    def test_del_port_subtracts_port_stages_from_core(self):
        switch = VSwitchd(n_pmd_cores=2)
        a, b = _wire(switch, "a", "b", src_ofport=2, dst_ofport=4)
        _push(switch, a)
        drain(b.rings.to_guest)
        core = switch.scheduler.core_of(a.ofport)
        before = switch._core_stages[core].total_seconds
        port_total = switch._port_stages[a.ofport].total_seconds
        assert port_total > 0
        switch.del_port(a.ofport)
        after = switch._core_stages[core].total_seconds
        assert after == pytest.approx(before - port_total)
        assert a.ofport not in switch._port_stages
        assert a.ofport not in switch._port_tees

    def test_move_reattributes_and_restarts_port_table(self):
        switch = VSwitchd(n_pmd_cores=2)
        a, b = _wire(switch, "a", "b", src_ofport=2, dst_ofport=4)
        _push(switch, a)
        drain(b.rings.to_guest)
        src_core = switch.scheduler.core_of(a.ofport)
        port_total = switch._port_stages[a.ofport].total_seconds
        core_before = switch._core_stages[src_core].total_seconds
        switch.scheduler.tracker.roll()
        switch.set_rxq_assign("cycles")
        # Force the hot port onto the other core via a pin + group.
        switch.set_rxq_assign("group")
        switch.pin_port("a", 1 - src_core)
        plan = switch.scheduler.rebalance()
        assert any(move.ofport == a.ofport for move in plan.moves)
        # Old core's table no longer claims the port's history...
        assert switch._core_stages[src_core].total_seconds == \
            pytest.approx(core_before - port_total)
        # ...and the port table restarted from zero.
        assert switch._port_stages[a.ofport].total_seconds == 0.0
        # New traffic is attributed to the new core through the tee.
        dst_core = switch.scheduler.core_of(a.ofport)
        dst_before = switch._core_stages[dst_core].total_seconds
        _push(switch, a)
        drain(b.rings.to_guest)
        assert switch._core_stages[dst_core].total_seconds > dst_before
        assert switch._port_stages[a.ofport].total_seconds > 0

    def test_reset_pmd_accounting_resets_port_tables_too(self):
        switch = VSwitchd(n_pmd_cores=2)
        a, b = _wire(switch, "a", "b")
        _push(switch, a)
        switch.reset_pmd_accounting()
        assert switch._port_stages[a.ofport].total_seconds == 0.0
        # A del_port right after a reset must not over-subtract.
        switch.del_port(a.ofport)
        for stages in switch._core_stages:
            assert stages.total_seconds >= 0.0

    def test_load_tracker_fed_from_dataplane(self):
        switch = VSwitchd(n_pmd_cores=2)
        a, b = _wire(switch, "a", "b")
        _push(switch, a)
        tracker = switch.scheduler.tracker
        tracker.roll()
        core = switch.scheduler.core_of(a.ofport)
        assert tracker.pair_load(a.ofport, core) > 0


class TestPolicyConstructor:
    def test_vswitchd_accepts_policy_kwarg(self):
        switch = VSwitchd(n_pmd_cores=4, rxq_assign="cycles")
        assert switch.scheduler.policy.name == "cycles"
        with pytest.raises(ValueError):
            VSwitchd(rxq_assign="bogus")

    def test_default_matches_legacy_hash(self):
        switch = VSwitchd(n_pmd_cores=2)
        for index in range(4):
            switch.add_dpdkr_port("dpdkr%d" % index)
        assignment = switch.core_assignment()
        assert len(assignment[0]) == 2 and len(assignment[1]) == 2


class TestAppctlSched:
    def _switch(self):
        switch = VSwitchd(n_pmd_cores=2)
        a, b = _wire(switch, "a", "b", src_ofport=2, dst_ofport=4)
        _push(switch, a)
        switch.scheduler.tracker.roll()
        return switch, a, b

    def test_pmd_rxq_show_lists_every_core_and_port(self):
        switch, a, b = self._switch()
        out = pmd_rxq_show(switch)
        assert "pmd thread core 0" in out
        assert "pmd thread core 1" in out
        assert "port: a" in out and "port: b" in out
        assert "usage:" in out

    def test_pmd_rxq_show_marks_pins_and_isolation(self):
        switch, a, b = self._switch()
        switch.pin_port("a", 0)
        switch.isolate_core(1)
        out = pmd_rxq_show(switch)
        assert "(pinned)" in out
        assert "isolated: true" in out

    def test_sched_show_reports_policy_and_skips(self):
        switch, a, b = self._switch()
        out = sched_show(switch)
        assert "policy=roundrobin" in out
        assert "auto-lb: disabled" in out
        switch.set_rxq_assign("cycles")
        switch.rebalance()
        out = sched_show(switch)
        assert "policy=cycles" in out
        assert "last plan" in out

    def test_sched_show_with_auto_lb(self):
        switch = VSwitchd(n_pmd_cores=2, auto_lb_policy=AutoLbPolicy())
        out = sched_show(switch)
        assert "auto-lb: enabled" in out
        assert "load_threshold" in out

    def test_appctl_dispatch(self):
        switch, a, b = self._switch()
        ctl = AppCtl(switch)
        assert "pmd thread core" in ctl.run("dpif-netdev/pmd-rxq-show")
        assert "rxq scheduler" in ctl.run("sched/show")
        assert "RebalancePlan" in ctl.run("sched/rebalance")


class TestSchedTimeline:
    def test_rebalance_events_recorded(self):
        switch = VSwitchd(n_pmd_cores=2, rxq_assign="cycles")
        timeline = EventTimeline()
        attach_sched_tracing(timeline, switch.scheduler)
        a, b = _wire(switch, "a", "b")
        c, d = _wire(switch, "c", "d")
        switch.scheduler.tracker.record(a.ofport, 0, 9e-6)
        switch.scheduler.tracker.record(c.ofport, 0, 1e-6)
        switch.scheduler.tracker.roll()
        # Forced collision so the rebalance has something to move.
        for ports in switch.scheduler.core_ports:
            ports.clear()
        switch.scheduler.core_ports[0].extend([a, b, c, d])
        switch.rebalance()
        assert timeline.filter("sched-rebalance")
        assert timeline.filter("sched-port-moved")
