"""Overload monitor + RX early drop: shed under pressure, recover after.

The monitor's contract: raise per-port RX shed levels only when the
upcall queue is filling AND the cores are saturated (queue alone in
sync mode), decay them as soon as the signal clears, defer to a fresh
rebalance, and tell the auto-LB that shedding is masking its busy
signal.
"""

import pytest

from repro.obs.cycles import STAGES
from repro.openflow.actions import OutputAction
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.openflow.match import Match
from repro.overload import OverloadPolicy, UpcallPolicy
from repro.sched import AutoLbPolicy
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf


def build_switch(**kwargs):
    kwargs.setdefault("overload_policy", OverloadPolicy())
    kwargs.setdefault(
        "upcall_policy",
        UpcallPolicy(max_queue=8, control_reserve=0, port_quota=8,
                     dispatch_batch=1),
    )
    return VSwitchd(connection=ControllerConnection(), **kwargs)


def fill_queue(switch, port, count=8):
    for _ in range(count):
        port.rings.to_switch.enqueue(mk_mbuf())
    switch.step_dataplane()


class TestMonitor:
    def test_raises_shed_on_pressured_port_only(self):
        switch = build_switch()
        a = switch.add_dpdkr_port("dpdkr0")
        switch.add_dpdkr_port("dpdkr1")  # quiet port
        fill_queue(switch, a)
        queue = switch.upcall_queue
        assert queue.depth >= queue.policy.max_queue // 2
        monitor = switch.overload
        monitor.iteration()
        assert monitor.overloaded_checks == 1
        assert switch.datapath.rx_shed == {
            a.ofport: pytest.approx(monitor.policy.shed_step)}
        # Still hot next check only if pressure persists: no new
        # upcall activity -> no pressured ports -> decay instead.
        monitor.iteration()
        assert switch.datapath.rx_shed[a.ofport] == pytest.approx(
            monitor.policy.shed_step - monitor.policy.recover_step)

    def test_shed_level_caps_at_max(self):
        switch = build_switch(overload_policy=OverloadPolicy(
            shed_step=0.5, max_shed=0.8))
        a = switch.add_dpdkr_port("dpdkr0")
        monitor = switch.overload
        for _ in range(3):
            fill_queue(switch, a)
            monitor.iteration()
        assert switch.datapath.rx_shed[a.ofport] == pytest.approx(0.8)

    def test_decays_to_zero_and_cleans_up(self):
        switch = build_switch(overload_policy=OverloadPolicy(
            shed_step=0.25, recover_step=0.1))
        a = switch.add_dpdkr_port("dpdkr0")
        fill_queue(switch, a)
        monitor = switch.overload
        monitor.iteration()
        assert a.ofport in switch.datapath.rx_shed
        # Drain the queue: the signal clears, levels decay away.
        switch.upcall_queue.dispatch(lambda m, p, r: m.free(),
                                     budget=100)
        for _ in range(10):
            monitor.iteration()
        assert switch.datapath.rx_shed == {}
        assert switch.datapath._shed_debt == {}
        assert monitor.shed_decreases >= 3
        assert not monitor.shedding_active

    def test_grace_period_after_rebalance(self):
        switch = build_switch()
        a = switch.add_dpdkr_port("dpdkr0")
        fill_queue(switch, a)
        monitor = switch.overload
        monitor._on_rebalance(None)  # what scheduler.on_apply fires
        monitor.iteration()
        monitor.iteration()
        assert monitor.deferred_to_rebalance == 2
        assert switch.datapath.rx_shed == {}
        # Grace exhausted: the third hot check sheds.
        monitor.iteration()
        assert a.ofport in switch.datapath.rx_shed

    def test_monitor_noop_without_queue(self):
        switch = build_switch(upcall_policy=None)
        switch.add_dpdkr_port("dpdkr0")
        switch.overload.iteration()
        assert switch.overload.checks_run == 1
        assert switch.datapath.rx_shed == {}


class TestRxEarlyDrop:
    def test_fractional_shed_drops_deterministic_tail(self):
        connection = ControllerConnection()
        switch = VSwitchd(connection=connection)
        controller = SimpleController(connection)
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        controller.install_flow(Match(in_port=a.ofport),
                                [OutputAction(b.ofport)])
        switch.step_control()
        switch.datapath.rx_shed[a.ofport] = 0.5
        mbufs = [mk_mbuf() for _ in range(32)]
        for mbuf in mbufs:
            a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        # Half dropped at RX (before any lookup), half delivered.
        assert switch.datapath.rx_early_drops[a.ofport] == 16
        assert len(drain(b.rings.to_guest)) == 16
        # Conservation: rx == delivered + accounted drops.
        assert a.rx_packets == 32
        assert all(m.refcnt == 0 for m in mbufs[16:])
        # The shed packets have their own stage, and every stage the
        # datapath emitted for this burst is one pmd/stats-show knows.
        core_stages = switch._core_stages[0]
        assert core_stages.packets["rx_shed"] == 16
        assert core_stages.seconds["rx_shed"] == (
            switch.costs.upcall_shed * 16)
        assert set(core_stages.seconds) <= set(STAGES)

    def test_debt_accumulates_across_small_bursts(self):
        connection = ControllerConnection()
        switch = VSwitchd(connection=connection)
        a = switch.add_dpdkr_port("dpdkr0")
        switch.datapath.rx_shed[a.ofport] = 0.25
        # 1-packet bursts: every 4th packet is dropped via the debt.
        for _ in range(8):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.rx_early_drops[a.ofport] == 2

    def test_full_shed_drops_everything_cheaply(self):
        connection = ControllerConnection()
        switch = VSwitchd(connection=connection)
        a = switch.add_dpdkr_port("dpdkr0")
        switch.datapath.rx_shed[a.ofport] = 1.0
        for _ in range(16):
            a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert switch.datapath.rx_early_drops[a.ofport] == 16
        # Nothing reached classification or the upcall path.
        assert switch.datapath.upcalls_no_match == 0
        assert switch.datapath.packets_processed == 0


class TestAutoLbCooperation:
    def test_shedding_overrides_no_overload_skip(self):
        switch = build_switch(auto_lb_policy=AutoLbPolicy())
        a = switch.add_dpdkr_port("dpdkr0")
        auto_lb = switch.auto_lb
        assert auto_lb.overload_monitor is switch.overload
        # Burn the warmup interval.
        auto_lb.iteration()
        assert auto_lb.skipped_warmup == 1
        # Idle cores, no shedding: the normal skip.
        auto_lb.iteration()
        assert auto_lb.skipped_no_overload == 1
        # Idle cores but active shedding: the skip is overridden (the
        # busy signal is a lie while drops are free).
        switch.datapath.rx_shed[a.ofport] = 0.5
        auto_lb.iteration()
        assert auto_lb.overload_overrides == 1
        assert auto_lb.skipped_no_overload == 1

    def test_monitor_subscribes_to_scheduler_apply(self):
        switch = build_switch()
        assert switch.overload._on_rebalance \
            in switch.scheduler.on_apply
