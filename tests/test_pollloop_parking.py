"""Every site that wakes a parked poll loop, as a differential against
the every-poll-is-an-event reference (tests/support/reference_pollloop.py).

A parked loop is exact only as long as whatever changes what its idle
polls would read or publish wakes it first.  Each scenario here drives
one such change into a system whose loops are parked at that moment,
runs once on ``PollLoop`` and once with every owner building the
reference loop, and compares everything observable — loop accounting to
the bit, heartbeat epochs, fault occurrence numbering, watchdog verdicts
and their modelled times, per-packet latencies — sampled along the way
and at the end.  Only ``Environment.events_processed`` may differ.
"""

import dataclasses
import math

import pytest

from repro.core.bypass import RetryPolicy
from repro.core.pmd import DualChannelPmd
from repro.core.stats import BypassStatsBlock
from repro.core.watchdog import WatchdogPolicy
from repro.dpdk.dpdkr import DpdkrSharedRings
from repro.faults import PMD_RX_POLL, FaultMode, FaultPlan
from repro.mem.ring import Ring
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import PortMod
from repro.openflow.table import FlowEntry
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.sim.pollloop import IdleContract, PollLoop
from repro.traffic.generator import SourceApp, WireSource
from repro.traffic.sink import SinkApp
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf
from tests.support.reference_pollloop import (
    ReferencePollLoop,
    every_poll_an_event,
)

FAST_WATCHDOG = WatchdogPolicy(poll_interval=0.005, stall_polls=3,
                               heartbeat_polls=6)
FAST_READMIT = RetryPolicy(quarantine_backoff=0.05,
                           quarantine_backoff_factor=1.0,
                           max_quarantine_backoff=0.05)


class Rig:
    """vm1 streams to vm2 (and whatever else a scenario adds), with a
    list of snapshots taken while it runs."""

    def __init__(self, rate_pps=2e4, n_pmd_cores=2, **node_kwargs):
        self.env = env = Environment()
        node_kwargs.setdefault("watchdog_policy", FAST_WATCHDOG)
        node_kwargs.setdefault("retry_policy", FAST_READMIT)
        self.node = node = NfvNode(env=env, n_pmd_cores=n_pmd_cores,
                                   **node_kwargs)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.start()
        self.source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                                rate_pps=rate_pps)
        self.sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        self.latencies = []
        self.sink.latency.record = self.latencies.append
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        self.loops = [self.source.start(env), self.sink.start(env)]
        self.loops += node.switch._pmd_loops
        self.snapshots = []
        self.plan = None

    def at(self, when, action):
        """Run ``action()`` from a rank-0 event at simulated ``when``."""
        self.env.timeout(when - self.env.now).callbacks.append(
            lambda _event: action())

    def run(self, until, samples=4):
        """Advance to ``until``, snapshotting ``samples`` times."""
        start = self.env.now
        for index in range(1, samples + 1):
            self.env.run(until=start + (until - start) * index / samples)
            self.snapshots.append(self.snapshot())

    def snapshot(self):
        node = self.node
        manager = node.manager
        out = {
            "now": self.env.now,
            "loops": {
                loop.name: (loop.iterations, loop.idle_iterations,
                            loop.idle_time, loop.busy_time)
                for loop in self.loops},
            "pmds": {
                port: (pmd.rings.heartbeat.epoch, pmd.channel_stats(),
                       pmd.stats.ipackets, pmd.stats.opackets)
                for handle in node.vms.values()
                for port, pmd in handle.pmds.items()},
            "ports": {
                name: (port.rx_packets, port.tx_packets, port.tx_dropped)
                for name, port in node.ports.items()},
            "generated": self.source.generated,
            "received": self.sink.received,
            "latencies": len(self.latencies),
        }
        if manager is not None:
            out["links"] = [
                (link.state, link.t_detected, link.t_active,
                 link.t_teardown_started, link.t_removed, link.attempts,
                 None if link.stats is None
                 else (link.stats.rx_epoch, link.stats.rx_dequeued))
                for link in manager.history]
            out["resilience"] = dataclasses.asdict(manager.resilience)
            out["quarantine"] = {
                key: (record.reason, record.until, record.heartbeat_mark)
                for key, record in manager.quarantined_links.items()}
        queue = node.switch.upcall_queue
        if queue is not None:
            out["upcalls"] = queue.stats()
        if self.plan is not None:
            out["faults"] = (
                dict(self.plan.occurrences),
                [(action.point, action.mode, action.occurrence)
                 for action in self.plan.injected])
        return out

    def outcome(self):
        return {"snapshots": self.snapshots, "latencies": self.latencies,
                "events": self.env.events_processed,
                "parks": {loop.name: loop.parks for loop in self.loops}}


def differential(scenario):
    """``scenario()`` on the reference and on ``PollLoop``: everything
    but the park counts and the engine's event count (fewer) must be
    equal; returns the park counts of the parked run."""
    with every_poll_an_event():
        expected = scenario()
    outcome = scenario()
    assert not any(expected.pop("parks").values())
    parks = outcome.pop("parks")
    assert outcome.pop("events") < expected.pop("events")
    assert outcome == expected
    return parks


# -- the consumer side: core.pmd ------------------------------------------------


def test_crashing_a_parked_consumer_is_classified_at_the_same_time():
    """The sink sits parked between packets 50 us apart when its VM is
    killed; the watchdog must still call PEER_CRASHED, and at the same
    modelled instant (teardown timestamps are in the snapshots)."""
    def scenario():
        rig = Rig()
        rig.run(0.3)
        assert rig.node.active_bypasses == 1
        rig.at(0.300013, lambda: rig.node.hypervisor.crash_vm("vm2"))
        rig.run(0.34, samples=8)
        assert rig.node.manager.resilience.peer_crashes == 1
        return rig.outcome()

    parks = differential(scenario)
    assert parks["sink"] > 1000


def test_arming_a_spec_while_parked_keeps_occurrence_numbering():
    """``pmd.rx_poll`` occurrences are counted per real poll of a PMD
    that consumes a bypass.  The plan is installed empty (nothing to
    count, so the sink parks); the spec added mid-park must see the very
    poll the reference sees as occurrence 3."""
    def scenario():
        rig = Rig()
        rig.plan = plan = FaultPlan(seed=5)
        rig.node.install_fault_plan(plan)
        rig.run(0.3)
        rig.at(0.300013, lambda: plan.inject(
            PMD_RX_POLL, FaultMode.DELAY, occurrences=(3,), delay=0.004))
        rig.run(0.32, samples=8)
        assert [action.occurrence for action in plan.injected] == [3]
        return rig.outcome()

    parks = differential(scenario)
    assert parks["sink"] > 1000


def test_installing_a_plan_late_wakes_the_parked_consumer():
    """The other way a spec reaches a parked PMD: a whole plan installed
    late.  The freeze it injects is long enough for the watchdog to
    degrade the link, so a poll counted late would move the verdict."""
    def scenario():
        rig = Rig()
        rig.run(0.3)
        rig.plan = plan = FaultPlan(seed=3)
        plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(2,),
                    delay=0.03)
        rig.at(0.300013, lambda: rig.node.install_fault_plan(plan))
        rig.run(0.42, samples=12)
        assert rig.node.manager.resilience.stalled_consumers == 1
        return rig.outcome()

    differential(scenario)


def test_a_frozen_or_counted_consumer_does_not_park():
    """A DELAY freeze thaws with time, which no waiter reports, and
    while a ``pmd.rx_poll`` spec is registered every poll is a numbered
    occurrence: the consumer polls for real through both."""
    rig = Rig()
    rig.plan = plan = FaultPlan(seed=1)
    plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,), delay=0.002)
    rig.env.run(until=0.3)
    rig.node.install_fault_plan(plan)
    sink_loop = rig.loops[1]
    rig.env.run(until=0.3011)
    frozen = rig.node.vms["vm2"].pmd("dpdkr1")
    assert frozen._rx_frozen_until is not None
    parks, replayed = sink_loop.parks, sink_loop.replayed_polls
    rig.env.run(until=0.3019)
    assert sink_loop.parks == parks and not sink_loop._parked
    rig.env.run(until=0.31)
    assert frozen._rx_frozen_until is None
    assert sink_loop.parks == parks and sink_loop.replayed_polls == replayed
    # One occurrence per poll that was not itself frozen out.
    assert plan.occurrences[PMD_RX_POLL] > 1000


def test_bypass_rings_attach_and_detach_under_a_parked_consumer():
    """Establishment attaches a bypass ring to the parked sink's PMD and
    the divert tears it down again: from one poll to the next the set of
    epochs an idle poll beats changes (heartbeat and ``rx_epoch`` are in
    the snapshots)."""
    from repro.openflow.actions import OutputAction
    from repro.openflow.match import Match

    def scenario():
        rig = Rig(rate_pps=5e3)
        node = rig.node
        node.create_vm("vm3", ["div0"])
        rig.run(0.15, samples=10)
        divert = Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800)
        node.controller.install_flow(
            divert, [OutputAction(node.ofport("div0"))], priority=0x9000)
        rig.run(0.25, samples=10)
        node.controller.delete_flow(divert, strict=True, priority=0x9000)
        rig.run(0.4, samples=10)
        assert [link.t_active > 0 for link in node.manager.history] \
            == [True, True]
        return rig.outcome()

    parks = differential(scenario)
    assert parks["sink"] > 100
    assert max(parks["ovs.pmd0"], parks["ovs.pmd1"]) > 100


# -- the switch side: vswitchd PMD cores ---------------------------------------


def switched_rig(**kwargs):
    """The stream crosses the switch (no highway), so the core that
    serves dpdkr0 works and the other one idles."""
    return Rig(highway_enabled=False, **kwargs)


def test_rebalancing_an_rxq_onto_a_parked_core():
    """dpdkr0's rxq moves to the core that was parked with nothing to
    do; the first packet after the move must be picked up at the poll
    the reference picks it up at (per-packet latencies are compared)."""
    def scenario():
        rig = switched_rig()
        switch = rig.node.switch
        rig.run(0.01)
        before = switch.scheduler.core_of(rig.node.ofport("dpdkr0"))

        def move():
            switch.set_rxq_assign("group")
            switch.pin_port("dpdkr0", 1 - before)
            switch.rebalance()

        rig.at(0.010013, move)
        rig.run(0.02)
        assert switch.scheduler.core_of(rig.node.ofport("dpdkr0")) \
            == 1 - before
        return rig.outcome()

    parks = differential(scenario)
    assert min(parks["ovs.pmd0"], parks["ovs.pmd1"]) >= 1


def test_bringing_a_down_port_up_with_a_non_empty_ring():
    """While dpdkr0 is down its ring fills and the core, which must not
    read it, parks beside it; nothing is enqueued when the port comes
    back up, so only the port-mod itself can wake the core."""
    def scenario():
        rig = switched_rig()
        node = rig.node
        port_no = node.ofport("dpdkr0")
        rig.run(0.01)
        rig.at(0.010013, lambda: node.connection.controller_send(
            PortMod(port_no=port_no, down=True)))
        rig.at(0.012, rig.source.stop)
        rig.run(0.015)
        ring = node.ports["dpdkr0"].rings.to_switch
        assert not node.ports["dpdkr0"].up and len(ring) > 0
        rig.at(0.015013, lambda: node.connection.controller_send(
            PortMod(port_no=port_no, down=False)))
        rig.run(0.02)
        assert len(ring) == 0 and rig.sink.received == rig.source.generated
        return rig.outcome()

    differential(scenario)


def test_adding_and_deleting_ports_under_parked_cores():
    """A port added to a parked core has a ring the core never watched;
    a deleted one must stop being served at once."""
    def scenario():
        rig = switched_rig(rate_pps=5e3)
        node = rig.node
        rig.run(0.01)

        def add():
            node.create_vm("vm3", ["extra0"])
            node.install_p2p_rule("extra0", "dpdkr1")
            rig.extra = SourceApp("src.extra", node.vms["vm3"].pmd("extra0"),
                                  rate_pps=7e3)
            rig.loops.append(rig.extra.start(rig.env))

        rig.at(0.010013, add)
        rig.run(0.02)
        rig.at(0.020013,
               lambda: node.switch.del_port(node.ofport("extra0")))
        rig.run(0.03)
        assert rig.sink.received > rig.source.generated
        return rig.outcome()

    differential(scenario)


def test_an_upcall_queued_from_outside_the_pmd_iteration():
    """Both cores are parked when an upcall lands in the queue (a
    packet-out punt does this); whichever core the reference lets
    dispatch it first must still be the one."""
    def scenario():
        rig = switched_rig(rate_pps=5e3)
        node = rig.node
        rig.run(0.01)
        queue = node.switch.upcall_queue
        rig.at(0.010013, lambda: queue.admit(
            mk_mbuf(), node.ofport("dpdkr0"), "no_match"))
        rig.run(0.011, samples=10)
        assert queue.dispatched >= 1 and queue.depth == 0
        return rig.outcome()

    differential(scenario)


def test_a_wire_burst_wakes_the_core_parked_on_a_nic_queue():
    """A core that serves a PHY port parks on the NIC's RX ring like on
    any other.  The wire delivers a 32-frame burst every 215 us, one
    ``Ring.enqueue`` per frame from a rank-0 process; the first of them
    must get the core polling at the grid point the reference polls at."""
    def scenario():
        rig = switched_rig(rate_pps=5e3)
        node = rig.node
        eth0 = node.add_nic("eth0")
        node.controller.install_flow(
            Match(in_port=eth0.ofport),
            [OutputAction(node.ofport("dpdkr1"))])
        wire = WireSource(rig.env, eth0.nic, load=0.01)
        rig.run(0.005, samples=10)
        assert eth0.rx_packets == wire.generated > 600
        assert rig.sink.received > eth0.rx_packets - 32
        outcome = rig.outcome()
        phy_core = node.switch.scheduler.core_of(eth0.ofport)
        outcome["parks"] = {"phy": outcome["parks"]["ovs.pmd%d" % phy_core]}
        return outcome

    assert differential(scenario)["phy"] > 20


# -- the loop's own lifecycle ---------------------------------------------------


@pytest.mark.parametrize("restart", [False, True])
def test_stopping_parked_loops_accounts_the_skipped_polls(restart):
    """``stop()`` on a parked loop (sink, switch cores) — and a switch
    started again afterwards — reads as if every poll had run."""
    def scenario():
        rig = switched_rig()
        rig.run(0.005)
        rig.at(0.005013, rig.sink.loop.stop)
        rig.at(0.006013, rig.node.switch.stop)
        if restart:
            def start_again():
                rig.node.switch.start()
                rig.loops += rig.node.switch._pmd_loops
            rig.at(0.007013, start_again)
        rig.run(0.01)
        return rig.outcome()

    differential(scenario)


# -- where the simulator's own time did not go -----------------------------------


def test_parks_and_replayed_polls_are_exported():
    rig = Rig()
    rig.env.run(until=0.15)
    samples = {(sample.name, sample.labels.get("loop")): sample.value
               for sample in rig.node.obs.registry.collect()
               if sample.name.startswith("repro_pollloop_")}
    for loop in rig.node.switch._pmd_loops:
        assert loop.parks > 0 and loop.replayed_polls > 0
        assert samples["repro_pollloop_parks_total", loop.name] == loop.parks
        assert samples["repro_pollloop_replayed_polls_total", loop.name] \
            == loop.replayed_polls
        # Replayed polls are iterations like any other ...
        assert samples["repro_pollloop_idle_iterations_total", loop.name] \
            >= loop.replayed_polls
    # ... but not events: the engine counted far fewer than were polled.
    polled = sum(loop.iterations for loop in rig.loops)
    assert rig.env.events_processed < polled // 5
    text = rig.node.switch.pmd_cycle_report().render()
    loop = rig.node.switch._pmd_loops[0]
    assert "iterations: %d (%d idle, %d replayed)" % (
        loop.iterations, loop.idle_iterations, loop.replayed_polls) in text


def test_run_returns_when_only_parked_loops_remain():
    """``Environment.run()`` without ``until`` used to spin for ever on
    the first busy-poll loop; a parked loop is not in the queue, so the
    run ends with the last real event and the loop accounted up to it."""
    def drive(loop_class, until):
        env = Environment()
        ring = Ring("work", 8)

        class Consumer(IdleContract):
            def iteration(self):
                return 1e-6 if ring.dequeue_burst(4) else 0.0

            def idle_until(self, loop):
                if not ring.is_empty:
                    return None
                ring.watch(loop)
                return math.inf

        consumer = Consumer()
        loop = loop_class(env, "consumer", consumer.iteration,
                          idle=consumer).start()
        env.timeout(1e-3).callbacks.append(lambda _event: ring.enqueue(1))
        return env.run(until=until), loop

    end, loop = drive(PollLoop, None)
    assert 1e-3 < end < 1e-3 + 6e-6 and loop._parked
    _end, reference = drive(ReferencePollLoop, end)
    assert (loop.iterations, loop.idle_time, loop.busy_time) \
        == (reference.iterations, reference.idle_time, reference.busy_time)
    assert loop.iterations > 200 and loop.busy_time == 1e-6


# -- a paced source, its look-ahead, and the consumers it wakes -----------------

# The source's poll grid after a busy iteration is 165 ns, then 250,
# 500, 1000 ... ns apart up to 5 us.  Each rate puts a different number
# of those grid points between two packets, so the look-ahead ends on
# its first point (and just arms the timer), after one, after two or
# three, or at its horizon with the packet still far off.
PACED = {
    "next_poll": (8e6, 0.0002),
    "one_grid_point": (3e6, 0.0003),
    "two_or_three_grid_points": (0.7e6, 0.0006),
    "beyond_the_lookahead": (2e3, 0.004),
}


def paced_stream(rate_pps, until, bypass):
    """A paced ``SourceApp`` on port a, a ``SinkApp`` on port b and a
    one-core switch forwarding a -> b — or, with ``bypass``, a ring
    attached by hand between the two PMDs.  Returns everything the two
    kinds of loop may not disagree on."""
    env = Environment()
    switch = VSwitchd(env=env, n_pmd_cores=1)
    a = switch.add_dpdkr_port("a")
    b = switch.add_dpdkr_port("b")
    switch.bridge.table.add(FlowEntry(Match(in_port=a.ofport),
                                      [OutputAction(b.ofport)]))
    tx = DualChannelPmd(0, DpdkrSharedRings.attach(a.rings.zone))
    rx = DualChannelPmd(1, DpdkrSharedRings.attach(b.rings.zone))
    stats = BypassStatsBlock("a-b", a.ofport, b.ofport)
    if bypass:
        ring = Ring("a-b", 1024)
        rx.attach_bypass_rx(ring, stats)
        tx.attach_bypass_tx(ring, stats, flow_id=1)
    switch.start()
    source = SourceApp("src", tx, rate_pps=rate_pps)
    sink = SinkApp("sink", rx)
    latencies = []
    sink.latency.record = latencies.append
    log = []

    def logged(name, iteration):
        def run():
            cost = iteration()
            if cost:
                log.append((env.now, name, cost))
            return cost
        return run

    source.iteration = logged("src", source.iteration)
    sink.iteration = logged("sink", sink.iteration)
    loops = [sink.start(env), source.start(env)] + switch._pmd_loops
    for loop in switch._pmd_loops:
        loop.iteration = logged(loop.name, loop.iteration)
    env.run(until=until)
    return {
        "log": log,
        "latencies": latencies,
        "loops": {loop.name: (loop.iterations, loop.idle_iterations,
                              loop.idle_time, loop.busy_time)
                  for loop in loops},
        "source": (source.generated, source.tx_failures,
                   source.pool.in_use),
        "sink": (sink.received, sink.received_bytes),
        "pmds": [(pmd.rings.heartbeat.epoch, pmd.channel_stats(),
                  pmd.stats.ipackets, pmd.stats.opackets)
                 for pmd in (tx, rx)],
        "bypass": (stats.rx_epoch, stats.rx_dequeued, stats.tx_packets),
        "switch": (a.rx_packets, b.tx_packets, b.tx_dropped,
                   switch.datapath.packets_processed),
        "events": env.events_processed,
        "parks": {loop.name: loop.parks for loop in loops},
    }


@pytest.mark.parametrize("bypass", [False, True],
                         ids=["through_the_switch", "over_a_bypass_ring"])
@pytest.mark.parametrize("pace", sorted(PACED))
def test_a_paced_source_feeding_parked_consumers(pace, bypass):
    rate_pps, until = PACED[pace]
    parks = differential(lambda: paced_stream(rate_pps, until, bypass))
    assert parks["sink"] > 3
    assert (parks["ovs.pmd0"] > 3) or bypass
    # A source whose very next poll is due never leaves the queue.
    assert (parks["src"] > 3) == (pace != "next_poll")


# -- VSwitchd lifecycle ----------------------------------------------------------


def test_a_restarted_switch_runs_one_control_loop():
    """``stop()`` then ``start()``: the first control process used to
    see ``_running`` True again and pump the bridge beside the second."""
    env = Environment()
    switch = VSwitchd(env=env, n_pmd_cores=1)
    switch.add_dpdkr_port("dpdkr0")
    pumps = []
    pump = switch.bridge.pump
    switch.bridge.pump = lambda: pumps.append(env.now) or pump()

    def pumps_in(seconds):
        before = len(pumps)
        env.run(until=env.now + seconds)
        return len(pumps) - before

    switch.start()
    assert 20 <= pumps_in(0.01) <= 21    # one every 0.5 ms
    switch.stop()
    switch.start()
    assert 20 <= pumps_in(0.01) <= 22    # 40 with two control loops
    switch.stop()
    assert pumps_in(0.01) <= 1
