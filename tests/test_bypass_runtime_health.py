"""Runtime health monitoring and lossless live fallback.

The tentpole scenario of this PR: an ACTIVE bypass whose consumer
stops draining is detected by the host watchdog from shared memory
alone, every packet stranded in the bypass ring is re-homed onto the
switch path in order, the sender resumes through OVS, and the link is
quarantined with the ``degraded`` reason until the peer proves (by
heartbeating) that it polls again — at which point it is re-admitted
automatically.

The by-hand tests hold the watchdog's own loop off, drive
:meth:`BypassWatchdog.check_once` themselves and pin each verdict
(STALLED / WEDGED / DEAD_PEER / CORRUPT) exactly; the live tests run
the whole loop under traffic, asserting zero loss and zero reordering
end to end.  Everything is deterministic and seedable:
``REPRO_FAULT_SEED`` / ``REPRO_RUNTIME_FAULT_KIND`` parameterize the
sweep the CI matrix fans out over.
"""

import dataclasses
import os

import pytest

from repro.core.bypass import LinkState, RetryPolicy
from repro.core.watchdog import HealthState, WatchdogPolicy
from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.faults import PMD_RX_POLL, RING_CORRUPT, FaultMode, FaultPlan
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp
from repro.vswitch.appctl import AppCtl

from tests.helpers import mk_mbuf, view_values


# Fast detection + fast re-admission so scenarios fit in < 1 s of sim
# time without weakening any protocol step.
FAST_WATCHDOG = WatchdogPolicy(poll_interval=0.005, stall_polls=3,
                               heartbeat_polls=6)
FAST_READMIT = RetryPolicy(quarantine_backoff=0.15,
                           quarantine_backoff_factor=1.0,
                           max_quarantine_backoff=0.15)


def build_sync_node():
    # One poll an hour: every check these tests count is their own.
    node = NfvNode(watchdog_policy=dataclasses.replace(
        FAST_WATCHDOG, poll_interval=3600.0))
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    node.settle_control_plane()
    assert node.active_bypasses == 1
    return node


def active_link(node):
    return node.manager.active_links[node.ofport("dpdkr0")]


class TestWatchdogSync:
    """check_once() verdict by verdict, state pinned exactly."""

    def test_healthy_link_stays_tracked(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        assert watchdog.check_once() == 1
        track = watchdog.health[node.ofport("dpdkr0")]
        assert track.verdict == HealthState.HEALTHY
        assert node.active_bypasses == 1

    def test_stalled_consumer_detected_and_salvaged_in_order(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        receiver.rx_burst(32)  # sign-on: the consumer proves it polls
        stranded = [mk_mbuf() for _ in range(5)]
        assert sender.tx_burst(stranded) == 5
        # The consumer now goes silent.  One check to take a baseline,
        # then stall_polls frozen deltas => verdict on check
        # stall_polls + 1, not a poll earlier.
        for _ in range(FAST_WATCHDOG.stall_polls):
            watchdog.check_once()
            assert node.active_bypasses == 1  # not yet
        watchdog.check_once()
        # Fallback ran synchronously inside the check:
        res = node.manager.resilience
        assert res.stalled_consumers == 1
        assert res.links_degraded == 1
        assert res.packets_salvaged == 5
        assert node.manager.packets_lost_to_failures == 0
        # ...the stranded packets moved, in order, to the normal channel:
        assert receiver.rx_burst(32) == stranded
        assert not receiver.bypass_rx_active
        # ...the sender was resumed onto the switch path:
        from repro.core.pmd import TxState

        assert sender.tx_state == TxState.NORMAL
        follow_up = mk_mbuf()
        sender.tx_burst([follow_up])
        assert sender.rings.to_switch.peek() is follow_up
        # ...and the link sits in quarantine with the degraded reason.
        record = node.manager.quarantined_links[node.ofport("dpdkr0")]
        assert record.reason == "degraded"
        assert record.heartbeat_mark is not None

    def test_never_signed_on_consumer_is_not_a_stall(self):
        # A consumer that never polled can't be distinguished from an
        # app still booting: the watchdog must not declare a stall on a
        # channel nobody ever signed on to.
        node = build_sync_node()
        watchdog = node.manager.watchdog
        sender = node.vms["vm1"].pmd("dpdkr0")
        sender.tx_burst([mk_mbuf() for _ in range(4)])
        for _ in range(20):
            watchdog.check_once()
        assert node.active_bypasses == 1
        assert node.manager.resilience.stalled_consumers == 0

    def test_draining_consumer_resets_the_streak(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        receiver.rx_burst(32)
        sender.tx_burst([mk_mbuf() for _ in range(8)])
        watchdog.check_once()  # baseline
        watchdog.check_once()  # streak 1
        watchdog.check_once()  # streak 2
        receiver.rx_burst(1)   # progress!
        watchdog.check_once()  # streak resets to 0
        watchdog.check_once()
        watchdog.check_once()
        assert node.active_bypasses == 1
        track = watchdog.health[node.ofport("dpdkr0")]
        assert track.stall_streak < FAST_WATCHDOG.stall_polls

    def test_wedged_guest_needs_frozen_heartbeat_and_backlog(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        policy = watchdog.policy
        receiver = node.vms["vm2"].pmd("dpdkr1")
        receiver.rx_burst(32)  # port heartbeat signs on (epoch 1)
        # Heartbeat frozen but nothing pending: idle, not wedged.
        for _ in range(policy.heartbeat_polls + 2):
            watchdog.check_once()
        assert node.active_bypasses == 1
        # Now packets back up on the guest's normal channel while the
        # heartbeat stays frozen: that is a hang.
        node.registry.lookup(dpdkr_zone_name("dpdkr1")).get("rx").enqueue(
            mk_mbuf()
        )
        for _ in range(policy.heartbeat_polls + 1):
            watchdog.check_once()
        assert node.active_bypasses == 0
        assert node.manager.resilience.wedged_guests == 1
        record = node.manager.quarantined_links[node.ofport("dpdkr0")]
        assert record.reason == "degraded"

    def test_dead_peer_backstop(self):
        # The agent knows the VM is gone but (say) the failure callback
        # was lost: the watchdog notices the contradiction on its own.
        node = build_sync_node()
        watchdog = node.manager.watchdog
        sender = node.vms["vm1"].pmd("dpdkr0")
        sender.tx_burst([mk_mbuf() for _ in range(3)])
        node.agent.dead_vms.add("vm2")
        watchdog.check_once()
        res = node.manager.resilience
        assert res.dead_peer_fallbacks == 1
        assert node.active_bypasses == 0
        # Nobody left to salvage toward: the ring's packets are lost
        # and accounted, not leaked.
        assert res.packets_salvaged == 0
        assert node.manager.packets_lost_to_failures == 3

    def test_corrupt_ring_detected_smashed_slot_counted_lost(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        plan = FaultPlan(seed=3)
        plan.inject(RING_CORRUPT, FaultMode.ERROR, occurrences=(1,))
        node.install_fault_plan(plan)
        batch = [mk_mbuf() for _ in range(4)]
        sender.tx_burst(batch)  # corruption fires: oldest slot smashed
        assert active_link(node).ring.corruptions_injected == 1
        watchdog.check_once()
        res = node.manager.resilience
        assert res.ring_integrity_failures == 1
        # Three survivors salvaged in order; the smashed one is lost.
        assert res.packets_salvaged == 3
        assert node.manager.packets_lost_to_failures == 1
        assert receiver.rx_burst(32) == batch[1:]

    def test_generation_mismatch_is_a_corruption(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        watchdog.check_once()  # pins the track's expected generation
        active_link(node).ring.generation += 1
        watchdog.check_once()
        assert node.manager.resilience.ring_integrity_failures == 1
        assert node.active_bypasses == 0

    def test_bypass_health_command_renders_state(self):
        node = build_sync_node()
        watchdog = node.manager.watchdog
        appctl = AppCtl(node.switch, node.manager, node.obs)
        watchdog.check_once()
        src = node.ofport("dpdkr0")
        values = view_values(appctl.run("bypass/health"))
        assert values["repro_watchdog_checks_total"] == watchdog.checks_run
        assert values['repro_watchdog_link_verdict{src_ofport="%d",'
                      'verdict="healthy"}' % src] == 1
        assert values['repro_resilience_total{counter="stalled_consumers"}'] \
            == 0
        # Degrade the link and the command reflects it.
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        receiver.rx_burst(32)
        sender.tx_burst([mk_mbuf()])
        for _ in range(FAST_WATCHDOG.stall_polls + 2):
            watchdog.check_once()
        values = view_values(appctl.run("bypass/health"))
        assert values['repro_resilience_total{counter="stalled_consumers"}'] \
            == 1
        degraded = 'dst_ofport="%d",reason="degraded",src_ofport="%d"' % (
            node.ofport("dpdkr1"), src)
        assert values["repro_bypass_quarantined_links"] == 1
        assert values["repro_bypass_quarantine_failures{%s}" % degraded] == 1
        assert "repro_bypass_quarantine_heartbeat_mark{%s}" % degraded \
            in values

    def test_bypass_show_reports_ring_accounting(self):
        node = build_sync_node()
        appctl = AppCtl(node.switch, node.manager)
        text = appctl.run("bypass/show")
        assert "enq_fail=0 partial=0" in text


def fast_node(env, **kwargs):
    kwargs.setdefault("watchdog_policy", FAST_WATCHDOG)
    kwargs.setdefault("retry_policy", FAST_READMIT)
    node = NfvNode(env=env, **kwargs)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.switch.start()
    return node


class OrderSink(SinkApp):
    """A sink that records every delivered sequence number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seqs = []

    def iteration(self):
        mbufs = self.port.rx_burst(self.burst_size)
        if not mbufs:
            return 0.0
        self.received += len(mbufs)
        for mbuf in mbufs:
            self.seqs.append(mbuf.seq)
            mbuf.free()
        return 1e-6


class TestLiveFallbackEndToEnd:
    """The acceptance scenario: seeded consumer freeze mid-traffic."""

    def test_freeze_detect_salvage_readmit_zero_loss_in_order(self):
        env = Environment()
        node = fast_node(env)
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e4)
        sink = OrderSink("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        assert node.active_bypasses == 1
        assert node.vms["vm1"].pmd("dpdkr0").tx_via_bypass > 0
        # Freeze the consumer's poll loop for 80 ms, starting with its
        # very next poll — deterministic (occurrence 1 of a late-armed
        # plan), reproducible, and far longer than the watchdog's
        # detection budget.
        plan = FaultPlan(seed=11)
        plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,),
                    delay=0.08)
        node.install_fault_plan(plan)
        env.run(until=0.4)
        res = node.manager.resilience
        # Detected within the poll budget and fallen back:
        assert res.stalled_consumers == 1
        assert res.links_degraded == 1
        assert res.packets_salvaged > 0
        assert node.manager.packets_lost_to_failures == 0
        # Re-admission after the peer thawed and heartbeat again:
        env.run(until=0.8)
        assert node.active_bypasses == 1
        assert res.degraded_readmissions == 1
        assert res.links_recovered >= 1
        source.stop()
        env.run(until=0.9)
        # Zero loss: every generated packet was delivered...
        assert source.tx_failures == 0
        assert node.ports["dpdkr1"].tx_dropped == 0
        assert sink.received == source.generated
        # ...and zero reordering, across freeze, fallback, switch-path
        # service and the re-established bypass alike.
        assert sink.seqs == sorted(sink.seqs)
        assert sink.seqs == list(range(source.generated))
        # The operator-facing story matches.
        values = view_values(AppCtl(node.switch, node.manager, node.obs)
                             .run("bypass/health"))
        assert values['repro_resilience_total{counter="stalled_consumers"}'] \
            == node.manager.resilience.stalled_consumers

    def test_permanently_wedged_peer_defers_readmission(self):
        env = Environment()
        node = fast_node(env)
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e4)
        sink = OrderSink("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        assert node.active_bypasses == 1
        plan = FaultPlan(seed=11)
        plan.inject(PMD_RX_POLL, FaultMode.ERROR, occurrences=(1,))
        node.install_fault_plan(plan)
        env.run(until=0.35)
        source.stop()  # bound the backlog toward the dead-for-good peer
        env.run(until=1.0)
        res = node.manager.resilience
        assert res.stalled_consumers == 1
        # The quarantine ladder keeps looking, but a silent peer is
        # never re-admitted: no flapping toward a wedged guest.
        assert res.readmissions_deferred >= 2
        assert res.degraded_readmissions == 0
        assert node.active_bypasses == 0
        record = node.manager.quarantined_links[node.ofport("dpdkr0")]
        assert record.reason == "degraded"

    def test_corruption_under_live_traffic(self):
        env = Environment()
        node = fast_node(env)
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e4)
        sink = OrderSink("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        assert node.active_bypasses == 1
        plan = FaultPlan(seed=7)
        plan.inject(RING_CORRUPT, FaultMode.ERROR, occurrences=(1,))
        node.install_fault_plan(plan)
        env.run(until=0.6)
        res = node.manager.resilience
        assert res.ring_integrity_failures == 1
        assert res.links_degraded == 1
        source.stop()
        env.run(until=0.7)
        # The channel recovered (corruption doesn't wedge the peer, so
        # the heartbeat gate opens on the first reattempt).
        assert node.active_bypasses == 1
        assert sink.seqs == sorted(sink.seqs)
        # Exactly the one smashed slot was lost — either dropped by the
        # consumer's own integrity check (the usual live-traffic race)
        # or counted by the host during salvage, never both and never
        # delivered as garbage.
        receiver = node.vms["vm2"].pmd("dpdkr1")
        lost = (node.manager.packets_lost_to_failures
                + receiver.rx_integrity_drops)
        assert lost == 1
        assert sink.received == source.generated - lost


SWEEP_SEEDS = (
    [int(os.environ["REPRO_FAULT_SEED"])]
    if os.environ.get("REPRO_FAULT_SEED")
    else [1, 2]
)
SWEEP_KINDS = (
    [os.environ["REPRO_RUNTIME_FAULT_KIND"]]
    if os.environ.get("REPRO_RUNTIME_FAULT_KIND")
    else ["consumer-stall", "slot-corruption"]
)


class TestRuntimeFaultSweep:
    """Invariants that must hold for every (seed, kind) the CI matrix
    fans out over: the node always converges back to a healthy state
    and never loses more than corruption physically destroys."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_recovers_from_runtime_fault(self, seed, kind):
        env = Environment()
        node = fast_node(env)
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e4)
        sink = OrderSink("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        plan = FaultPlan(seed=seed)
        if kind == "consumer-stall":
            # The freeze must end inside the 0.9 s this scenario runs:
            # the CI matrices pass seeds in the hundreds.
            plan.inject(PMD_RX_POLL, FaultMode.DELAY,
                        occurrences=(1 + seed,),
                        delay=0.05 + 0.01 * (seed % 10))
        elif kind == "slot-corruption":
            plan.inject(RING_CORRUPT, FaultMode.ERROR,
                        occurrences=(1 + seed,))
        else:  # pragma: no cover - driver passed an unknown kind
            pytest.fail("unknown runtime fault kind %r" % kind)
        node.install_fault_plan(plan)
        env.run(until=0.7)
        source.stop()
        env.run(until=0.9)
        res = node.manager.resilience
        assert res.links_degraded == 1
        # Converged: the bypass is back and carrying traffic.
        assert node.active_bypasses == 1
        # Loss is bounded by what corruption physically destroyed.
        receiver = node.vms["vm2"].pmd("dpdkr1")
        lost = (node.manager.packets_lost_to_failures
                + receiver.rx_integrity_drops)
        assert lost <= (1 if kind == "slot-corruption" else 0)
        assert sink.received == source.generated - lost
        assert sink.seqs == sorted(sink.seqs)
        assert source.tx_failures == 0
