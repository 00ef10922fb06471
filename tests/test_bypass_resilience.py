"""Self-healing bypass establishment under injected control-plane faults.

Everything here is deterministic: the fault plan is seeded, the engine
is deterministic, so every assertion is on exact state — including exact
resilience-counter values where the scenario pins them down.
"""

import os

import pytest

from repro.core.bypass import LinkState, RetryPolicy
from repro.faults import (
    AGENT_RPC_REPLY,
    AGENT_RPC_SEND,
    MEMZONE_RESERVE,
    QEMU_PLUG,
    SERIAL_TO_GUEST,
    FaultPlan,
)
from repro.orchestration import NfvNode
from repro.orchestration.validation import verify_host_invariants
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp
from repro.vswitch.appctl import AppCtl


def build_node(env, plan=None, retry_policy=None):
    kwargs = {}
    if retry_policy is not None:
        kwargs["retry_policy"] = retry_policy
    node = NfvNode(env=env, faults=plan, **kwargs)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


def bypass_zone_books_balance(node):
    """No rolled-back bypass zone survives; live zones map both VMs."""
    live = {link.zone_name
            for link in node.manager.active_links.values()
            if link.state == LinkState.ACTIVE}
    for zone_name in list(node.registry._zones):
        if not zone_name.startswith("bypass."):
            continue
        assert zone_name in live, "leaked bypass zone %s" % zone_name
    for link in node.manager.history:
        if link.zone_name in live or link.zone_name is None:
            continue
        if link.zone_name in node.registry:
            zone = node.registry.lookup(link.zone_name)
            assert zone.mapped_by == [], (
                "zone %s of failed attempt still mapped into %s"
                % (link.zone_name, zone.mapped_by)
            )
    return True


class TestAcceptanceScenario:
    """The ISSUE's acceptance criterion, verbatim: one RPC drop, one
    plug failure and one serial-message loss during establishment; the
    link must converge to ACTIVE via retries with zero packets lost on
    the switch path, no memzone left mapped after rollback, and the
    counters reported by ``bypass/faults`` matching the injections."""

    def test_three_distinct_faults_converge_with_zero_loss(self):
        plan = FaultPlan(seed=7)
        plan.inject(AGENT_RPC_SEND, "drop", occurrences=(1,))
        plan.inject(QEMU_PLUG, "error", occurrences=(1,))
        plan.inject(SERIAL_TO_GUEST, "drop", occurrences=(1,))

        env = Environment()
        node = build_node(env, plan)
        node.switch.start()
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=2e5, pool_size=4096)
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        source.start(env)
        sink.start(env)

        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=3.0)
        source.stop()
        env.run(until=3.1)

        # All three faults actually fired, each at a different layer.
        assert plan.total_injected == 3
        assert {a.point for a in plan.injected} == {
            AGENT_RPC_SEND, QEMU_PLUG, SERIAL_TO_GUEST
        }

        # The link converged to ACTIVE through retries.
        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link is not None
        assert link.state == LinkState.ACTIVE
        assert link.attempts == 4
        assert node.vms["vm1"].pmd("dpdkr0").bypass_tx_active

        # Zero loss: traffic rode the switch path while the control
        # plane struggled, and no packet entered a doomed bypass ring.
        in_flight = source.pool.size - source.pool.available
        assert source.generated == sink.received + in_flight
        assert node.manager.packets_lost_to_failures == 0

        # Rollback released every zone of the three failed attempts.
        assert bypass_zone_books_balance(node)
        live_zone = node.registry.lookup(link.zone_name)
        assert sorted(live_zone.mapped_by) == ["vm1", "vm2"]

        # Counters match the injections, exactly.
        r = node.manager.resilience
        assert r.establish_attempts == 4
        assert r.timeouts == 2          # RPC drop + serial-message loss
        assert r.rpc_errors == 1        # the plug failure
        assert r.rollbacks == 3
        assert r.retries == 3
        assert r.links_recovered == 1
        assert r.quarantines == 0
        assert r.links_abandoned == 0
        assert r.total_faults_survived == 3 == plan.total_injected

        # And the operator sees the same story.
        report = AppCtl(node.switch, node.manager).run("bypass/faults")
        assert " %-24s %d" % ("retries", 3) in report
        assert " %-24s %d" % ("timeouts", 2) in report
        assert " %-24s %d" % ("faults survived", 3) in report
        assert "seed=7, 3 fault(s) injected" in report

        verify_host_invariants(node)
        node.switch.stop()


class TestRetryPaths:
    def test_corrupted_serial_command_is_nacked_and_retried(self):
        plan = FaultPlan(seed=3)
        plan.inject(SERIAL_TO_GUEST, "error", occurrences=(1,))
        env = Environment()
        node = build_node(env, plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane(extra_time=1.0)
        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link.state == LinkState.ACTIVE
        assert link.attempts == 2
        r = node.manager.resilience
        # A corrupted message is an explicit NACK, not a timeout.
        assert r.rpc_errors == 1
        assert r.timeouts == 0
        verify_host_invariants(node)

    def test_delayed_straggler_command_cannot_corrupt_new_attempt(self):
        # The rx-attach command is delayed beyond the step timeout: the
        # manager rolls back and retries, and when the straggler finally
        # arrives it must be NACKed (its zone is gone) without crashing
        # the node or touching the second attempt's channel.
        plan = FaultPlan(seed=4)
        plan.inject(SERIAL_TO_GUEST, "delay", occurrences=(1,), delay=0.5)
        env = Environment()
        node = build_node(env, plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane(extra_time=2.0)
        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link.state == LinkState.ACTIVE
        assert link.attempts == 2
        assert node.manager.resilience.timeouts == 1
        # Exactly one rx ring attached: the straggler did not double up.
        assert len(node.vms["vm2"].pmd("dpdkr1").bypass_rx_rings) == 1
        verify_host_invariants(node)

    def test_provision_failure_is_retried(self):
        env = Environment()
        node = build_node(env)  # topology comes up with no plan armed
        plan = FaultPlan(seed=5)
        plan.inject(MEMZONE_RESERVE, "error", occurrences=(1,))
        node.install_fault_plan(plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane(extra_time=1.0)
        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link.state == LinkState.ACTIVE
        r = node.manager.resilience
        assert r.provision_failures == 1
        assert r.retries == 1
        # A failed provision allocates nothing, so nothing rolls back.
        assert r.rollbacks == 0
        verify_host_invariants(node)

    def test_crash_fault_on_plug_abandons_link_cleanly(self):
        plan = FaultPlan(seed=6)
        plan.inject(QEMU_PLUG, "crash", occurrences=(1,))
        env = Environment()
        node = build_node(env, plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane(extra_time=2.0)
        # The injected crash killed the sender VM: recovery must stop,
        # not retry toward a dead endpoint.
        assert "vm1" not in node.hypervisor.vms
        assert node.active_bypasses == 0
        link = node.manager.history[0]
        assert link.state == LinkState.REMOVED
        assert node.manager.resilience.links_abandoned == 1
        assert node.manager.resilience.retries == 0
        assert bypass_zone_books_balance(node)
        assert not node.vms["vm2"].pmd("dpdkr1").bypass_rx_active


class TestQuarantine:
    POLICY = RetryPolicy(
        request_timeout=0.25, max_attempts=2,
        base_backoff=0.01, backoff_factor=2.0, max_backoff=0.05,
        quarantine_backoff=0.1, quarantine_backoff_factor=2.0,
        max_quarantine_backoff=0.5,
    )

    def test_exhausted_budget_quarantines_then_recovers(self):
        plan = FaultPlan(seed=11)
        # Four failures: two admissions' worth of attempts.
        plan.inject(AGENT_RPC_SEND, "error", probability=1.0,
                    max_triggers=4)
        env = Environment()
        node = build_node(env, plan, retry_policy=self.POLICY)
        node.install_p2p_rule("dpdkr0", "dpdkr1")

        node.settle_control_plane(extra_time=0.05)
        of = node.ofport("dpdkr0")
        # Budget exhausted: quarantined, traffic stays on the switch.
        assert of in node.manager.quarantined_links
        assert node.active_bypasses == 0
        assert not node.vms["vm1"].pmd("dpdkr0").bypass_tx_active
        # The timer owns re-admission: a detector event in between
        # admits nothing.
        node.manager._on_p2p_created(node.manager.detector.link_for(of))
        assert len(node.manager.history) == 1

        env.run(until=2.0)
        # Two quarantine rounds later the fault spec is exhausted and
        # the re-attempt converges.
        link = node.manager.link_for_src(of)
        assert link is not None and link.state == LinkState.ACTIVE
        assert of not in node.manager.quarantined_links
        r = node.manager.resilience
        assert r.quarantines == 2
        assert r.quarantine_reattempts == 2
        assert r.links_recovered == 1
        assert r.rpc_errors == 4
        verify_host_invariants(node)

    def test_rule_removal_clears_quarantine(self):
        plan = FaultPlan(seed=12)
        plan.inject(AGENT_RPC_SEND, "error", probability=1.0)
        env = Environment()
        node = build_node(env, plan, retry_policy=self.POLICY)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane(extra_time=0.05)
        of = node.ofport("dpdkr0")
        assert of in node.manager.quarantined_links
        from repro.openflow.match import Match

        node.controller.delete_flow(Match(in_port=of))
        env.run(until=env.now + 1.0)
        # No rule, no quarantine record, no re-attempt churn.
        assert of not in node.manager.quarantined_links
        assert node.active_bypasses == 0
        verify_host_invariants(node)


class TestFlapDamping:
    def test_flowmod_churn_is_damped_then_settles(self):
        from repro.openflow.match import Match

        env = Environment()
        node = build_node(env)
        node.switch.start()
        of = node.ofport("dpdkr0")
        # 8 installs (7 removals interleaved) inside the 1 s window.
        for _ in range(8):
            node.install_p2p_rule("dpdkr0", "dpdkr1")
            env.run(until=env.now + 0.02)
            node.controller.delete_flow(Match(in_port=of))
            env.run(until=env.now + 0.02)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=env.now + 2.0)

        r = node.manager.resilience
        assert r.flaps_damped > 0
        # Damping deferred admissions, it did not lose the link: once
        # the churn stopped, the final rule got its bypass.
        link = node.manager.link_for_src(of)
        assert link is not None and link.state == LinkState.ACTIVE
        # Far fewer establishment attempts than detector events.
        assert r.establish_attempts < 9
        verify_host_invariants(node)
        node.switch.stop()


SWEEP_SEEDS = (
    [int(os.environ["REPRO_FAULT_SEED"])]
    if os.environ.get("REPRO_FAULT_SEED")
    else [101, 202, 303]
)


class TestSeededSweep:
    """Probabilistic multi-point chaos, replayable per seed.

    Each run must end in one of exactly two places — link ACTIVE, or
    link quarantined with traffic on the switch path — with the books
    balanced either way.  ``REPRO_FAULT_SEED`` overrides the seed list
    (the CI fault-sweep matrix uses this).
    """

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_sweep_converges_or_quarantines(self, seed):
        plan = FaultPlan(seed=seed)
        plan.inject(AGENT_RPC_SEND, "drop", probability=0.25,
                    max_triggers=2)
        plan.inject(QEMU_PLUG, "error", probability=0.25, max_triggers=2)
        plan.inject(SERIAL_TO_GUEST, "drop", probability=0.2,
                    max_triggers=2)
        plan.inject(AGENT_RPC_REPLY, "drop", probability=0.2,
                    max_triggers=1)
        env = Environment()
        node = build_node(env, plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane(extra_time=8.0)

        of = node.ofport("dpdkr0")
        link = node.manager.link_for_src(of)
        quarantined = of in node.manager.quarantined_links
        assert (link is not None and link.state == LinkState.ACTIVE) \
            or quarantined
        r = node.manager.resilience
        # Every attempt-level failure was rolled back, nothing leaked.
        assert r.rollbacks == r.timeouts + r.rpc_errors
        assert bypass_zone_books_balance(node)
        verify_host_invariants(node)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_sweep_is_replayable(self, seed):
        def run():
            plan = FaultPlan(seed=seed)
            plan.inject(AGENT_RPC_SEND, "drop", probability=0.3,
                        max_triggers=2)
            plan.inject(SERIAL_TO_GUEST, "drop", probability=0.3,
                        max_triggers=2)
            env = Environment()
            node = build_node(env, plan)
            node.install_p2p_rule("dpdkr0", "dpdkr1")
            node.settle_control_plane(extra_time=6.0)
            r = node.manager.resilience
            return (
                [(a.point, a.mode.value, a.occurrence)
                 for a in plan.injected],
                (r.establish_attempts, r.timeouts, r.rpc_errors,
                 r.retries, r.quarantines),
                env.now,
            )

        assert run() == run()
