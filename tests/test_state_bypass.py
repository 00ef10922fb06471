"""Stateful bypass channels: detection, execution, and conservation.

The detector's extended condition (DESIGN.md §5.1b): a port whose
winning rules all steer ``[xfsm:<p>, output:B]`` with the *same*
state-safe program still qualifies for a p-2-p channel — the bypass
PMD executes the program against the shared state table.  The hard
correctness claim ridden here: per-flow state is **conserved** across
establish -> degrade -> re-admit, because the executor changes but the
table object never moves.
"""

import pytest

from repro.faults import FaultMode, FaultPlan, PMD_RX_POLL
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.state.programs import firewall_program, nat_program
from repro.traffic import SinkApp, SourceApp
from repro.vswitch.appctl import AppCtl


def build(program=None, register=True, install=True):
    env = Environment()
    node = NfvNode(env=env)
    node.create_vm("vm1", ["in0"])
    node.create_vm("vm2", ["out0"])
    node.switch.start()
    program = program if program is not None \
        else firewall_program(name="fw")
    if register:
        node.register_xfsm(program)
    if install:
        node.install_xfsm_rule("in0", "out0", program.name,
                               from_inside=True)
        node.install_xfsm_rule("out0", "in0", program.name,
                               from_inside=False)
    return env, node, program


class TestDetection:
    def test_state_safe_delegation_qualifies(self):
        env, node, program = build()
        env.run(until=0.3)
        assert node.active_bypasses == 2
        assert node.manager.xfsm_channels_provisioned == 2
        for link in node.manager.active_links.values():
            assert link.link.xfsm_program == "fw"
            assert link.xfsm is not None
            assert link.xfsm.program is program  # shared object

    def test_nat_program_disqualifies(self):
        # The negative case: a rewriting program is not state-safe, so
        # a ring copy cannot reproduce it — no bypass, ever.
        env, node, program = build(program=nat_program(name="snat"))
        env.run(until=0.3)
        assert program.state_safe is False
        assert node.active_bypasses == 0
        assert node.manager.xfsm_channels_provisioned == 0

    def test_unregistered_program_disqualifies_until_registered(self):
        env, node, _program = build(register=False)
        env.run(until=0.3)
        assert node.active_bypasses == 0
        # Registration re-runs detection: the same rules now qualify.
        node.register_xfsm(firewall_program(name="fw"))
        env.run(until=0.6)
        assert node.active_bypasses == 2

    def test_mixed_delegations_disqualify(self):
        from repro.openflow.actions import OutputAction
        from repro.openflow.match import Match

        env, node, _program = build()
        # A higher-priority rule on in0 that forwards the same way but
        # *without* the delegation: some packets would skip the
        # program, so the port must not qualify.
        node.controller.install_flow(
            Match(in_port=node.ofport("in0"), eth_type=0x0800),
            [OutputAction(node.ofport("out0"))],
            priority=0x9000,
        )
        env.run(until=0.3)
        assert all(
            link.link.src_ofport != node.ofport("in0")
            for link in node.manager.active_links.values()
        )


class TestChannelExecution:
    def test_pmd_executes_program_on_bypass(self):
        env, node, program = build()
        source = SourceApp("src", node.vms["vm1"].pmd("in0"),
                           rate_pps=5e4)
        sink = SinkApp("sink", node.vms["vm2"].pmd("out0"))
        source.start(env)
        sink.start(env)
        env.run(until=1.0)
        pmd = node.vms["vm1"].pmd("in0")
        assert node.active_bypasses == 2
        assert pmd.xfsm_evaluated > 0       # executed on the channel
        assert pmd.xfsm_drops == 0          # inside may initiate
        assert sink.received > 10000
        assert program.table.occupancy >= 1
        # The stateful channel charges the XFSM execution per TX.
        assert pmd.tx_extra_cost >= pmd.xfsm_exec_cost
        source.stop()
        sink.stop()
        node.switch.stop()

    def test_pmd_drops_outside_strangers_on_bypass(self):
        env, node, program = build()
        # Unsolicited outside traffic rides the out0 -> in0 channel and
        # must be dropped *by the PMD* exactly as the switch would.
        source = SourceApp("atk", node.vms["vm2"].pmd("out0"),
                           rate_pps=5e4)
        sink = SinkApp("sink", node.vms["vm1"].pmd("in0"))
        source.start(env)
        sink.start(env)
        env.run(until=1.0)
        pmd = node.vms["vm2"].pmd("out0")
        assert node.active_bypasses == 2
        assert pmd.xfsm_drops > 0
        assert sink.received == 0           # zero leaked
        assert program.table.occupancy == 0  # drops never write state
        source.stop()
        sink.stop()
        node.switch.stop()

    def test_counter_report_includes_xfsm(self):
        env, node, _program = build()
        report = node.vms["vm1"].pmd("in0").channel_stats()
        assert report["xfsm_evaluated"] == 0
        assert report["xfsm_drops"] == 0

    def test_state_show_reports_stateful_channels(self):
        env, node, _program = build()
        env.run(until=0.3)
        text = AppCtl(node.switch, node.manager, node.obs).run(
            "state/show")
        channels = [line for line in text.splitlines()
                    if line.startswith("repro_state_bypass_channel{")]
        assert len(channels) == 2
        assert all('program="fw"' in line for line in channels)
        assert "repro_state_channels_provisioned_total 2\n" in text


class TestStateConservation:
    def test_degrade_conserves_state_and_readmits(self):
        """The headline claim: degrade a stateful channel under load
        and the flows continue against the *same* entries on the
        switch path, then again on the re-established channel."""
        from repro.bench.workloads import state as workload

        row = workload.bypass_state_conservation(seed=11)
        assert row["links_degraded"] >= 1
        assert row["readmissions"] >= 1
        assert row["state_handovers"] >= 1
        # Occupancy identical across the handover: nothing copied,
        # nothing lost, nothing duplicated.
        assert row["state_occupancy_after"] \
            == row["state_occupancy_before"] == row["flows"]
        # Zero misclassification through the whole churn: replies kept
        # flowing, strangers never leaked.
        assert row["stranger_leaked"] == 0
        assert row["reverse_delivered_udp"] > 0
        # Lossless fallback: every inside packet accounted for.
        assert row["inside_delivered"] == row["inside_offered"]
        assert row["packets_lost_to_failures"] == 0
        # Both executors ran the program at some point of the cycle.
        assert row["datapath_xfsm_evaluated"] > 0
        assert row["pmd_xfsm_evaluated"] > 0

    def test_fallback_counts_migration(self):
        env, node, program = build()
        source = SourceApp("src", node.vms["vm1"].pmd("in0"),
                           rate_pps=2e4)
        sink = SinkApp("sink", node.vms["vm2"].pmd("out0"))
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        assert node.active_bypasses == 2
        before = program.table.occupancy
        assert before >= 1
        # Freeze the consumer's next rx poll long enough for the
        # watchdog to call the link stalled and degrade it.
        plan = FaultPlan(seed=3)
        plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,),
                    delay=0.5)
        node.vms["vm2"].pmd("out0").faults = plan
        env.run(until=1.2)
        assert node.manager.xfsm_state_migrations >= 1
        assert program.table.occupancy == before  # pointer handover
        assert sink.received > 0
        source.stop()
        sink.stop()
        node.switch.stop()


class TestWatchdogSweep:
    def test_idle_entries_swept_off_bypass_channels(self):
        """With the flows on the channel the datapath never looks the
        entries up, so lazy evict-on-lookup cannot fire — the watchdog
        pass is their garbage collector."""
        env, node, program = build(
            program=firewall_program(name="fw", idle_timeout=0.1))
        source = SourceApp("src", node.vms["vm1"].pmd("in0"),
                           rate_pps=2e4)
        sink = SinkApp("sink", node.vms["vm2"].pmd("out0"))
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        assert program.table.occupancy >= 1
        source.stop()
        # Idle far beyond the 0.1 s timeout; the link stays ACTIVE
        # (no traffic is not a fault) but the table must drain.
        env.run(until=1.0)
        assert node.active_bypasses == 2
        assert program.table.occupancy == 0
        assert node.manager.watchdog.state_entries_swept >= 1
        sink.stop()
        node.switch.stop()
