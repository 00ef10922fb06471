"""Chain self-healing: the :class:`ChainRepairer` supervisor.

A crashed VNF must come back — same ports, rebuilt app, steering flows
replayed (which re-triggers p-2-p detection, so the bypasses return on
their own) — and an NF that keeps dying must be demoted out of the
chain with bridging rules so the degraded service keeps forwarding.
Graceful destroys are operator decisions the repairer must not fight.
"""

import pytest

from repro.apps import ForwarderApp
from repro.mem import Mempool
from repro.metrics import EventTimeline, attach_lifecycle_tracing
from repro.orchestration import (
    ChainRepairer,
    NfvNode,
    Orchestrator,
    RepairPolicy,
    ServiceGraph,
)
from repro.sim.engine import Environment
from repro.vswitch.appctl import AppCtl

from tests.helpers import mk_mbuf, view_values

FAST_REPAIR = RepairPolicy(poll_interval=0.002, max_restarts=3,
                           base_backoff=0.002, max_backoff=0.01)


def build_chain_graph(length=3):
    graph = ServiceGraph("chain")
    for index in range(1, length + 1):
        graph.add_vnf(
            "vnf%d" % index, ["p0", "p1"],
            app_factory=lambda pmds, i=index: ForwarderApp(
                "vnf%d.app" % i, pmds["p0"], pmds["p1"]
            ),
        )
    for index in range(1, length):
        graph.connect("vnf%d.p1" % index, "vnf%d.p0" % (index + 1),
                      bidirectional=True)
    return graph


def build_sync_deployment(length=3, policy=FAST_REPAIR):
    node = NfvNode()
    orchestrator = Orchestrator(node)
    deployment = orchestrator.deploy(build_chain_graph(length))
    repairer = ChainRepairer(orchestrator, deployment, policy)
    return node, deployment, repairer


class TestRepairCycle:
    def test_crash_detect_recreate_replay(self):
        node, deployment, repairer = build_sync_deployment(3)
        old_app = deployment.apps["vnf2"]
        assert node.active_bypasses == 4
        node.hypervisor.crash_vm("vnf2")
        assert node.active_bypasses == 0  # vnf2 touched every adjacency
        events = []
        repairer.on_event.append(lambda e, nf: events.append((e, nf)))
        assert repairer.check_once() == 1   # noticed the death
        assert repairer.records["vnf2"].state == "down"
        assert repairer.check_once() == 1   # restarted it
        record = repairer.records["vnf2"]
        assert record.state == "running"
        assert (record.restarts, record.crashes_seen) == (1, 1)
        assert "vnf2" in node.hypervisor.vms
        assert deployment.apps["vnf2"] is not old_app
        # All four flows touching vnf2 were replayed.
        assert repairer.flows_replayed == 4
        assert repairer.repairs_succeeded == 1
        assert events == [("nf-down", "vnf2"),
                          ("nf-repair-started", "vnf2"),
                          ("nf-repaired", "vnf2")]
        # The replayed flows re-trigger detection: bypasses come back.
        node.settle_control_plane(extra_time=0.5)
        assert node.active_bypasses == 4

    def test_healthy_chain_needs_no_action(self):
        _, _, repairer = build_sync_deployment(2)
        assert repairer.check_once() == 0
        assert repairer.crashes_detected == 0

    def test_graceful_destroy_is_not_repaired(self):
        node, _, repairer = build_sync_deployment(2)
        node.hypervisor.destroy_vm("vnf2")
        repairer.check_once()
        assert repairer.records["vnf2"].state == "removed"
        repairer.check_once()
        assert repairer.repairs_started == 0
        assert "vnf2" not in node.hypervisor.vms

    def test_backoff_grows_between_attempts(self):
        policy = RepairPolicy(base_backoff=0.01, backoff_factor=2.0,
                              max_backoff=0.5)
        assert policy.restart_delay(1) == 0.01
        assert policy.restart_delay(2) == 0.02
        assert policy.restart_delay(3) == 0.04
        assert policy.restart_delay(100) == 0.5


class TestDemotion:
    def test_exhausted_budget_bridges_around_the_nf(self):
        policy = RepairPolicy(max_restarts=0)
        node, deployment, repairer = build_sync_deployment(3, policy)
        pool = Mempool("traffic", size=32)
        node.track_mempool(pool)
        node.hypervisor.crash_vm("vnf2")
        repairer.check_once()  # down
        # Traffic cached toward the dead hop keeps arriving meanwhile.
        stuck = mk_mbuf(pool=pool)
        deployment.pmd("vnf1.p1").tx_burst([stuck])
        node.switch.step_dataplane()
        repairer.check_once()  # budget is zero: demote
        record = repairer.records["vnf2"]
        assert record.state == "demoted"
        assert repairer.demotions == 1
        assert repairer.repairs_started == 0
        # Both directions got a bridge around the dead hop.
        bridged = {(str(b.src), str(b.dst)) for b in repairer.bridges}
        assert bridged == {("vnf1.p1", "vnf3.p0"),
                           ("vnf3.p0", "vnf1.p1")}
        # The stranded packet was flushed back to its pool.
        assert repairer.packets_flushed == 1
        assert pool.in_use == 0
        # The degraded chain still forwards end to end.
        node.settle_control_plane()
        probe = mk_mbuf(pool=pool)
        deployment.pmd("vnf1.p1").tx_burst([probe])
        node.switch.step_dataplane()
        assert deployment.pmd("vnf3.p0").rx_burst(8) == [probe]
        probe.free()

    def test_demoted_nf_keeps_getting_flushed(self):
        policy = RepairPolicy(max_restarts=0)
        node, deployment, repairer = build_sync_deployment(2, policy)
        node.hypervisor.crash_vm("vnf2")
        repairer.check_once()
        repairer.check_once()
        assert repairer.records["vnf2"].state == "demoted"
        # A straggler lands after demotion (stale cache entry).
        zone = node.registry.lookup("rte_eth_ring.vnf2.p0")
        zone.get("rx").enqueue(mk_mbuf())
        repairer.check_once()
        assert repairer.packets_flushed == 1


class TestSimulatedRepair:
    def test_live_repair_restores_bypasses(self):
        env = Environment()
        node = NfvNode(env=env)
        orchestrator = Orchestrator(node)
        deployment = orchestrator.deploy(build_chain_graph(3))
        deployment.start_apps(env)
        repairer = ChainRepairer(orchestrator, deployment, FAST_REPAIR)
        repairer.start(env)
        timeline = EventTimeline(clock=lambda: env.now)
        attach_lifecycle_tracing(timeline, repairer=repairer,
                                 hypervisor=node.hypervisor)
        env.run(until=env.now + 0.3)
        assert node.active_bypasses == 4
        node.hypervisor.crash_vm("vnf2")
        env.run(until=env.now + 0.5)
        repairer.stop()
        assert repairer.crashes_detected == 1
        assert repairer.repairs_succeeded == 1
        assert repairer.records["vnf2"].state == "running"
        assert node.active_bypasses == 4
        names = [event.name for event in timeline.events]
        assert "vm-crashed" in names
        assert "nf-repaired" in names
        assert names.index("vm-crashed") < names.index("nf-repaired")

    def test_repairer_cannot_start_twice(self):
        env = Environment()
        node = NfvNode(env=env)
        orchestrator = Orchestrator(node)
        deployment = orchestrator.deploy(build_chain_graph(2))
        repairer = ChainRepairer(orchestrator, deployment).start(env)
        with pytest.raises(RuntimeError):
            repairer.start(env)
        repairer.stop()


class TestIntrospection:
    def test_chain_health_renders_states_and_counters(self):
        node, _, repairer = build_sync_deployment(2)
        node.hypervisor.crash_vm("vnf2")
        repairer.check_once()
        repairer.check_once()
        ctl = AppCtl(node.switch, node.manager, node.obs)
        values = view_values(ctl.run("chain/health"))
        for nf in ("vnf1", "vnf2"):
            assert values['repro_chain_nf_state{nf="%s",state="running"}'
                          % nf] == 1
        assert values['repro_chain_nf_crashes_total{nf="vnf2"}'] == 1
        assert values["repro_chain_crashes_detected_total"] == 1
        assert values["repro_chain_repairs_succeeded_total"] == 1

    def test_chain_health_without_repairer(self):
        node = NfvNode()
        assert AppCtl(node.switch, obs=node.obs).run("chain/health") \
            == "no samples named repro_chain_*"

    def test_mempool_show_renders_ledger(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        pool = Mempool("traffic", size=16)
        node.track_mempool(pool)
        batch = [mk_mbuf(pool=pool) for _ in range(2)]
        node.vms["vm1"].pmd("dpdkr0").tx_burst(batch)
        node.vms["vm2"].pmd("dpdkr1").rx_burst(8)
        ctl = AppCtl(node.switch, node.manager, node.obs)
        values = view_values(ctl.run("mempool/show"))
        assert values['repro_mempool_size{pool="traffic"}'] == 16
        assert values['repro_mempool_available{pool="traffic"}'] == 14
        assert values['repro_mempool_in_use{pool="traffic"}'] == 2
        assert values['repro_mempool_held{holder="vm:vm2",pool="traffic"}'] \
            == 2
        for mbuf in batch:
            mbuf.free()

    def test_mempool_show_without_pools(self):
        node = NfvNode()
        assert AppCtl(node.switch, obs=node.obs).run("mempool/show") \
            == "no samples named repro_mempool_*"
