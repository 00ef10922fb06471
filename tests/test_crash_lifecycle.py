"""Abrupt VM death: crash semantics, crash injection and recovery.

:meth:`Hypervisor.crash_vm` is the un-cooperative counterpart of
``destroy_vm``: the serial channel dies mid-conversation, zones are
force-unplugged, no guest-side teardown runs.  These tests pin the
crash semantics themselves, the ``vm.crash_during_setup`` fault
point, the watchdog's ``PEER_CRASHED`` classification (including the vanished-heartbeat-zone
crash-window race), and the full quarantine → ledger reclaim →
heartbeat-gated re-admission cycle after the guest is replaced.

``REPRO_FAULT_SEED`` parameterizes the seeded scenarios so the CI
fault-sweep matrix can fan out over them.
"""

import os

import pytest

from repro.core.bypass import LinkState, RetryPolicy
from repro.core.watchdog import HealthState, WatchdogPolicy
from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.faults import VM_CRASH_DURING_SETUP, FaultPlan
from repro.mem import Mempool
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic import SinkApp

from tests.helpers import mk_mbuf

SEEDS = ([int(os.environ["REPRO_FAULT_SEED"])]
         if os.environ.get("REPRO_FAULT_SEED") else [0, 7])

FAST_WATCHDOG = WatchdogPolicy(poll_interval=0.005, stall_polls=3,
                               heartbeat_polls=6)
FAST_READMIT = RetryPolicy(quarantine_backoff=0.05,
                           quarantine_backoff_factor=1.0,
                           max_quarantine_backoff=0.05)


def build_node(env=None, **kwargs):
    node = NfvNode(env=env, **kwargs)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


def build_bypassed_node():
    node = build_node()
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    node.settle_control_plane()
    assert node.active_bypasses == 1
    return node


class TestCrashSemantics:
    def test_crash_is_abrupt_death(self):
        node = build_node()
        vm = node.hypervisor.vms["vm2"]
        zones = list(vm.ivshmem_devices)
        assert zones  # the dpdkr channel zone at least
        node.hypervisor.crash_vm("vm2")
        assert vm.serial.dead
        assert not vm.running
        assert vm.crashed
        assert vm.ivshmem_devices == []
        assert "vm2" in node.hypervisor.crashed_vms
        assert node.hypervisor.crashes == 1
        assert node.hypervisor.was_crashed("vm2")
        # The channel zone itself survives (owned by the host side) —
        # that is what lets a replacement PMD drain the backlog.
        assert dpdkr_zone_name("dpdkr1") in node.registry

    def test_crash_fires_crash_then_destroy_listeners(self):
        node = build_node()
        order = []
        node.hypervisor.on_crash.append(lambda n: order.append(("c", n)))
        node.hypervisor.on_destroy.append(lambda n: order.append(("d", n)))
        node.hypervisor.crash_vm("vm1")
        assert order == [("c", "vm1"), ("d", "vm1")]

    def test_graceful_destroy_is_not_a_crash(self):
        node = build_node()
        node.hypervisor.destroy_vm("vm2")
        assert not node.hypervisor.was_crashed("vm2")
        assert node.hypervisor.crashes == 0

    def test_recreate_clears_the_crash_flag(self):
        node = build_node()
        node.hypervisor.crash_vm("vm2")
        node.create_vm("vm2", ["dpdkr1"])
        assert not node.hypervisor.was_crashed("vm2")
        assert node.agent.is_port_alive("dpdkr1")

    def test_agent_classifies_crashed_ports(self):
        node = build_node()
        node.hypervisor.crash_vm("vm2")
        assert node.agent.is_port_crashed("dpdkr1")
        assert not node.agent.is_port_crashed("dpdkr0")
        node.hypervisor.destroy_vm("vm1")
        assert not node.agent.is_port_crashed("dpdkr0")  # graceful


class TestChaosInjection:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_during_setup_leaves_books_balanced(self, seed):
        env = Environment()
        node = NfvNode(env=env)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.start()
        plan = FaultPlan(seed=seed)
        plan.inject(VM_CRASH_DURING_SETUP, "crash", occurrences=(1,))
        node.install_fault_plan(plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=0.5)
        # The receiver died in the worst window (zones plugged, PMD not
        # yet configured): no active channel, no leaked bypass zone, and
        # the survivor is back on the normal path.
        assert node.hypervisor.was_crashed("vm2")
        assert node.active_bypasses == 0
        for link in node.manager.failed_links:
            assert link.zone_name not in node.registry
        assert not node.vms["vm1"].pmd("dpdkr0").bypass_tx_active


class TestCrashWindowRace:
    def test_vanished_heartbeat_zone_is_peer_crashed(self):
        # Regression: the consumer's heartbeat zone disappears between
        # two watchdog passes (force-unplug racing the poll).  The old
        # classifier read a None epoch, called the link HEALTHY, and a
        # later blind zone lookup raised out of the watchdog loop.
        node = build_bypassed_node()
        watchdog = node.manager.watchdog
        receiver = node.vms["vm2"].pmd("dpdkr1")
        receiver.rx_burst(32)           # consumer signs on
        assert watchdog.check_once() == 1
        zone_name = dpdkr_zone_name("dpdkr1")
        node.registry.unmap_from(zone_name, "vm2")
        node.registry.free(zone_name)  # the race
        assert watchdog.check_once() == 1  # must not raise
        res = node.manager.resilience
        assert res.peer_crashes == 1
        record = node.manager.quarantined_links[node.ofport("dpdkr0")]
        assert record.reason == "peer_crashed"
        assert node.active_bypasses == 0


class TestPeerCrashedQuarantine:
    def test_crash_quarantines_and_reclaims_ledger(self):
        node = build_bypassed_node()
        pool = Mempool("traffic", size=64)
        node.track_mempool(pool)
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        held = [mk_mbuf(pool=pool) for _ in range(3)]
        assert sender.tx_burst(held) == 3
        assert receiver.rx_burst(32) == held   # guest now holds them
        stranded = [mk_mbuf(pool=pool) for _ in range(2)]
        assert sender.tx_burst(stranded) == 2  # still in the ring
        node.hypervisor.crash_vm("vm2")
        res = node.manager.resilience
        assert res.peer_crashes == 1
        # The crashed guest's leases were swept back...
        assert res.mbufs_reclaimed == 3
        assert pool.held_by("vm:vm2") == 0
        assert pool.leaked_permanent == 0
        # ...the ring backlog was freed (receiver is gone), and counted.
        assert node.manager.packets_lost_to_failures == 2
        assert pool.in_use == 0
        # Unlike a graceful destroy, the link waits in quarantine for a
        # replacement guest instead of being forgotten.
        record = node.manager.quarantined_links[node.ofport("dpdkr0")]
        assert record.reason == "peer_crashed"

    def test_graceful_destroy_does_not_count_as_peer_crash(self):
        node = build_bypassed_node()
        node.hypervisor.destroy_vm("vm2")
        res = node.manager.resilience
        assert res.peer_crashes == 0
        assert node.manager.quarantined_links == {}
        assert node.manager.failed_links[-1].state == LinkState.REMOVED

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replacement_guest_readmits_the_link(self, seed):
        env = Environment()
        node = NfvNode(env=env, watchdog_policy=FAST_WATCHDOG,
                       retry_policy=FAST_READMIT)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.start()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=0.2)
        assert node.active_bypasses == 1
        node.hypervisor.crash_vm("vm2")
        assert node.active_bypasses == 0
        record = node.manager.quarantined_links[node.ofport("dpdkr0")]
        assert record.reason == "peer_crashed"
        # While the port has no owner, re-attempts defer rather than
        # burn the failure budget.
        env.run(until=env.now + 0.2)
        assert node.active_bypasses == 0
        assert node.manager.resilience.readmissions_deferred > 0
        # Replacement guest on the same port: the dpdkr zone survived,
        # its heartbeat resumes on the same epoch, and once the new
        # guest proves it polls, the quarantined link is re-admitted
        # without a new OpenFlow rule.
        node.create_vm("vm2", ["dpdkr1"])
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        sink.start(env)
        env.run(until=env.now + 0.5)
        assert node.active_bypasses == 1
        res = node.manager.resilience
        assert res.crashed_peer_readmissions == 1
        assert node.manager.quarantined_links == {}
