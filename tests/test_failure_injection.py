"""Failure injection: VM crashes with bypass channels in every state.

The paper assumes cooperative endpoints; a production system must
survive a guest dying while a bypass references its memory.  These
tests kill VMs before, during and after establishment and assert the
invariants: surviving PMDs are reconfigured, no memzone stays mapped
into a ghost, the manager's books balance, and packets lost are counted
(only those stranded in a ring whose receiver died).
"""

import pytest

from repro.core.bypass import LinkState
from repro.orchestration import NfvNode
from repro.sim.engine import Environment

from tests.helpers import mk_mbuf


def build_node(env=None):
    node = NfvNode(env=env)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


class TestCrashWithActiveBypass:
    def test_receiver_crash_tears_down_and_counts_loss(self):
        node = build_node()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        sender = node.vms["vm1"].pmd("dpdkr0")
        stuck = [mk_mbuf() for _ in range(3)]
        sender.tx_burst(stuck)  # into the bypass ring, never drained
        node.hypervisor.destroy_vm("vm2")
        assert node.active_bypasses == 0
        assert not sender.bypass_tx_active
        assert node.manager.packets_lost_to_failures == 3
        assert len(node.manager.failed_links) == 1
        assert node.manager.failed_links[0].state == LinkState.REMOVED
        # Zone fully released.
        assert node.manager.failed_links[0].zone_name not in node.registry

    def test_sender_crash_salvages_ring(self):
        node = build_node()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        sender = node.vms["vm1"].pmd("dpdkr0")
        receiver = node.vms["vm2"].pmd("dpdkr1")
        in_flight = [mk_mbuf() for _ in range(4)]
        sender.tx_burst(in_flight)
        node.hypervisor.destroy_vm("vm1")
        # Survivor got the leftovers on its normal channel, lost nothing.
        assert node.manager.packets_lost_to_failures == 0
        assert receiver.rx_burst(32) == in_flight
        assert not receiver.bypass_rx_active
        assert node.active_bypasses == 0

    def test_no_new_bypass_toward_dead_vm(self):
        node = build_node()
        node.hypervisor.destroy_vm("vm2")
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        # The rule stands (controller's business) but no channel appears.
        assert len(node.switch.bridge.table) == 1
        assert node.active_bypasses == 0
        assert node.manager.history == []

    def test_unrelated_links_survive(self):
        node = build_node()
        node.create_vm("vm3", ["dpdkr2"])
        node.create_vm("vm4", ["dpdkr3"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.install_p2p_rule("dpdkr2", "dpdkr3")
        node.settle_control_plane()
        assert node.active_bypasses == 2
        node.hypervisor.destroy_vm("vm2")
        assert node.active_bypasses == 1
        survivor = node.manager.link_for_src(node.ofport("dpdkr2"))
        assert survivor is not None
        assert survivor.state == LinkState.ACTIVE


class TestCrashDuringEstablishment:
    def test_crash_mid_establishment_aborts_cleanly(self):
        env = Environment()
        node = build_node(env)
        node.switch.start()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        # Let detection + RPC + hot-plug begin, then kill the receiver
        # before the PMD configuration completes (~100 ms total).
        env.run(until=0.04)
        assert node.active_bypasses == 0  # still establishing
        node.hypervisor.destroy_vm("vm2")
        env.run(until=1.0)
        assert node.active_bypasses == 0
        link = node.manager.history[0]
        assert link.state == LinkState.REMOVED
        assert link.setup_request.error is not None
        # Survivor is untouched or cleanly reverted.
        sender = node.vms["vm1"].pmd("dpdkr0")
        assert not sender.bypass_tx_active
        # Zone not mapped into anything.
        if link.zone_name in node.registry:
            assert node.registry.lookup(link.zone_name).mapped_by == []
        node.switch.stop()

    def test_crash_mid_establishment_sender_side(self):
        env = Environment()
        node = build_node(env)
        node.switch.start()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=0.08)  # rx likely configured, tx pending
        node.hypervisor.destroy_vm("vm1")
        env.run(until=1.0)
        link = node.manager.history[0]
        assert link.state == LinkState.REMOVED
        receiver = node.vms["vm2"].pmd("dpdkr1")
        assert not receiver.bypass_rx_active
        node.switch.stop()

    def test_crash_after_establishment_in_sim(self):
        env = Environment()
        node = build_node(env)
        node.switch.start()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=0.5)
        assert node.active_bypasses == 1
        node.hypervisor.destroy_vm("vm2")
        env.run(until=1.0)
        assert node.active_bypasses == 0
        assert not node.vms["vm1"].pmd("dpdkr0").bypass_tx_active
        node.switch.stop()


class TestHypervisorNotifications:
    def test_agent_marks_dead(self):
        node = build_node()
        assert node.agent.is_port_alive("dpdkr1")
        node.hypervisor.destroy_vm("vm2")
        assert not node.agent.is_port_alive("dpdkr1")
        assert node.agent.is_port_alive("dpdkr0")
        assert node.agent.ports_of("vm2") == ["dpdkr1"]

    def test_force_unplug(self):
        node = build_node()
        zone = node.registry.reserve("z")
        node.hypervisor.plug_ivshmem("vm1", "z")
        node.settle_control_plane()
        assert zone.mapped_by == ["vm1"]
        node.hypervisor.force_unplug("vm1", "z")
        assert zone.mapped_by == []
        with pytest.raises(Exception):
            node.hypervisor.force_unplug("vm1", "z")
