"""Tests for the QEMU model and the compute agent."""

import pytest

from repro.core.pmd import GuestPmdManager
from repro.core.stats import BypassStatsBlock
from repro.dpdk.dpdkr import DpdkrSharedRings, dpdkr_zone_name
from repro.hypervisor.compute_agent import ComputeAgent
from repro.hypervisor.qemu import Hypervisor, HypervisorError
from repro.mem.memzone import MemzoneRegistry
from repro.mem.ring import Ring
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Environment

from tests.helpers import mk_mbuf


class TestHypervisor:
    def test_create_vm_with_boot_zones(self):
        registry = MemzoneRegistry()
        registry.reserve("z1")
        hypervisor = Hypervisor(registry, Environment())
        vm = hypervisor.create_vm("vm1", boot_zones=["z1"])
        assert vm.has_zone("z1")
        assert "vm1" in registry.lookup("z1").mapped_by

    def test_duplicate_vm_rejected(self):
        hypervisor = Hypervisor(MemzoneRegistry(), Environment())
        hypervisor.create_vm("vm1")
        with pytest.raises(HypervisorError):
            hypervisor.create_vm("vm1")

    def test_destroy_vm_unmaps(self):
        registry = MemzoneRegistry()
        registry.reserve("z1")
        hypervisor = Hypervisor(registry, Environment())
        hypervisor.create_vm("vm1", boot_zones=["z1"])
        hypervisor.destroy_vm("vm1")
        assert registry.lookup("z1").mapped_by == []
        with pytest.raises(HypervisorError):
            hypervisor.destroy_vm("vm1")

    def test_sync_plug_unplug(self):
        env = Environment()
        registry = MemzoneRegistry()
        registry.reserve("bypass.1")
        hypervisor = Hypervisor(registry, env)
        vm = hypervisor.create_vm("vm1")
        hypervisor.plug_ivshmem("vm1", "bypass.1")
        env.run()
        assert vm.has_zone("bypass.1")
        with pytest.raises(HypervisorError):
            hypervisor.plug_ivshmem("vm1", "bypass.1")  # already plugged
        hypervisor.unplug_ivshmem("vm1", "bypass.1")
        env.run()
        assert not vm.has_zone("bypass.1")
        with pytest.raises(HypervisorError):
            hypervisor.unplug_ivshmem("vm1", "bypass.1")

    def test_plug_unknown_zone_fails_fast(self):
        hypervisor = Hypervisor(MemzoneRegistry(), Environment())
        hypervisor.create_vm("vm1")
        with pytest.raises(Exception):
            hypervisor.plug_ivshmem("vm1", "nope")

    def test_simulated_plug_takes_hotplug_latency(self):
        env = Environment()
        registry = MemzoneRegistry()
        registry.reserve("bypass.1")
        hypervisor = Hypervisor(registry, env)
        vm = hypervisor.create_vm("vm1")
        process = hypervisor.plug_ivshmem("vm1", "bypass.1")
        env.run(until=0.01)
        assert not vm.has_zone("bypass.1")  # still in flight
        env.run()
        assert vm.has_zone("bypass.1")
        expected = (DEFAULT_COST_MODEL.qemu_monitor_cmd
                    + DEFAULT_COST_MODEL.ivshmem_hotplug)
        assert process.value is None and env.now == pytest.approx(expected)


def build_two_vm_stack(env):
    """Two VMs with dpdkr ports + guest PMD managers + an agent."""
    registry = MemzoneRegistry()
    DpdkrSharedRings(registry, "dpdkr0")
    DpdkrSharedRings(registry, "dpdkr1")
    hypervisor = Hypervisor(registry, env)
    agent = ComputeAgent(hypervisor, env)
    guests = {}
    for vm_name, port_name in (("vm1", "dpdkr0"), ("vm2", "dpdkr1")):
        vm = hypervisor.create_vm(vm_name,
                                  boot_zones=[dpdkr_zone_name(port_name)])
        guest = GuestPmdManager(vm)
        guest.create_pmd(port_name)
        agent.register_port_owner(port_name, vm_name)
        guests[vm_name] = guest
    zone = registry.reserve("bypass.x")
    ring = zone.put("ring", Ring("bypass.x.ring", 64))
    zone.put("stats", BypassStatsBlock("bypass.x", 1, 2))
    return registry, hypervisor, agent, guests, ring


class TestComputeAgentSync:
    """Each request played out to quiescence (``env.run()``) before the
    asserts; the class name is the test id the floor knows."""

    def test_setup_attaches_both_pmds(self):
        env = Environment()
        _reg, _hyp, agent, guests, _ring = build_two_vm_stack(env)
        request = agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x",
                                     flow_id=42)
        assert not request.completed
        env.run()
        assert request.completed and request.error is None
        assert guests["vm1"].pmd("dpdkr0").bypass_tx_active
        assert guests["vm1"].pmd("dpdkr0").bypass_flow_id == 42
        assert guests["vm2"].pmd("dpdkr1").bypass_rx_active

    def test_teardown_reverses(self):
        env = Environment()
        _reg, hyp, agent, guests, ring = build_two_vm_stack(env)
        agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x", flow_id=42)
        env.run()
        request = agent.teardown_bypass("dpdkr0", "dpdkr1", "bypass.x")
        env.run()
        assert request.completed and request.error is None
        assert not guests["vm1"].pmd("dpdkr0").bypass_tx_active
        assert not guests["vm2"].pmd("dpdkr1").bypass_rx_active
        assert not hyp.vms["vm1"].has_zone("bypass.x")
        assert not hyp.vms["vm2"].has_zone("bypass.x")

    def test_teardown_salvages_in_flight_packets(self):
        """Packets the receiver never polled stay with it: nothing is
        re-homed host-side, and they come out ahead of the normal
        channel."""
        env = Environment()
        registry, _hyp, agent, guests, ring = build_two_vm_stack(env)
        agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x", flow_id=42)
        env.run()
        stuck = [mk_mbuf() for _ in range(3)]
        ring.enqueue_bulk(stuck)
        request = agent.teardown_bypass("dpdkr0", "dpdkr1", "bypass.x")
        env.run()
        assert request.error is None and ring.is_empty
        normal_rx = registry.lookup(dpdkr_zone_name("dpdkr1")).get("rx")
        assert normal_rx.is_empty
        later = mk_mbuf()
        normal_rx.enqueue(later)
        received = guests["vm2"].pmd("dpdkr1").rx_burst(32)
        assert received == stuck + [later]

    def test_unknown_port_rejected(self):
        _reg, _hyp, agent, _guests, _ring = build_two_vm_stack(Environment())
        with pytest.raises(HypervisorError):
            agent.owner_of("dpdkr9")


class TestComputeAgentSimulated:
    def test_setup_timeline_is_about_100ms(self):
        env = Environment()
        _reg, _hyp, agent, guests, _ring = build_two_vm_stack(env)
        request = agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x",
                                     flow_id=42)
        env.run(until=1.0)
        assert request.completed
        costs = DEFAULT_COST_MODEL
        expected = (costs.agent_rpc + costs.qemu_monitor_cmd
                    + costs.ivshmem_hotplug + 2 * costs.virtio_serial_rtt)
        assert request.setup_duration == pytest.approx(expected)
        assert 0.08 < request.setup_duration < 0.13  # "order of 100 ms"

    def test_make_before_break_ordering(self):
        env = Environment()
        _reg, _hyp, agent, guests, _ring = build_two_vm_stack(env)
        timeline = []
        rx_pmd = guests["vm2"].pmd("dpdkr1")
        tx_pmd = guests["vm1"].pmd("dpdkr0")
        original_rx = rx_pmd.attach_bypass_rx
        original_tx = tx_pmd.attach_bypass_tx

        rx_pmd.attach_bypass_rx = lambda *a: (
            timeline.append(("rx", env.now)), original_rx(*a))[-1]
        tx_pmd.attach_bypass_tx = lambda *a: (
            timeline.append(("tx", env.now)), original_tx(*a))[-1]
        agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x", flow_id=1)
        env.run(until=1.0)
        assert [tag for tag, _t in timeline] == ["rx", "tx"]
        assert timeline[0][1] < timeline[1][1]

    def test_teardown_order_rx_stall_salvage_resume(self):
        """tx detach, then rx detach, then unplug: three steps, one
        serial round trip fewer than the stall-and-resume protocol."""
        env = Environment()
        _reg, _hyp, agent, guests, ring = build_two_vm_stack(env)
        agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x", flow_id=1)
        env.run(until=0.5)
        stuck = [mk_mbuf() for _ in range(4)]
        tx_pmd = guests["vm1"].pmd("dpdkr0")
        tx_pmd.tx_burst([mk_mbuf()])  # flips to bypass
        ring.drain()[0].free()
        ring.enqueue_bulk(stuck)
        request = agent.teardown_bypass("dpdkr0", "dpdkr1", "bypass.x")
        env.run(until=2.0)
        assert request.completed and request.error is None
        assert request.t_tx_configured < request.t_rx_configured
        costs = DEFAULT_COST_MODEL
        assert request.t_completed - request.t_requested == pytest.approx(
            costs.agent_rpc + 2 * costs.virtio_serial_rtt
            + costs.qemu_monitor_cmd)
        # The leftovers stayed with the receiver, in ring order.
        received = guests["vm2"].pmd("dpdkr1").rx_burst(32)
        assert received == stuck
        from repro.core.pmd import TxState

        assert tx_pmd.tx_state == TxState.NORMAL

    def test_teardown_stalls_sender_during_salvage_window(self):
        """Between the tx detach and the rx detach the sender is on the
        normal channel already and refuses nothing."""
        env = Environment()
        _reg, _hyp, agent, guests, ring = build_two_vm_stack(env)
        agent.setup_bypass("dpdkr0", "dpdkr1", "bypass.x", flow_id=1)
        env.run(until=0.5)
        tx_pmd = guests["vm1"].pmd("dpdkr0")
        tx_pmd.tx_burst([mk_mbuf()])  # flips to BYPASS
        request = agent.teardown_bypass("dpdkr0", "dpdkr1", "bypass.x")
        # After the tx detach (RPC + half a serial RTT), before the rx
        # detach lands.
        env.run(until=env.now + 0.02)
        assert request.t_tx_configured == 0.0   # its reply still in flight
        from repro.core.pmd import TxState

        assert tx_pmd.tx_state == TxState.NORMAL
        assert tx_pmd.tx_burst([mk_mbuf()]) == 1
        assert guests["vm2"].pmd("dpdkr1").bypass_rx_active
        env.run(until=env.now + 1.0)
        assert request.completed and request.error is None
        assert tx_pmd.stats.oerrors == 0
