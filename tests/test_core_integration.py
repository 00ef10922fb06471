"""End-to-end integration of the transparent highway.

Builds the full host: vSwitch + hypervisor + compute agent + two VMs with
dual-channel PMDs, then drives OpenFlow rules through a controller
speaking real OF1.3 bytes and asserts the bypass lifecycle, packet paths,
dynamic fallback and statistics transparency.
"""

import pytest

from repro.core import LinkState
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode

from tests.helpers import mk_mbuf


class Host(NfvNode):
    """The node the benches run, plus a port name -> PMD map."""

    def __init__(self, vm_ports):
        """``vm_ports`` maps vm name -> list of dpdkr port names."""
        super().__init__()
        self.pmds = {}
        for vm_name, port_names in vm_ports.items():
            self.pmds.update(self.create_vm(vm_name, port_names).pmds)

    def install_p2p(self, src, dst, priority=0x8000):
        self.install_p2p_rule(src, dst, priority=priority)
        self.settle_control_plane()

    def delete_p2p(self, src):
        self.controller.delete_flow(Match(in_port=self.ports[src].ofport))
        self.settle_control_plane()


@pytest.fixture
def host():
    return Host({"vm1": ["dpdkr0"], "vm2": ["dpdkr1"]})


class TestEstablishment:
    def test_flowmod_establishes_bypass(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        assert len(host.manager.active_links) == 1
        link = next(iter(host.manager.active_links.values()))
        assert link.state == LinkState.ACTIVE
        assert host.pmds["dpdkr0"].bypass_tx_active
        assert host.pmds["dpdkr1"].bypass_rx_active
        assert host.ports["dpdkr0"].bypass_active
        assert host.ports["dpdkr1"].bypass_active

    def test_zone_plugged_into_both_vms(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        link = next(iter(host.manager.active_links.values()))
        zone = host.registry.lookup(link.zone_name)
        assert sorted(zone.mapped_by) == ["vm1", "vm2"]

    def test_packets_flow_directly(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        mbuf = mk_mbuf(frame_size=64)
        host.pmds["dpdkr0"].tx_burst([mbuf])
        # Even with the switch dataplane running, it never sees the packet.
        host.switch.step_dataplane()
        assert host.ports["dpdkr0"].rx_packets == 0
        assert host.pmds["dpdkr1"].rx_burst(32) == [mbuf]

    def test_non_p2p_rule_does_not_bypass(self, host):
        from repro.packet.headers import ETH_TYPE_IPV4

        host.controller.install_flow(
            Match(in_port=host.ports["dpdkr0"].ofport,
                  eth_type=ETH_TYPE_IPV4),
            [OutputAction(host.ports["dpdkr1"].ofport)],
        )
        host.settle_control_plane()
        assert host.manager.active_links == {}
        mbuf = mk_mbuf()
        host.pmds["dpdkr0"].tx_burst([mbuf])
        host.switch.step_dataplane()
        assert host.pmds["dpdkr1"].rx_burst(32) == [mbuf]  # via the switch
        assert host.ports["dpdkr0"].rx_packets == 1

    def test_phy_destination_not_bypassed(self):
        host = Host({"vm1": ["dpdkr0"]})
        phy = host.add_nic("eth0")
        host.controller.install_flow(
            Match(in_port=host.ports["dpdkr0"].ofport),
            [OutputAction(phy.ofport)],
        )
        host.settle_control_plane()
        assert host.manager.active_links == {}


class TestDynamicFallback:
    def test_delete_rule_tears_down(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        host.delete_p2p("dpdkr0")
        assert host.manager.active_links == {}
        assert not host.pmds["dpdkr0"].bypass_tx_active
        assert not host.pmds["dpdkr1"].bypass_rx_active
        assert not host.ports["dpdkr0"].bypass_active
        link = host.manager.history[0]
        assert link.state == LinkState.REMOVED
        assert link.zone_name not in host.registry

    def test_traffic_falls_back_to_switch_path(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        host.delete_p2p("dpdkr0")
        host.install_p2p("dpdkr0", "dpdkr1", priority=0x8000)
        # New link established again (fresh zone).
        assert len(host.manager.active_links) == 1
        assert len(host.manager.history) == 2

    def test_divert_rule_triggers_fallback_without_loss(self, host):
        from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP

        host.install_p2p("dpdkr0", "dpdkr1")
        in_flight = [mk_mbuf(frame_size=64) for _ in range(5)]
        host.pmds["dpdkr0"].tx_burst(in_flight)
        # A higher-priority diverting rule revokes the p-2-p property
        # while packets sit in the bypass ring.
        host.controller.install_flow(
            Match(in_port=host.ports["dpdkr0"].ofport,
                  eth_type=ETH_TYPE_IPV4, ip_proto=IP_PROTO_TCP, l4_dst=80),
            [OutputAction(99)], priority=0xF000,
        )
        host.settle_control_plane()
        assert host.manager.active_links == {}
        # The 5 in-flight packets stayed with the receiver, in order.
        received = host.pmds["dpdkr1"].rx_burst(32)
        assert received == in_flight
        assert host.manager.resilience.packets_salvaged == 0

    def test_modify_rule_to_new_destination(self, host):
        host = Host({"vm1": ["dpdkr0"], "vm2": ["dpdkr1"],
                     "vm3": ["dpdkr2"]})
        host.install_p2p("dpdkr0", "dpdkr1")
        host.controller.modify_flow(
            Match(in_port=host.ports["dpdkr0"].ofport),
            [OutputAction(host.ports["dpdkr2"].ofport)],
        )
        host.settle_control_plane()
        link = host.manager.link_for_src(host.ports["dpdkr0"].ofport)
        assert link.link.dst_ofport == host.ports["dpdkr2"].ofport
        assert host.pmds["dpdkr2"].bypass_rx_active
        assert not host.pmds["dpdkr1"].bypass_rx_active

    def test_chain_of_links(self):
        host = Host({"vm1": ["dpdkr0", "dpdkr1"],
                     "vm2": ["dpdkr2", "dpdkr3"]})
        host.install_p2p("dpdkr1", "dpdkr2")
        host.install_p2p("dpdkr3", "dpdkr0")
        assert len(host.manager.active_links) == 2


class TestTransparency:
    def test_flow_stats_include_bypassed_packets(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        for _ in range(7):
            host.pmds["dpdkr0"].tx_burst([mk_mbuf(frame_size=64)])
        host.pmds["dpdkr1"].rx_burst(32)
        host.controller.request_flow_stats()
        host.switch.step_control()
        host.controller.poll()
        stats = host.controller.latest_flow_stats.stats
        assert len(stats) == 1
        assert stats[0].packet_count == 7
        assert stats[0].byte_count == 7 * 64

    def test_port_stats_include_bypassed_packets(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        for _ in range(3):
            host.pmds["dpdkr0"].tx_burst([mk_mbuf(frame_size=64)])
        host.controller.request_port_stats()
        host.switch.step_control()
        host.controller.poll()
        stats = {s.port_no: s
                 for s in host.controller.latest_port_stats.stats}
        src, dst = host.ports["dpdkr0"], host.ports["dpdkr1"]
        assert stats[src.ofport].rx_packets == 3
        assert stats[dst.ofport].tx_packets == 3

    def test_stats_survive_teardown(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        host.pmds["dpdkr0"].tx_burst([mk_mbuf(frame_size=64)])
        host.pmds["dpdkr1"].rx_burst(32)
        host.delete_p2p("dpdkr0")
        host.controller.poll()
        # The flow-removed message already carries the bypass counters.
        assert host.controller.flow_removed[-1].packet_count == 1
        # And port stats remain correct afterwards.
        host.controller.request_port_stats()
        host.switch.step_control()
        host.controller.poll()
        stats = {s.port_no: s
                 for s in host.controller.latest_port_stats.stats}
        assert stats[host.ports["dpdkr0"].ofport].rx_packets == 1

    def test_packet_out_reaches_vm_during_bypass(self, host):
        host.install_p2p("dpdkr0", "dpdkr1")
        frame = mk_mbuf(frame_size=64).packet.pack()
        host.controller.packet_out(
            frame, [OutputAction(host.ports["dpdkr1"].ofport)]
        )
        host.switch.step_control()
        received = host.pmds["dpdkr1"].rx_burst(32)
        assert len(received) == 1
        assert received[0].packet.pack() == frame

    def test_mixed_bypass_and_switch_traffic_counts(self, host):
        # dpdkr0 -> dpdkr1 bypassed; dpdkr1 -> dpdkr0 via the switch only.
        host.install_p2p("dpdkr0", "dpdkr1")
        host.install_p2p("dpdkr1", "dpdkr0")
        assert len(host.manager.active_links) == 2
        host.pmds["dpdkr0"].tx_burst([mk_mbuf(frame_size=64)])
        host.pmds["dpdkr1"].tx_burst([mk_mbuf(frame_size=64)])
        host.controller.request_port_stats()
        host.switch.step_control()
        host.controller.poll()
        stats = {s.port_no: s
                 for s in host.controller.latest_port_stats.stats}
        assert stats[host.ports["dpdkr0"].ofport].rx_packets == 1
        assert stats[host.ports["dpdkr0"].ofport].tx_packets == 1
        assert stats[host.ports["dpdkr1"].ofport].rx_packets == 1
        assert stats[host.ports["dpdkr1"].ofport].tx_packets == 1
