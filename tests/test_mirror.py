"""Tests for port mirroring and its interaction with the highway."""

import pytest

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.vswitch.mirror import Mirror

from tests.helpers import drain, mk_mbuf


@pytest.fixture
def node():
    node = NfvNode()
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.create_vm("ids", ["span0"])  # the observer
    return node


def install(node, src, dst, **kwargs):
    node.controller.install_flow(
        Match(in_port=node.ofport(src)),
        [OutputAction(node.ofport(dst))], **kwargs
    )
    node.settle_control_plane()


class TestMirrorDefinition:
    def test_must_select_something(self):
        with pytest.raises(ValueError):
            Mirror(name="m", output=3)

    def test_output_cannot_be_selected(self):
        with pytest.raises(ValueError):
            Mirror(name="m", output=3, select_src=frozenset({3}))

    def test_duplicate_name_rejected(self, node):
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        with pytest.raises(ValueError):
            node.switch.add_mirror("m", output="span0",
                                   select_src=["dpdkr1"])


class TestMirrorDataPath:
    def test_ingress_mirroring(self, node):
        # Use a classified rule so traffic stays on the vSwitch.
        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.step_control()
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == [mbuf]
        mirrored = node.vms["ids"].pmd("span0").rx_burst(8)
        assert mirrored == [mbuf]
        assert mbuf.refcnt == 2
        assert node.switch.datapath.packets_mirrored == 1

    def test_ingress_mirror_sees_dropped_packets(self, node):
        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0")), [], priority=10
        )  # drop rule... but that is also not a p2p rule
        node.switch.step_control()
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        # Dropped by policy, but the mirror still observed it.
        assert node.vms["ids"].pmd("span0").rx_burst(8) == [mbuf]

    def test_egress_mirroring(self, node):
        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.step_control()
        node.switch.add_mirror("m", output="span0",
                               select_dst=["dpdkr1"])
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == [mbuf]
        assert node.vms["ids"].pmd("span0").rx_burst(8) == [mbuf]

    def test_remove_mirror_stops_cloning(self, node):
        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.step_control()
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        node.switch.remove_mirror("m")
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mk_mbuf()])
        node.switch.step_dataplane()
        assert node.vms["ids"].pmd("span0").rx_burst(8) == []
        with pytest.raises(ValueError):
            node.switch.remove_mirror("m")


class TestMirrorVsHighway:
    def test_mirrored_port_not_bypassed(self, node):
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        install(node, "dpdkr0", "dpdkr1")
        # The rule is p-2-p, but the port is watched: no bypass.
        assert node.active_bypasses == 0
        # And the mirror actually sees the traffic.
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        assert node.vms["ids"].pmd("span0").rx_burst(8) == [mbuf]

    def test_adding_mirror_revokes_active_bypass(self, node):
        install(node, "dpdkr0", "dpdkr1")
        assert node.active_bypasses == 1
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        node.settle_control_plane()
        assert node.active_bypasses == 0
        assert not node.vms["vm1"].pmd("dpdkr0").bypass_tx_active

    def test_removing_mirror_restores_bypass(self, node):
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr0"])
        install(node, "dpdkr0", "dpdkr1")
        assert node.active_bypasses == 0
        node.switch.remove_mirror("m")
        node.settle_control_plane()
        assert node.active_bypasses == 1

    def test_unrelated_mirror_leaves_bypass_alone(self, node):
        install(node, "dpdkr0", "dpdkr1")
        # A mirror watching a third port does not disturb the link...
        node.create_vm("vm4", ["dpdkr3"])
        node.switch.add_mirror("m", output="span0",
                               select_src=["dpdkr3"])
        node.settle_control_plane()
        assert node.active_bypasses == 1
