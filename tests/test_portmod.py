"""Port administration (OFPT_PORT_MOD) and its bypass interaction."""

import pytest

from repro.openflow import wire
from repro.openflow.messages import PortMod
from repro.orchestration import NfvNode

from tests.helpers import drain, mk_mbuf


@pytest.fixture
def node():
    node = NfvNode()
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


def port_mod(node, port_name, down):
    node.connection.controller_send(
        PortMod(port_no=node.ofport(port_name), down=down)
    )
    node.settle_control_plane()


class TestWire:
    def test_roundtrip(self):
        decoded = wire.decode(wire.encode(PortMod(port_no=7, down=True)))
        assert decoded.port_no == 7 and decoded.down
        decoded = wire.decode(wire.encode(PortMod(port_no=3, down=False)))
        assert not decoded.down


class TestDataPath:
    def test_down_port_not_polled(self, node):
        from repro.openflow.actions import OutputAction
        from repro.openflow.match import Match

        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.step_control()
        port_mod(node, "dpdkr0", down=True)
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        # Packet sits unread in the TX ring; nothing delivered.
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == []
        assert node.ports["dpdkr0"].rx_packets == 0
        # Bringing the port back drains it.
        port_mod(node, "dpdkr0", down=False)
        node.switch.step_dataplane()
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == [mbuf]

    def test_tx_to_down_port_dropped(self, node):
        from repro.openflow.actions import OutputAction
        from repro.openflow.match import Match

        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.step_control()
        port_mod(node, "dpdkr1", down=True)
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        assert mbuf.refcnt == 0
        assert node.ports["dpdkr1"].tx_dropped == 1

    def test_unknown_port_errors(self, node):
        node.connection.controller_send(PortMod(port_no=99, down=True))
        node.switch.step_control()
        node.controller.poll()
        assert len(node.controller.errors) == 1


class TestBypassInteraction:
    def test_downing_src_port_revokes_bypass(self, node):
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        assert node.active_bypasses == 1
        port_mod(node, "dpdkr0", down=True)
        assert node.active_bypasses == 0
        # Traffic stops flowing entirely: the bypass is gone and the
        # switch refuses to poll the down port.
        pmd = node.vms["vm1"].pmd("dpdkr0")
        assert not pmd.bypass_tx_active
        pmd.tx_burst([mk_mbuf()])
        node.switch.step_dataplane()
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == []

    def test_downing_dst_port_revokes_bypass(self, node):
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        port_mod(node, "dpdkr1", down=True)
        assert node.active_bypasses == 0

    def test_bringing_port_up_restores_bypass(self, node):
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        port_mod(node, "dpdkr0", down=True)
        assert node.active_bypasses == 0
        port_mod(node, "dpdkr0", down=False)
        assert node.active_bypasses == 1

    def test_redundant_port_mod_is_noop(self, node):
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        history_before = len(node.manager.history)
        port_mod(node, "dpdkr0", down=False)  # already up
        assert len(node.manager.history) == history_before
        assert node.active_bypasses == 1
