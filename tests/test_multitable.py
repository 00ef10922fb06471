"""Tests for the multi-table (goto_table) pipeline."""

import pytest

from repro.openflow.actions import (
    GotoTableAction,
    OutputAction,
    SetFieldAction,
)
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow import wire
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf


@pytest.fixture
def stack():
    connection = ControllerConnection()
    switch = VSwitchd(connection=connection)
    controller = SimpleController(connection)
    return switch, controller, connection


def send_flowmod(connection, switch, **kwargs):
    connection.controller_send(FlowMod(command=FlowModCommand.ADD,
                                       **kwargs))
    switch.step_control()


class TestWireCodec:
    def test_goto_roundtrip(self):
        original = FlowMod(
            match=Match(in_port=1),
            actions=[OutputAction(5), GotoTableAction(2)],
            table_id=1,
        )
        decoded = wire.decode(wire.encode(original))
        assert decoded.table_id == 1
        assert decoded.actions == [OutputAction(5), GotoTableAction(2)]

    def test_goto_only(self):
        original = FlowMod(match=Match(), actions=[GotoTableAction(3)])
        decoded = wire.decode(wire.encode(original))
        assert decoded.actions == [GotoTableAction(3)]

    def test_invalid_table_id_rejected(self):
        with pytest.raises(ValueError):
            GotoTableAction(255)


class TestPipelineForwarding:
    def test_two_stage_pipeline(self, stack):
        switch, _controller, connection = stack
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        # Table 0: classify by port, continue in table 1.
        send_flowmod(connection, switch, match=Match(in_port=a.ofport),
                     actions=[GotoTableAction(1)])
        # Table 1: split web / non-web.
        send_flowmod(connection, switch,
                     match=Match(eth_type=ETH_TYPE_IPV4,
                                 ip_proto=IP_PROTO_TCP, l4_dst=80),
                     actions=[OutputAction(b.ofport)], table_id=1)
        send_flowmod(connection, switch, match=Match(),
                     actions=[OutputAction(c.ofport)], table_id=1,
                     priority=1)
        from repro.packet.builder import make_tcp_packet

        web = mk_mbuf(packet=make_tcp_packet(dst_port=80))
        other = mk_mbuf()
        a.rings.to_switch.enqueue_bulk([web, other])
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == [web]
        assert drain(c.rings.to_guest) == [other]
        # Both stages counted the packets.
        assert switch.bridge.tables[0].entries()[0].packet_count == 2
        assert len(switch.bridge.tables) == 2

    def test_actions_accumulate_across_tables(self, stack):
        switch, _controller, connection = stack
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        # Table 0 outputs to b AND continues; table 1 outputs to c.
        send_flowmod(connection, switch, match=Match(in_port=a.ofport),
                     actions=[OutputAction(b.ofport), GotoTableAction(1)])
        send_flowmod(connection, switch, match=Match(),
                     actions=[OutputAction(c.ofport)], table_id=1)
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == [mbuf]
        assert drain(c.rings.to_guest) == [mbuf]
        assert mbuf.refcnt == 2

    def test_later_table_miss_drops(self, stack):
        switch, _controller, connection = stack
        a = switch.add_dpdkr_port("dpdkr0")
        send_flowmod(connection, switch, match=Match(in_port=a.ofport),
                     actions=[GotoTableAction(1)])
        send_flowmod(connection, switch,
                     match=Match(eth_type=ETH_TYPE_IPV4,
                                 ip_proto=IP_PROTO_TCP, l4_dst=80),
                     actions=[], table_id=1)
        mbuf = mk_mbuf()  # UDP: misses table 1
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert mbuf.refcnt == 0
        assert switch.datapath.pipeline_drops == 1
        assert switch.datapath.miss_upcalls == 0  # not a table-0 miss

    def test_emc_caches_whole_traversal(self, stack):
        switch, _controller, connection = stack
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        send_flowmod(connection, switch, match=Match(in_port=a.ofport),
                     actions=[GotoTableAction(1)])
        send_flowmod(connection, switch, match=Match(),
                     actions=[OutputAction(b.ofport)], table_id=1)
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.emc_hits == 1
        # The cached traversal still bumps both tables' counters.
        assert switch.bridge.tables[1].entries()[0].packet_count == 2

    def test_stats_cover_all_tables(self, stack):
        switch, controller, connection = stack
        send_flowmod(connection, switch, match=Match(in_port=1),
                     actions=[GotoTableAction(1)])
        send_flowmod(connection, switch, match=Match(),
                     actions=[], table_id=1)
        controller.request_flow_stats()
        switch.step_control()
        controller.poll()
        assert len(controller.latest_flow_stats.stats) == 2


class TestValidation:
    def test_goto_backwards_rejected(self, stack):
        switch, controller, connection = stack
        send_flowmod(connection, switch, match=Match(),
                     actions=[GotoTableAction(1)], table_id=1)
        controller.poll()
        assert len(controller.errors) == 1
        assert len(switch.bridge.tables.get(1, [])) == 0

    def test_set_field_plus_goto_rejected(self, stack):
        switch, controller, connection = stack
        send_flowmod(connection, switch, match=Match(in_port=1),
                     actions=[SetFieldAction("eth_dst", 5),
                              GotoTableAction(1)])
        controller.poll()
        assert len(controller.errors) == 1

    def test_table_id_out_of_range(self, stack):
        switch, controller, connection = stack
        send_flowmod(connection, switch, match=Match(),
                     actions=[], table_id=99)
        controller.poll()
        assert len(controller.errors) == 1


class TestDetectorInterplay:
    def test_goto_rule_is_not_p2p(self):
        from repro.orchestration import NfvNode

        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.connection.controller_send(FlowMod(
            command=FlowModCommand.ADD,
            match=Match(in_port=node.ofport("dpdkr0")),
            actions=[GotoTableAction(1)],
        ))
        node.connection.controller_send(FlowMod(
            command=FlowModCommand.ADD,
            match=Match(),
            actions=[OutputAction(node.ofport("dpdkr1"))],
            table_id=1,
        ))
        node.settle_control_plane()
        # All traffic does reach dpdkr1, but through a pipeline the
        # detector (correctly, conservatively) does not analyse.
        assert node.active_bypasses == 0
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == [mbuf]
