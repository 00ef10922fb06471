"""Tests for the ovs-appctl/ovs-ofctl style management surface."""

import pytest

from repro.orchestration import NfvNode
from repro.vswitch import appctl
from repro.vswitch.appctl import AppCtl

from tests.helpers import mk_mbuf


@pytest.fixture
def node():
    node = NfvNode()
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


class TestAddDelFlows:
    def test_add_flow_triggers_detector(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        node.settle_control_plane()
        assert node.active_bypasses == 1

    def test_add_flow_attributes(self, node):
        entry = appctl.add_flow(
            node.switch,
            "priority=42,cookie=0x7,idle_timeout=3,tcp,tp_dst=80,"
            "actions=output:2",
        )
        assert entry.priority == 42
        assert entry.cookie == 7
        assert entry.idle_timeout == 3.0

    def test_del_flows_all(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        appctl.add_flow(node.switch, "in_port=2,actions=output:1")
        node.settle_control_plane()
        assert node.active_bypasses == 2
        assert appctl.del_flows(node.switch) == 2
        node.settle_control_plane()
        assert node.active_bypasses == 0

    def test_del_flows_spec(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        appctl.add_flow(node.switch, "in_port=2,actions=output:1")
        assert appctl.del_flows(node.switch, "in_port=1") == 1
        assert len(node.switch.bridge.table) == 1


class TestDumps:
    def test_dump_flows_includes_bypass_counters(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        node.settle_control_plane()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mk_mbuf(frame_size=64)])
        text = appctl.dump_flows(node.switch)
        assert "n_packets=1" in text
        assert "n_bytes=64" in text
        assert "in_port=1 actions=output:2" in text

    def test_show_lists_bypass_flag(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        node.settle_control_plane()
        text = appctl.show(node.switch)
        assert "dpdkr0" in text and "BYPASS" in text
        assert "2 ports" in text

    def test_cache_stats(self, node):
        # A classified (non-p2p) rule, so traffic crosses the datapath.
        appctl.add_flow(node.switch, "in_port=2,udp,actions=output:1")
        node.vms["vm2"].pmd("dpdkr1").tx_burst([mk_mbuf()])
        node.switch.step_dataplane()
        text = appctl.cache_stats(node.switch)
        assert "classifier hits: 1" in text
        assert "packets processed: 1" in text

    def test_fastpath_show(self, node):
        appctl.add_flow(node.switch, "in_port=2,udp,actions=output:1")
        for _ in range(2):  # second burst: EMC hit + a filled batch
            node.vms["vm2"].pmd("dpdkr1").tx_burst([mk_mbuf()])
            node.switch.step_dataplane()
        text = appctl.fastpath_show(node.switch)
        assert "fast path: burst size 32" in text
        assert "lookup tiers: emc=on smc=on megaflow=on\n" in text
        assert "emc: 1 entries" in text
        assert "smc:" in text
        assert "subtable [" in text
        assert "fill  1: 2 batch(es)" in text

    def test_fastpath_show_via_dispatcher(self, node):
        text = AppCtl(node.switch).run("dpif/fastpath-show")
        assert "fast path:" in text
        assert "lookup tiers: emc=on smc=on" in text

    def test_bypass_show(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        node.settle_control_plane()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mk_mbuf(frame_size=64)])
        text = appctl.bypass_show(node.switch, node.manager)
        assert "1 active channel" in text
        assert "dpdkr0 -> dpdkr1" in text
        assert "tx_packets=1" in text

    def test_bypass_show_disabled(self, node):
        assert "disabled" in appctl.bypass_show(node.switch, None)

    def test_show_lists_mirrors_and_policers(self, node):
        node.create_vm("ids", ["span0"])
        node.switch.add_mirror("m1", output="span0",
                               select_src=["dpdkr0"])
        node.switch.set_ingress_policing("dpdkr1", rate_pps=5000)
        text = appctl.show(node.switch)
        assert "mirror m1" in text
        assert "POLICED@5000pps" in text

    def test_bypass_show_history(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        node.settle_control_plane()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mk_mbuf(frame_size=64)])
        appctl.del_flows(node.switch, "in_port=1")
        node.settle_control_plane()
        text = appctl.bypass_show(node.switch, node.manager)
        assert "0 active channel" in text
        assert "1 channel(s) removed, 1 packets carried" in text


class TestSaveRestore:
    def test_roundtrip(self, node):
        appctl.add_flow(node.switch, "in_port=1,actions=output:2")
        appctl.add_flow(node.switch,
                        "table=1,tcp,tp_dst=80,actions=drop")
        saved = appctl.save_flows(node.switch)
        assert "table=1" in saved
        node.settle_control_plane()
        assert node.active_bypasses == 1
        appctl.del_flows(node.switch)
        node.settle_control_plane()
        assert node.active_bypasses == 0
        count = appctl.restore_flows(node.switch, saved)
        assert count == 2
        node.settle_control_plane()
        # Restoring the p-2-p rule re-established the bypass.
        assert node.active_bypasses == 1
        assert appctl.save_flows(node.switch) == saved

    def test_restore_replaces(self, node):
        appctl.add_flow(node.switch, "in_port=2,actions=output:1")
        appctl.restore_flows(node.switch,
                             "in_port=1,actions=output:2\n\n# comment\n")
        assert len(node.switch.bridge.table) == 1

    def test_table_key_routes_to_pipeline_table(self, node):
        entry = appctl.add_flow(node.switch,
                                "table=2,udp,actions=drop")
        assert entry in node.switch.bridge.tables[2].entries()


class TestDispatcher:
    def test_dispatch(self, node):
        ctl = AppCtl(node.switch, node.manager)
        ctl.run("add-flow", "in_port=1,actions=output:2")
        node.settle_control_plane()
        assert node.active_bypasses == 1
        assert "BYPASS" in ctl.run("show")
        assert "active channel" in ctl.run("bypass/show")
        assert "flows removed" in ctl.run("del-flows")

    def test_unknown_command(self, node):
        ctl = AppCtl(node.switch)
        assert "unknown command" in ctl.run("frobnicate")
        # A malformed argument is a usage line, not a bare ValueError.
        assert ctl.run("trace/dump", "abc") == "usage: trace/dump [LIMIT]"
