"""Tests for service graphs, the NFV node and the orchestrator."""

import pytest

from repro.apps import ForwarderApp
from repro.orchestration import (
    NfvNode,
    Orchestrator,
    ServiceGraph,
)
from repro.orchestration.graph import GraphError, external
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP

from tests.helpers import mk_mbuf


class TestServiceGraph:
    def test_build_and_validate(self):
        graph = ServiceGraph("svc")
        graph.add_vnf("fw", ["in", "out"])
        graph.add_vnf("mon", ["in", "out"])
        graph.connect("fw.out", "mon.in", bidirectional=True)
        graph.validate()
        assert len(graph.links) == 2

    def test_duplicate_vnf_rejected(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        with pytest.raises(GraphError):
            graph.add_vnf("a", ["p"])

    def test_unknown_endpoint_rejected(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        with pytest.raises(GraphError):
            graph.connect("a.p", "b.q")
        with pytest.raises(GraphError):
            graph.connect("a.zzz", "a.p")

    def test_conflicting_total_links_rejected(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        graph.add_vnf("b", ["p"])
        graph.add_vnf("c", ["p"])
        graph.connect("a.p", "b.p")
        graph.connect("a.p", "c.p")
        with pytest.raises(GraphError):
            graph.validate()

    def test_classified_links_coexist(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        graph.add_vnf("b", ["p"])
        graph.add_vnf("c", ["p"])
        graph.connect("a.p", "b.p",
                      match_fields={"eth_type": ETH_TYPE_IPV4,
                                    "ip_proto": IP_PROTO_TCP, "l4_dst": 80})
        graph.connect("a.p", "c.p")
        graph.validate()
        # The total link from a.p is not a p2p candidate: a classified
        # link shares the source port.
        assert graph.p2p_candidate_links() == []

    def test_external_endpoints(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        endpoint = graph.add_external("nic0")
        graph.connect(endpoint, "a.p")
        graph.validate()
        assert graph.p2p_candidate_links() == []  # external side

    def test_undeclared_external_rejected(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        with pytest.raises(GraphError):
            graph.connect(external("nic0"), "a.p")

    def test_p2p_candidates(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        graph.add_vnf("b", ["p"])
        graph.connect("a.p", "b.p", bidirectional=True)
        assert len(graph.p2p_candidate_links()) == 2

    def test_port_key(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        assert graph.port_key(graph._resolve("a.p")) == "a.p"
        graph.add_external("nic0")
        assert graph.port_key(external("nic0")) == "nic0"

    def test_malformed_endpoint_string(self):
        graph = ServiceGraph()
        graph.add_vnf("a", ["p"])
        with pytest.raises(GraphError):
            graph.connect("a", "a.p")


class TestNfvNode:
    def test_create_vm_wires_everything(self):
        node = NfvNode()
        handle = node.create_vm("vm1", ["dpdkr0", "dpdkr1"])
        assert handle.pmd("dpdkr0").name == "dpdkr0"
        assert node.agent.owner_of("dpdkr0") == "vm1"
        assert node.ofport("dpdkr0") == 1

    def test_p2p_rule_creates_bypass_sync(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        assert node.active_bypasses == 1

    def test_highway_disabled(self):
        node = NfvNode(highway_enabled=False)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        assert node.active_bypasses == 0
        assert node.manager is None

    def test_switch_options_are_forwarded_verbatim(self):
        from repro.overload import UpcallPolicy

        node = NfvNode(rxq_assign="cycles", fail_mode="secure",
                       upcall_policy=UpcallPolicy(max_queue=7,
                                                  control_reserve=1))
        assert node.switch.scheduler.policy.name == "cycles"
        assert node.switch.failmode.mode.value == "secure"
        assert node.switch.upcall_queue.policy.max_queue == 7
        with pytest.raises(TypeError):
            NfvNode(no_such_switch_option=1)


class TestOrchestrator:
    def build_chain_graph(self, length=2):
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

    def test_deploy_creates_vms_apps_rules(self):
        node = NfvNode()
        deployment = Orchestrator(node).deploy(self.build_chain_graph(3))
        assert len(deployment.vm_handles) == 3
        assert len(deployment.apps) == 3
        assert len(node.switch.bridge.table) == 4
        # Both directions of both adjacencies were upgraded to bypasses.
        assert node.active_bypasses == 4

    def test_deployed_apps_carry_traffic_over_bypass(self):
        node = NfvNode()
        deployment = Orchestrator(node).deploy(self.build_chain_graph(2))
        mbuf = mk_mbuf()
        deployment.pmd("vnf1.p1").tx_burst([mbuf])
        deployment.apps["vnf2"].iteration()  # vnf2 forwards p0 -> p1
        # vnf1.p1 -> vnf2.p0 is bypassed; the switch never saw the packet.
        assert node.ports["vnf1.p1"].rx_packets == 0
        # It sits in vnf2's p1 TX (normal channel, no rule for it).
        assert node.ports["vnf2.p1"].rings.to_switch.dequeue() is mbuf

    def test_classified_split_is_not_bypassed(self):
        node = NfvNode()
        graph = ServiceGraph("split")
        graph.add_vnf("fw", ["in", "out"])
        graph.add_vnf("cache", ["in"])
        graph.add_vnf("mon", ["in"])
        graph.connect("fw.out", "cache.in",
                      match_fields={"eth_type": ETH_TYPE_IPV4,
                                    "ip_proto": IP_PROTO_TCP, "l4_dst": 80})
        graph.connect("fw.out", "mon.in")
        deployment = Orchestrator(node).deploy(graph)
        # fw.out has a classified split: must stay on the vSwitch.
        assert node.manager.link_for_src(node.ofport("fw.out")) is None
        # Traffic is still steered correctly through the switch.
        from repro.packet.builder import make_tcp_packet, make_udp_packet

        web = mk_mbuf(packet=make_tcp_packet(dst_port=80))
        other = mk_mbuf(packet=make_udp_packet())
        deployment.pmd("fw.out").tx_burst([web, other])
        node.switch.step_dataplane()
        assert deployment.pmd("cache.in").rx_burst(8) == [web]
        assert deployment.pmd("mon.in").rx_burst(8) == [other]

    def test_undeploy_link_tears_down(self):
        node = NfvNode()
        graph = self.build_chain_graph(2)
        Orchestrator(node).deploy(graph)
        assert node.active_bypasses == 2
        orchestrator = Orchestrator(node)
        orchestrator.undeploy_link(graph, graph.links[0])
        assert node.active_bypasses == 1

    def test_undeploy_link_updates_deployment_books(self):
        node = NfvNode()
        graph = self.build_chain_graph(2)
        orchestrator = Orchestrator(node)
        deployment = orchestrator.deploy(graph)
        assert len(deployment.installed_rules) == 2
        link = graph.links[0]
        orchestrator.undeploy_link(graph, link, deployment)
        assert link not in deployment.installed_rules
        assert len(node.switch.bridge.table) == 1
        # Undeploying an already-removed link is a no-op, not an error.
        orchestrator.undeploy_link(graph, link, deployment)
        assert len(deployment.installed_rules) == 1

    def test_redeploy_link_does_not_duplicate_state(self):
        node = NfvNode()
        graph = self.build_chain_graph(2)
        orchestrator = Orchestrator(node)
        deployment = orchestrator.deploy(graph)
        link = graph.links[0]
        for _ in range(3):
            orchestrator.redeploy_link(graph, link, deployment)
        # One flow per link and one bookkeeping entry per link — the
        # replays left no duplicates behind.
        assert len(node.switch.bridge.table) == 2
        assert deployment.installed_rules.count(link) == 1
        assert len(deployment.installed_rules) == 2
        # The bypass survived the replay cycle (fresh detection).
        node.settle_control_plane()
        assert node.active_bypasses == 2

    def test_redeploy_after_undeploy_restores_bypass(self):
        node = NfvNode()
        graph = self.build_chain_graph(2)
        orchestrator = Orchestrator(node)
        deployment = orchestrator.deploy(graph)
        link = graph.links[0]
        orchestrator.undeploy_link(graph, link, deployment)
        assert node.active_bypasses == 1
        orchestrator.redeploy_link(graph, link, deployment)
        assert node.active_bypasses == 2
        assert len(deployment.installed_rules) == 2
