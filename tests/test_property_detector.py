"""Property tests for the detector and the bypass lifecycle.

1. Soundness: whenever the detector reports a p-2-p link A -> B, a
   brute-force evaluation of every sampled packet from A through the
   flow table resolves to a pure single output to B.
2. Lifecycle consistency: under random rule churn on a full host, the
   manager/PMD/memzone state always agrees with the detector, and no
   bypass memzone ever leaks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import P2PLinkDetector
from repro.openflow.actions import (
    ControllerAction,
    OutputAction,
    is_pure_single_output,
)
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP, IP_PROTO_UDP

PORTS = [1, 2, 3]


def sample_keys(in_port):
    keys = []
    for proto in (IP_PROTO_TCP, IP_PROTO_UDP):
        for l4_dst in (80, 443, 9999):
            for ip_dst in (0x0A000001, 0x0B000002):
                keys.append(FlowKey(
                    in_port=in_port, eth_src=2, eth_dst=3,
                    eth_type=ETH_TYPE_IPV4, vlan_vid=0,
                    ip_src=0x0A000009, ip_dst=ip_dst, ip_proto=proto,
                    ip_tos=0, l4_src=1000, l4_dst=l4_dst,
                ))
    # Plus a non-IP packet (ARP-ish).
    keys.append(FlowKey(in_port=in_port, eth_src=2, eth_dst=3,
                        eth_type=0x0806, vlan_vid=0, ip_src=0, ip_dst=0,
                        ip_proto=0, ip_tos=0, l4_src=0, l4_dst=0))
    return keys


@st.composite
def rule(draw):
    constraints = {"in_port": draw(st.sampled_from(PORTS))}
    if draw(st.booleans()) and draw(st.booleans()):
        del constraints["in_port"]
    if draw(st.booleans()):
        constraints["eth_type"] = ETH_TYPE_IPV4
        if draw(st.booleans()):
            constraints["ip_proto"] = draw(
                st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP])
            )
            if draw(st.booleans()):
                constraints["l4_dst"] = draw(st.sampled_from([80, 443]))
    kind = draw(st.sampled_from(["output", "drop", "controller", "multi"]))
    if kind == "output":
        actions = [OutputAction(draw(st.sampled_from(PORTS)))]
    elif kind == "drop":
        actions = []
    elif kind == "controller":
        actions = [ControllerAction()]
    else:
        actions = [OutputAction(draw(st.sampled_from(PORTS))),
                   OutputAction(draw(st.sampled_from(PORTS)))]
    return Match(**constraints), actions, draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(rule(), max_size=12))
def test_detector_soundness(rules):
    table = FlowTable()
    detector = P2PLinkDetector(table)
    for match, actions, priority in rules:
        table.add(FlowEntry(match, actions, priority=priority))
    for src_port, link in detector.links.items():
        for key in sample_keys(src_port):
            winner = table.lookup(key)
            assert winner is not None, "p2p port with unmatched packet"
            assert is_pure_single_output(winner.actions)
            assert winner.actions[0].port == link.dst_ofport


churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(PORTS),
                  st.sampled_from(PORTS)),
        st.tuples(st.just("delete"), st.sampled_from(PORTS),
                  st.just(0)),
        st.tuples(st.just("divert"), st.sampled_from(PORTS),
                  st.sampled_from(PORTS)),
    ),
    max_size=15,
)


@settings(max_examples=60, deadline=None)
@given(churn_ops)
def test_bypass_lifecycle_consistency(ops):
    from repro.openflow.match import Match as M
    from repro.orchestration.node import NfvNode

    node = NfvNode()
    port_names = {}
    for index, port in enumerate(PORTS):
        name = "dpdkr%d" % index
        node.create_vm("vm%d" % index, [name])
        port_names[port] = name

    for op, a, b in ops:
        ofport_a = node.ofport(port_names[a])
        if op == "install" and a != b:
            node.controller.install_flow(
                M(in_port=ofport_a),
                [OutputAction(node.ofport(port_names[b]))],
                priority=10,
            )
        elif op == "delete":
            node.controller.delete_flow(M(in_port=ofport_a))
        elif op == "divert":
            node.controller.install_flow(
                M(in_port=ofport_a, eth_type=ETH_TYPE_IPV4),
                [OutputAction(node.ofport(port_names[b]))],
                priority=20,
            )
        node.settle_control_plane()

        detector_links = node.manager.detector.links
        manager_links = node.manager.active_links
        # Once settled, manager state mirrors the detector exactly.
        assert set(manager_links) == set(detector_links)
        # PMD channel state mirrors the links.
        for ofport, handle_name in (
            (node.ofport(port_names[p]), port_names[p]) for p in PORTS
        ):
            owner = node.agent.owner_of(handle_name)
            pmd = node.vms[owner].pmd(handle_name)
            should_tx = ofport in detector_links
            should_rx = any(link.dst_ofport == ofport
                            for link in detector_links.values())
            assert pmd.bypass_tx_active == should_tx
            assert pmd.bypass_rx_active == should_rx
        # No leaked bypass memzones: one per active link, plus the three
        # boot-time dpdkr zones.
        zone_count = len(node.registry)
        assert zone_count == 3 + len(manager_links)
