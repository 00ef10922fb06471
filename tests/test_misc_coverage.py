"""Targeted tests for less-travelled branches across the stack."""

import pytest

from repro.packet import (
    IPv6,
    Packet,
    extract_flow_key,
    make_udp_packet,
)
from repro.packet.checksum import verify_checksum
from repro.packet.headers import (
    ETH_TYPE_IPV6,
    IP_PROTO_ICMP,
    IP_PROTO_UDP,
    Ethernet,
    Icmp,
    IPv4,
    MacAddress,
    Udp,
)

from tests.helpers import mk_mbuf


class TestChecksumVerify:
    def test_verify_packed_ipv4_header(self):
        ip = IPv4(src=1, dst=2)
        assert verify_checksum(ip.pack())

    def test_detects_corruption(self):
        raw = bytearray(IPv4(src=1, dst=2).pack())
        raw[8] ^= 0xFF
        assert not verify_checksum(bytes(raw))


class TestIPv6FlowKey:
    def test_ipv6_udp_key(self):
        packet = Packet(headers=[
            Ethernet(dst=MacAddress(2), src=MacAddress(1),
                     eth_type=ETH_TYPE_IPV6),
            IPv6(next_header=IP_PROTO_UDP,
                 src=(0x2001 << 112) | 0xAB, dst=(0x2001 << 112) | 0xCD),
            Udp(src_port=53, dst_port=5353),
        ])
        key = extract_flow_key(packet, in_port=4)
        assert key.eth_type == ETH_TYPE_IPV6
        assert key.ip_src == 0xAB  # low 32 bits
        assert key.ip_dst == 0xCD
        assert (key.l4_src, key.l4_dst) == (53, 5353)

    def test_icmp_key_uses_type_code(self):
        packet = Packet(headers=[
            Ethernet(dst=MacAddress(2), src=MacAddress(1)),
            IPv4(proto=IP_PROTO_ICMP, src=1, dst=2),
            Icmp(icmp_type=8, code=0),
        ])
        key = extract_flow_key(packet, in_port=1)
        assert key.ip_proto == IP_PROTO_ICMP
        assert (key.l4_src, key.l4_dst) == (8, 0)


class TestVSwitchdErrors:
    def test_start_requires_env(self):
        from repro.vswitch.vswitchd import VSwitchd

        with pytest.raises(RuntimeError):
            VSwitchd().start()

    def test_double_start_rejected(self):
        from repro.sim.engine import Environment
        from repro.vswitch.vswitchd import VSwitchd

        switch = VSwitchd(env=Environment())
        switch.start()
        with pytest.raises(RuntimeError):
            switch.start()
        switch.stop()

    def test_needs_a_core(self):
        from repro.vswitch.vswitchd import VSwitchd

        with pytest.raises(ValueError):
            VSwitchd(n_pmd_cores=0)


class TestDatapathBranches:
    def test_emc_stale_after_table_change(self):
        from repro.openflow.actions import OutputAction
        from repro.openflow.match import Match
        from repro.vswitch.vswitchd import VSwitchd

        switch = VSwitchd()
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        # Classified rules so traffic crosses the datapath.
        from repro.packet.headers import ETH_TYPE_IPV4
        from repro.openflow.table import FlowEntry

        switch.bridge.table.add(FlowEntry(
            Match(in_port=a.ofport, eth_type=ETH_TYPE_IPV4),
            [OutputAction(b.ofport)],
        ))
        a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()  # EMC populated
        switch.bridge.table.modify(
            Match(in_port=a.ofport), [OutputAction(c.ofport)]
        )
        a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        # Second packet respected the new rule despite the EMC entry.
        assert len(c.rings.to_guest) == 1
        assert switch.datapath.emc.stale_hits >= 1

    def test_classify_cost_reported(self):
        from repro.vswitch.datapath import Datapath
        from repro.openflow.table import FlowTable

        datapath = Datapath(FlowTable())
        mbuf = mk_mbuf()
        entry, cost = datapath.classify(mbuf, in_port=1)
        assert entry is None
        assert cost == datapath.costs.ovs_miss_upcall
        mbuf.free()


class TestNodeConveniences:
    def test_settle_autostarts_switch(self):
        from repro.orchestration import NfvNode
        from repro.sim.engine import Environment

        env = Environment()
        node = NfvNode(env=env)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()  # should start the switch itself
        assert node.active_bypasses == 1
        node.switch.stop()

    def test_ofport_lookup(self):
        from repro.orchestration import NfvNode

        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        assert node.ofport("dpdkr0") == 1
        with pytest.raises(KeyError):
            node.ofport("nope")


class TestImixThroughChain:
    def test_imix_traffic_forwards(self):
        from repro.experiments import ChainExperiment
        from repro.traffic.profiles import imix_profile

        experiment = ChainExperiment(num_vms=2, bypass=True,
                                     duration=0.001)
        experiment.build()
        # Swap the sources' profiles for IMIX before running.
        for source in experiment.sources:
            source.profile = imix_profile()
        result = experiment.run()
        assert result.forward_delivered > 0
        assert result.reverse_delivered > 0
