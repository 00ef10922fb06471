"""Tests for connection tracking and the stateful firewall."""

import pytest

from repro.apps.conntrack import (
    ConnState,
    ConnectionTracker,
    StatefulFirewallApp,
)
from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings
from repro.mem.memzone import MemzoneRegistry
from repro.packet.builder import make_tcp_packet, make_udp_packet
from repro.packet.flowkey import extract_flow_key
from repro.packet.headers import Tcp

from tests.helpers import mk_mbuf


def tcp_mbuf(flags, src_ip="10.0.0.1", dst_ip="8.8.8.8",
             src_port=40000, dst_port=80):
    return mk_mbuf(packet=make_tcp_packet(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
        dst_port=dst_port, flags=flags,
    ))


def key_of(mbuf):
    return extract_flow_key(mbuf.packet, 0)


class TestConnectionTracker:
    def test_tcp_handshake_states(self):
        tracker = ConnectionTracker()
        syn = tcp_mbuf(Tcp.SYN)
        conn = tracker.observe(key_of(syn), syn, 0.0, from_inside=True)
        assert conn.state == ConnState.SYN_SENT
        synack = tcp_mbuf(Tcp.SYN | Tcp.ACK, src_ip="8.8.8.8",
                          dst_ip="10.0.0.1", src_port=80, dst_port=40000)
        tracker.observe(key_of(synack), synack, 0.1, from_inside=False)
        assert conn.state == ConnState.ESTABLISHED
        assert len(tracker) == 1  # both directions, one connection

    def test_fin_teardown(self):
        tracker = ConnectionTracker()
        syn = tcp_mbuf(Tcp.SYN)
        conn = tracker.observe(key_of(syn), syn, 0.0, True)
        fin1 = tcp_mbuf(Tcp.FIN | Tcp.ACK)
        tracker.observe(key_of(fin1), fin1, 1.0, True)
        assert conn.state == ConnState.FIN_WAIT
        fin2 = tcp_mbuf(Tcp.FIN | Tcp.ACK, src_ip="8.8.8.8",
                        dst_ip="10.0.0.1", src_port=80, dst_port=40000)
        tracker.observe(key_of(fin2), fin2, 1.1, False)
        assert conn.state == ConnState.CLOSED
        assert tracker.expire(now=1.2) == 1

    def test_rst_closes(self):
        tracker = ConnectionTracker()
        syn = tcp_mbuf(Tcp.SYN)
        conn = tracker.observe(key_of(syn), syn, 0.0, True)
        rst = tcp_mbuf(Tcp.RST)
        tracker.observe(key_of(rst), rst, 0.5, True)
        assert conn.state == ConnState.CLOSED

    def test_udp_established_after_both_directions(self):
        tracker = ConnectionTracker()
        out = mk_mbuf(packet=make_udp_packet(src_ip="10.0.0.1",
                                             dst_ip="8.8.8.8",
                                             src_port=5000, dst_port=53))
        conn = tracker.observe(key_of(out), out, 0.0, True)
        assert conn.state == ConnState.NEW
        back = mk_mbuf(packet=make_udp_packet(src_ip="8.8.8.8",
                                              dst_ip="10.0.0.1",
                                              src_port=53, dst_port=5000))
        tracker.observe(key_of(back), back, 0.1, False)
        assert conn.state == ConnState.ESTABLISHED
        assert conn.packets_in == 1 and conn.packets_out == 1

    def test_idle_eviction(self):
        tracker = ConnectionTracker(idle_timeout=10.0)
        syn = tcp_mbuf(Tcp.SYN)
        tracker.observe(key_of(syn), syn, 0.0, True)
        assert tracker.expire(now=5.0) == 0
        assert tracker.expire(now=10.0) == 1
        assert len(tracker) == 0

    def test_capacity_bound(self):
        tracker = ConnectionTracker(max_connections=2)
        for port in (1, 2, 3):
            mbuf = tcp_mbuf(Tcp.SYN, src_port=40000 + port)
            result = tracker.observe(key_of(mbuf), mbuf, 0.0, True)
            if port == 3:
                assert result is None
        assert tracker.rejected_full == 1
        assert len(tracker) == 2


class TestStatefulFirewall:
    @pytest.fixture
    def firewall(self):
        registry = MemzoneRegistry()
        inside = DpdkrPmd(0, DpdkrSharedRings(registry, "inside"))
        outside = DpdkrPmd(1, DpdkrSharedRings(registry, "outside"))
        app = StatefulFirewallApp("sfw", inside, outside)
        return inside, outside, app

    def feed_inside(self, inside, mbufs):
        inside.rings.to_guest.enqueue_bulk(mbufs)

    def feed_outside(self, outside, mbufs):
        outside.rings.to_guest.enqueue_bulk(mbufs)

    def test_unsolicited_inbound_blocked(self, firewall):
        inside, outside, app = firewall
        attack = tcp_mbuf(Tcp.SYN, src_ip="8.8.8.8", dst_ip="10.0.0.1",
                          src_port=6666, dst_port=22)
        self.feed_outside(outside, [attack])
        app.iteration()
        assert inside.rings.to_switch.dequeue_burst(8) == []
        assert app.blocked == 1
        assert attack.refcnt == 0

    def test_outbound_then_reply_allowed(self, firewall):
        inside, outside, app = firewall
        request = tcp_mbuf(Tcp.SYN)
        self.feed_inside(inside, [request])
        app.iteration()
        assert outside.rings.to_switch.dequeue_burst(8) == [request]
        reply = tcp_mbuf(Tcp.SYN | Tcp.ACK, src_ip="8.8.8.8",
                         dst_ip="10.0.0.1", src_port=80, dst_port=40000)
        self.feed_outside(outside, [reply])
        app.iteration()
        assert inside.rings.to_switch.dequeue_burst(8) == [reply]
        assert app.blocked == 0 and app.allowed == 2

    def test_closed_connection_rejects_reply(self, firewall):
        inside, outside, app = firewall
        self.feed_inside(inside, [tcp_mbuf(Tcp.SYN)])
        app.iteration()
        outside.rings.to_switch.dequeue_burst(8)
        self.feed_inside(inside, [tcp_mbuf(Tcp.RST)])
        app.iteration()
        outside.rings.to_switch.dequeue_burst(8)
        late = tcp_mbuf(Tcp.ACK, src_ip="8.8.8.8", dst_ip="10.0.0.1",
                        src_port=80, dst_port=40000)
        self.feed_outside(outside, [late])
        app.iteration()
        assert inside.rings.to_switch.dequeue_burst(8) == []
        assert app.blocked == 1

    def test_non_transport_passes(self, firewall):
        inside, outside, app = firewall
        from repro.packet.builder import make_arp_request

        arp = mk_mbuf(packet=make_arp_request())
        self.feed_outside(outside, [arp])
        app.iteration()
        assert inside.rings.to_switch.dequeue_burst(8) == [arp]

    def test_works_over_bypass(self):
        """Same firewall, ports transparently bypassed underneath."""
        from repro.orchestration import NfvNode

        node = NfvNode()
        node.create_vm("client", ["c0"])
        node.create_vm("fw", ["fw_in", "fw_out"])
        node.create_vm("server", ["s0"])
        node.install_p2p_rule("c0", "fw_in")
        node.install_p2p_rule("fw_out", "s0")
        node.install_p2p_rule("s0", "fw_out")
        node.install_p2p_rule("fw_in", "c0")
        node.settle_control_plane(extra_time=0.5)
        assert node.active_bypasses == 4
        app = StatefulFirewallApp(
            "sfw",
            node.vms["fw"].pmd("fw_in"),
            node.vms["fw"].pmd("fw_out"),
        )
        # Client initiates through the firewall.
        node.vms["client"].pmd("c0").tx_burst([tcp_mbuf(Tcp.SYN)])
        app.iteration()
        assert len(node.vms["server"].pmd("s0").rx_burst(8)) == 1
        # Unsolicited server-side connection attempt is blocked.
        attack = tcp_mbuf(Tcp.SYN, src_ip="8.8.8.8", dst_ip="10.0.0.1",
                          src_port=1234, dst_port=23)
        node.vms["server"].pmd("s0").tx_burst([attack])
        app.iteration()
        assert node.vms["client"].pmd("c0").rx_burst(8) == []
        assert app.blocked == 1
