"""Tests for the stateful firewall and the connection machine it runs.

``TestConnectionTracker`` pins the connection states of
``firewall_program`` — the program :class:`StatefulFirewallApp` runs —
and the guest's table bound; ``TestStatefulFirewall`` drives the app
through its ports.
"""

import pytest

from repro.apps.conntrack import StatefulFirewallApp
from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings
from repro.experiments import ChainExperiment
from repro.mem.memzone import MemzoneRegistry
from repro.obs.export import prometheus_text
from repro.packet.builder import make_tcp_packet, make_udp_packet
from repro.packet.flowkey import extract_flow_key
from repro.packet.headers import Tcp
from repro.state.programs import firewall_program
from repro.state.xfsm import event_for

from tests.helpers import GuestFirewall, mk_mbuf


def tcp_mbuf(flags, src_ip="10.0.0.1", dst_ip="8.8.8.8",
             src_port=40000, dst_port=80):
    return mk_mbuf(packet=make_tcp_packet(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
        dst_port=dst_port, flags=flags,
    ))


def reply_mbuf(flags, src_port=40000):
    return tcp_mbuf(flags, src_ip="8.8.8.8", dst_ip="10.0.0.1",
                    src_port=80, dst_port=src_port)


def key_of(mbuf):
    return extract_flow_key(mbuf.packet, 0)


def observe(program, mbuf, now, from_inside):
    return program.evaluate(event_for(key_of(mbuf), mbuf, now,
                                      from_inside))


class TestConnectionTracker:
    def test_tcp_handshake_states(self):
        program = firewall_program()
        syn = tcp_mbuf(Tcp.SYN)
        assert observe(program, syn, 0.0, True).state == "SYN_SENT"
        synack = reply_mbuf(Tcp.SYN | Tcp.ACK)
        assert observe(program, synack, 0.1, False).state == "ESTABLISHED"
        assert program.table.occupancy == 1  # both directions, one entry

    def test_fin_teardown(self):
        program = firewall_program()
        observe(program, tcp_mbuf(Tcp.SYN), 0.0, True)
        fin1 = tcp_mbuf(Tcp.FIN | Tcp.ACK)
        assert observe(program, fin1, 1.0, True).state == "FIN_WAIT"
        fin2 = reply_mbuf(Tcp.FIN | Tcp.ACK)
        assert observe(program, fin2, 1.1, False).state == "CLOSED"
        # A CLOSED connection admits nothing more from outside.
        assert not observe(program, reply_mbuf(Tcp.ACK), 1.2, False).allow

    def test_rst_closes(self):
        program = firewall_program()
        observe(program, tcp_mbuf(Tcp.SYN), 0.0, True)
        assert observe(program, tcp_mbuf(Tcp.RST), 0.5, True).state \
            == "CLOSED"

    def test_udp_established_after_both_directions(self):
        program = firewall_program()
        out = mk_mbuf(packet=make_udp_packet(src_ip="10.0.0.1",
                                             dst_ip="8.8.8.8",
                                             src_port=5000, dst_port=53))
        assert observe(program, out, 0.0, True).state == "NEW"
        back = mk_mbuf(packet=make_udp_packet(src_ip="8.8.8.8",
                                              dst_ip="10.0.0.1",
                                              src_port=53, dst_port=5000))
        assert observe(program, back, 0.1, False).state == "ESTABLISHED"
        entry = program.table.lookup(key_of(out), 0.2)
        assert entry.data == {"originated_inside": True,
                              "out": True, "in": True}

    def test_idle_eviction(self):
        program = firewall_program(idle_timeout=10.0)
        observe(program, tcp_mbuf(Tcp.SYN), 0.0, True)
        assert program.table.sweep(now=5.0) == 0
        assert program.table.sweep(now=10.0) == 1
        assert program.table.occupancy == 0

    def test_capacity_bound(self):
        """A full guest table evicts its least recently used flow, as
        the datapath's does: three inside SYNs into two slots, then a
        reply on each flow — the first flow's reply finds no entry."""
        guest = GuestFirewall(capacity=2)
        for port in (1, 2, 3):
            assert guest.push(tcp_mbuf(Tcp.SYN, src_port=40000 + port),
                              from_inside=True)
        assert guest.table.occupancy == 2
        assert guest.table.evictions_capacity == 1
        replies = [guest.push(reply_mbuf(Tcp.SYN | Tcp.ACK, 40000 + port),
                              from_inside=False)
                   for port in (1, 2, 3)]
        assert replies == [False, True, True]


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
        assert app.program.dropped == 1
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
        assert app.program.dropped == 0 and app.program.allowed == 2

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
        assert app.program.dropped == 1

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
        assert app.program.dropped == 1


def test_guest_chain_exports_its_program():
    """A chain with the guest firewall exports the app's program in the
    state-table family, labelled by the VM it runs in."""
    experiment = ChainExperiment(
        num_vms=3, memory_only=True, duration=0.002, flows=4,
        reverse_traffic=False, stateful="guest")
    result = experiment.run(drain=0.001)
    program = experiment.guest_firewall.program
    assert program.evaluations > 0
    assert result.policy_dropped == program.dropped == 0
    text = prometheus_text(experiment.node.obs.registry)
    assert 'repro_state_program_evaluations_total{program="stateful_fw",' \
        'vm="vm2"} %d' % program.evaluations in text
