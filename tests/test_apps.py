"""Tests for the guest VNF applications."""

import pytest

from repro.apps import (
    FirewallApp,
    FirewallRule,
    ForwarderApp,
    MonitorApp,
    WebCacheApp,
)
from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings
from repro.mem.memzone import MemzoneRegistry
from repro.packet.builder import make_tcp_packet, make_udp_packet
from repro.packet.headers import IP_PROTO_UDP, ipv4_to_int

from tests.helpers import mk_mbuf


@pytest.fixture
def ports():
    registry = MemzoneRegistry()
    port_a = DpdkrPmd(0, DpdkrSharedRings(registry, "p0"))
    port_b = DpdkrPmd(1, DpdkrSharedRings(registry, "p1"))
    return port_a, port_b


def feed(port, mbufs):
    """Packets arriving at the guest on ``port``."""
    port.rings.to_guest.enqueue_bulk(mbufs)


def sent_by(port, max_count=64):
    """Packets the guest transmitted on ``port``."""
    return port.rings.to_switch.dequeue_burst(max_count)


class TestForwarder:
    def test_forwards_both_directions(self, ports):
        port_a, port_b = ports
        app = ForwarderApp("fwd", port_a, port_b)
        east = mk_mbuf()
        west = mk_mbuf()
        feed(port_a, [east])
        feed(port_b, [west])
        cost = app.iteration()
        assert cost > 0
        assert sent_by(port_b) == [east]
        assert sent_by(port_a) == [west]
        assert app.rx_total == 2 and app.tx_total == 2

    def test_unidirectional_variant(self, ports):
        port_a, port_b = ports
        app = ForwarderApp("fwd", port_a, port_b, bidirectional=False)
        west = mk_mbuf()
        feed(port_b, [west])
        app.iteration()
        assert sent_by(port_a) == []  # reverse pair not installed

    def test_idle_iteration_costs_nothing(self, ports):
        app = ForwarderApp("fwd", *ports)
        assert app.iteration() == 0.0

    def test_tx_overflow_frees_and_counts(self):
        registry = MemzoneRegistry()
        port_a = DpdkrPmd(0, DpdkrSharedRings(registry, "p0"))
        port_b = DpdkrPmd(1, DpdkrSharedRings(registry, "p1",
                                              ring_size=4))
        app = ForwarderApp("fwd", port_a, port_b)
        mbufs = [mk_mbuf() for _ in range(6)]
        feed(port_a, mbufs)
        app.iteration()
        assert app.pairs[0].drop_count == 3
        assert all(m.refcnt == 0 for m in mbufs[3:])


class TestFirewall:
    def test_deny_rule_drops(self, ports):
        app = FirewallApp(
            "fw", *ports,
            deny_rules=[FirewallRule(l4_dst=2000,
                                     ip_proto=IP_PROTO_UDP)],
        )
        blocked = mk_mbuf(packet=make_udp_packet(dst_port=2000))
        allowed = mk_mbuf(packet=make_udp_packet(dst_port=53))
        feed(ports[0], [blocked, allowed])
        app.iteration()
        assert sent_by(ports[1]) == [allowed]
        assert app.program.dropped == 1 and app.program.allowed == 1
        assert blocked.refcnt == 0

    def test_ip_based_rule(self, ports):
        app = FirewallApp(
            "fw", *ports,
            deny_rules=[FirewallRule(ip_src=ipv4_to_int("10.0.0.66"))],
        )
        bad = mk_mbuf(packet=make_udp_packet(src_ip="10.0.0.66"))
        good = mk_mbuf(packet=make_udp_packet(src_ip="10.0.0.1"))
        feed(ports[0], [bad, good])
        app.iteration()
        assert sent_by(ports[1]) == [good]

    def test_default_allow(self, ports):
        app = FirewallApp("fw", *ports)
        mbuf = mk_mbuf()
        feed(ports[0], [mbuf])
        app.iteration()
        assert sent_by(ports[1]) == [mbuf]

    def test_costlier_than_forwarder(self, ports):
        firewall = FirewallApp("fw", *ports)
        forwarder = ForwarderApp("fwd", *ports)
        assert firewall.cost_multiplier > forwarder.cost_multiplier


class TestMonitor:
    def test_per_flow_accounting(self, ports):
        app = MonitorApp("mon", *ports)
        flow_a = [mk_mbuf(packet=make_udp_packet(src_port=1, frame_size=64))
                  for _ in range(3)]
        flow_b = [mk_mbuf(packet=make_udp_packet(src_port=2,
                                                 frame_size=128))]
        feed(ports[0], flow_a + flow_b)
        app.iteration()
        assert app.flow_count == 2
        assert len(sent_by(ports[1])) == 4
        top = app.top_flows(1)
        assert top[0][1] == (3, 192)  # flow_a: 3 packets, 192 bytes

    def test_forwards_everything(self, ports):
        app = MonitorApp("mon", *ports)
        mbufs = [mk_mbuf() for _ in range(5)]
        feed(ports[1], mbufs)
        app.iteration()
        assert sent_by(ports[0]) == mbufs


class TestWebCache:
    def make_request(self, token=b"GET /index.html"):
        return mk_mbuf(packet=make_tcp_packet(dst_port=80,
                                              payload=token + b"\nrest"))

    def make_response(self, token=b"GET /index.html"):
        return mk_mbuf(packet=make_tcp_packet(src_port=80, dst_port=40000,
                                              payload=token + b"\nbody"))

    def test_miss_then_hit(self, ports):
        access, upstream = ports
        app = WebCacheApp("cache", access, upstream)
        first = self.make_request()
        feed(access, [first])
        app.iteration()
        assert sent_by(upstream) == [first]  # miss: forwarded upstream
        assert app.misses == 1
        # Response populates the cache.
        response = self.make_response()
        feed(upstream, [response])
        app.iteration()
        assert sent_by(access) == [response]
        # Second identical request is a hit and is absorbed.
        second = self.make_request()
        feed(access, [second])
        app.iteration()
        assert sent_by(upstream) == []
        assert app.hits == 1
        assert second.refcnt == 0
        assert app.hit_rate == 0.5

    def test_non_web_traffic_passes_through(self, ports):
        access, upstream = ports
        app = WebCacheApp("cache", access, upstream)
        dns = mk_mbuf(packet=make_udp_packet(dst_port=53))
        feed(access, [dns])
        app.iteration()
        assert sent_by(upstream) == [dns]
        assert app.misses == 0 and app.hits == 0

    def test_capacity_bound(self, ports):
        access, upstream = ports
        app = WebCacheApp("cache", access, upstream, capacity=1)
        for token in (b"GET /a", b"GET /b"):
            feed(upstream, [self.make_response(token)])
            app.iteration()
            sent_by(access)
        assert len(app._store) == 1


class TestAppLifecycle:
    def test_start_and_stop_in_sim(self, ports):
        from repro.sim.engine import Environment

        env = Environment()
        app = ForwarderApp("fwd", *ports)
        mbuf = mk_mbuf()
        feed(ports[0], [mbuf])
        app.start(env)
        env.run(until=1e-4)
        assert sent_by(ports[1]) == [mbuf]
        app.stop()
        assert app.loop is None

    def test_double_start_rejected(self, ports):
        from repro.sim.engine import Environment

        env = Environment()
        app = ForwarderApp("fwd", *ports)
        app.start(env)
        with pytest.raises(RuntimeError):
            app.start(env)
        app.stop()
