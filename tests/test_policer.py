"""Tests for ingress policing and its bypass interaction."""

import pytest

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp
from repro.vswitch.policer import IngressPolicer, TokenBucket

from tests.helpers import mk_mbuf


class TestTokenBucket:
    def test_burst_then_rate(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(rate=10.0, burst=5.0,
                             clock=lambda: clock["now"])
        # Full burst available immediately.
        assert all(bucket.admit() for _ in range(5))
        assert not bucket.admit()
        # Refill at the configured rate.
        clock["now"] = 0.1  # +1 token
        assert bucket.admit()
        assert not bucket.admit()

    def test_tokens_capped_at_burst(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(rate=100.0, burst=4.0,
                             clock=lambda: clock["now"])
        clock["now"] = 100.0
        assert bucket.tokens == 4.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1, clock=lambda: 0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0, clock=lambda: 0.0)


class TestIngressPolicer:
    def test_filter_burst_counts_and_frees(self):
        clock = {"now": 0.0}
        policer = IngressPolicer(1, rate_pps=100.0, burst=2.0,
                                 clock=lambda: clock["now"])
        mbufs = [mk_mbuf() for _ in range(4)]
        admitted = policer.filter_burst(mbufs)
        assert admitted == mbufs[:2]
        assert policer.admitted == 2 and policer.dropped == 2
        assert all(m.refcnt == 0 for m in mbufs[2:])


class TestPolicingInDatapath:
    def test_rate_enforced_end_to_end(self):
        env = Environment()
        node = NfvNode(env=env)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.start()
        # Classified rule: traffic crosses the datapath (policing point).
        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.set_ingress_policing("dpdkr0", rate_pps=1e5)
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e6)
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        source.start(env)
        sink.start(env)
        env.run(until=0.1)
        source.stop()
        env.run(until=0.11)
        node.switch.stop()
        # Offered 1 Mpps, policed to 0.1 Mpps: ~10k delivered of ~100k.
        assert sink.received == pytest.approx(10000, rel=0.1)
        policer = node.switch.datapath.policers[node.ofport("dpdkr0")]
        assert policer.dropped > 50000

    def test_removing_policer(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.switch.set_ingress_policing("dpdkr0", rate_pps=100)
        assert node.switch.policed_ports() == {node.ofport("dpdkr0")}
        node.switch.set_ingress_policing("dpdkr0", rate_pps=0)
        assert node.switch.policed_ports() == set()


class TestPolicerObservability:
    def _policed_node(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.controller.install_flow(
            Match(in_port=node.ofport("dpdkr0"), eth_type=0x0800),
            [OutputAction(node.ofport("dpdkr1"))],
        )
        node.switch.step_control()
        # Frozen clock: only the initial burst allowance admits.
        node.switch.set_ingress_policing("dpdkr0", rate_pps=100,
                                         burst=2)
        pmd = node.vms["vm1"].pmd("dpdkr0")
        pmd.tx_burst([mk_mbuf() for _ in range(5)])
        node.switch.step_dataplane()
        return node

    def test_policer_metrics_exported(self):
        node = self._policed_node()
        labels = {"switch": "ovs",
                  "ofport": str(node.ofport("dpdkr0"))}
        registry = node.obs.registry
        assert registry.sample_value("repro_policer_admitted_total",
                                     labels) == 2
        assert registry.sample_value("repro_policer_dropped_total",
                                     labels) == 3
        assert registry.sample_value("repro_policer_rate_pps",
                                     labels) == 100

    def test_appctl_policer_show(self):
        from repro.vswitch.appctl import AppCtl

        node = self._policed_node()
        text = AppCtl(node.switch, obs=node.obs).run("policer/show")
        port = 'ofport="%d",switch="ovs"' % node.ofport("dpdkr0")
        assert text.splitlines() == [
            "repro_policer_admitted_total{%s} 2" % port,
            "repro_policer_dropped_total{%s} 3" % port,
            "repro_policer_rate_pps{%s} 100" % port,
            "repro_policer_burst{%s} 2" % port,
            "repro_policer_tokens{%s} 0" % port,
        ]

    def test_appctl_policer_show_empty(self):
        from repro.vswitch.appctl import AppCtl

        node = NfvNode()
        assert AppCtl(node.switch, obs=node.obs).run("policer/show") \
            == "no samples named repro_policer_*"


class TestPolicingVsHighway:
    def test_policed_port_not_bypassed(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.set_ingress_policing("dpdkr0", rate_pps=1e6)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        assert node.active_bypasses == 0

    def test_policing_active_bypass_revokes_it(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        assert node.active_bypasses == 1
        node.switch.set_ingress_policing("dpdkr0", rate_pps=1e6)
        node.settle_control_plane()
        assert node.active_bypasses == 0
        # Traffic now crosses the switch and is subject to the limit.
        mbuf = mk_mbuf()
        node.vms["vm1"].pmd("dpdkr0").tx_burst([mbuf])
        node.switch.step_dataplane()
        assert node.vms["vm2"].pmd("dpdkr1").rx_burst(8) == [mbuf]
        assert node.ports["dpdkr0"].rx_packets == 1

    def test_unpolicing_restores_bypass(self):
        node = NfvNode()
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.set_ingress_policing("dpdkr0", rate_pps=1e6)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        assert node.active_bypasses == 0
        node.switch.set_ingress_policing("dpdkr0", rate_pps=0)
        node.settle_control_plane()
        assert node.active_bypasses == 1
