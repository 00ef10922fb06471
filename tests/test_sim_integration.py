"""Full-stack simulation-mode integration tests.

Unlike the synchronous integration suite, everything here runs
concurrently on the event engine: OVS PMD cores, guest app loops,
traffic sources/sinks, the control loop, the detector and the agent —
the same configuration the benchmarks use, exercised with functional
assertions.
"""

import pytest

from repro.apps import ForwarderApp
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp

from tests.helpers import mk_mbuf


@pytest.fixture
def running_pair():
    env = Environment()
    node = NfvNode(env=env)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.switch.start()
    return env, node


class TestLiveEstablishment:
    def test_traffic_switches_paths_seamlessly(self, running_pair):
        env, node = running_pair
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e6)
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.05)  # rule active, bypass still establishing
        assert node.ports["dpdkr0"].rx_packets > 0  # normal path first
        env.run(until=0.2)   # establishment (~100 ms) has completed
        via_switch_total = node.ports["dpdkr0"].rx_packets
        env.run(until=0.4)
        source.stop()
        env.run(until=0.45)
        tx_pmd = node.vms["vm1"].pmd("dpdkr0")
        assert tx_pmd.tx_via_bypass > 0
        # Everything the sender put on the normal channel crossed OVS.
        assert node.ports["dpdkr0"].rx_packets == tx_pmd.tx_via_normal
        # Conservation: everything generated was delivered.
        assert sink.received == source.generated
        # The OVS port counter froze once the bypass took over.
        assert node.ports["dpdkr0"].rx_packets == via_switch_total

    def test_flow_stats_correct_across_the_transition(self, running_pair):
        env, node = running_pair
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=5e5)
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        source.stop()
        env.run(until=0.32)
        node.controller.request_flow_stats()
        env.run(until=0.33)  # control loop answers
        node.controller.poll()
        stats = node.controller.latest_flow_stats.stats
        assert len(stats) == 1
        # Switch-path packets + bypass packets = everything delivered.
        assert stats[0].packet_count == sink.received

    def test_packet_out_arrives_while_bypassed(self, running_pair):
        env, node = running_pair
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        env.run(until=0.3)
        assert node.active_bypasses == 1
        frame = mk_mbuf(frame_size=64).packet.pack()
        node.controller.packet_out(
            frame, [OutputAction(node.ofport("dpdkr1"))]
        )
        env.run(until=0.35)
        received = node.vms["vm2"].pmd("dpdkr1").rx_burst(8)
        assert len(received) == 1
        assert received[0].packet.pack() == frame


class TestLiveChainWithApps:
    def test_three_vm_chain_delivers_in_order(self):
        env = Environment()
        node = NfvNode(env=env)
        node.create_vm("vm1", ["a0"])
        node.create_vm("vm2", ["b0", "b1"])
        node.create_vm("vm3", ["c0"])
        node.switch.start()
        node.install_p2p_rule("a0", "b0")
        node.install_p2p_rule("b1", "c0")
        forwarder = ForwarderApp("fwd", node.vms["vm2"].pmd("b0"),
                                 node.vms["vm2"].pmd("b1"),
                                 bidirectional=False)
        source = SourceApp("src", node.vms["vm1"].pmd("a0"),
                           rate_pps=2e6)
        sink = SinkApp("sink", node.vms["vm3"].pmd("c0"))
        forwarder.start(env)
        source.start(env)
        sink.start(env)
        # The links go active one after the other, at 0.101 and 0.202 s:
        # the stream crosses both transitions and then both bypasses.
        env.run(until=0.22)
        source.stop()
        env.run(until=0.23)
        assert node.active_bypasses == 2
        assert sink.received == source.generated
        assert sink.received > 100000
        # In-order delivery even across the establishment transitions:
        # the sink's latency recorder saw every packet; ordering is
        # asserted via sequence numbers on a sampled drain instead.
        forwarder.stop()
        sink.stop()

    def test_sequence_order_preserved_across_transition(self):
        env = Environment()
        node = NfvNode(env=env)
        node.create_vm("vm1", ["a0"])
        node.create_vm("vm2", ["b0"])
        node.switch.start()
        seqs = []

        class OrderSink(SinkApp):
            def iteration(self):
                mbufs = self.port.rx_burst(self.burst_size)
                if not mbufs:
                    return 0.0
                for mbuf in mbufs:
                    seqs.append(mbuf.seq)
                    mbuf.free()
                return 1e-6

        source = SourceApp("src", node.vms["vm1"].pmd("a0"),
                           rate_pps=1e6)
        sink = OrderSink("sink", node.vms["vm2"].pmd("b0"))
        node.install_p2p_rule("a0", "b0")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        source.stop()
        env.run(until=0.32)
        assert len(seqs) > 1000
        assert seqs == sorted(seqs), "reordering across the transition"

    def test_dataplane_quiet_when_bypassed(self, running_pair):
        env, node = running_pair
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=1e6)
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.3)
        node.switch.reset_pmd_accounting()
        env.run(until=0.4)
        source.stop()
        # With the only traffic bypassed, OVS cores are near idle.
        assert max(node.switch.pmd_utilization) < 0.05
