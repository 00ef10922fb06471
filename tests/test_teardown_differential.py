"""A/B differential: an ordered bypass teardown against the switch path.

A 0.25 Mpps stream rides a bypass when a divert rule (TCP/80, which the
UDP stream never matches) makes the link stop being point-to-point, and
the manager tears the link down in order while the stream keeps going.
Run A has the highway on; run B is the same stream and the same rule
with the highway off, the reference: the switch path refuses nothing,
loses nothing and reorders nothing.  A must read the same, for three
receivers:

* live — polls throughout;
* slow — frozen for 4 ms across the sender's detach, so its bypass ring
  is above the watermark when the drain marker is written;
* frozen — frozen across the receiver's detach (a ``pmd.rx_poll`` DELAY
  fault, its length drawn from ``REPRO_FAULT_SEED`` when set), so the
  detach lands on a consumer that is not polling.

Each shows at most one burst (32) of refused transmissions, zero loss,
``mbuf.seq`` strictly increasing at the receiver, and no host-side
salvage: the orderly path never re-homes a packet.
"""

import os

import pytest

from repro.faults import PMD_RX_POLL, FaultMode, FaultPlan
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp
from repro.traffic.sink import SinkApp

RATE_PPS = 0.25e6
ONE_BURST = 32
SEED = int(os.environ.get("REPRO_FAULT_SEED") or 1)
# The agent's RPC, then the tx detach delivered half a round trip later.
TX_DETACH = (DEFAULT_COST_MODEL.agent_rpc
             + DEFAULT_COST_MODEL.virtio_serial_rtt / 2)
# The tx detach's reply, then the rx detach, half a round trip each.
RX_DETACH = TX_DETACH + DEFAULT_COST_MODEL.virtio_serial_rtt


class OrderSink(SinkApp):
    """Records every delivered sequence number."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("record_latency", False)
        super().__init__(*args, **kwargs)
        self.seqs = []

    def iteration(self):
        mbufs = self.port.rx_burst(self.burst_size)
        for mbuf in mbufs:
            self.seqs.append(mbuf.seq)
            mbuf.free()
        self.received += len(mbufs)
        return 1e-6 if mbufs else 0.0


def freeze(node, at, seconds):
    """Freeze the receiver's next poll after ``at`` for ``seconds``."""
    node.env.run(until=at)
    plan = FaultPlan(seed=SEED)
    plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,),
                delay=seconds)
    node.install_fault_plan(plan)


def run(highway, receiver="live"):
    env = Environment()
    node = NfvNode(env=env, highway_enabled=highway)
    node.create_vm("vm1", ["src0"])
    node.create_vm("vm2", ["dst0"])
    node.create_vm("vm3", ["div0"])
    node.switch.start()
    node.install_p2p_rule("src0", "dst0")
    node.settle_control_plane(extra_time=0.12)
    salvages = []
    salvage = node.agent._salvage

    def counted_salvage(*args, **kwargs):
        salvages.append(args)
        return salvage(*args, **kwargs)

    node.agent._salvage = counted_salvage
    source = SourceApp("src", node.vms["vm1"].pmd("src0"),
                       rate_pps=RATE_PPS)
    sink = OrderSink("sink", node.vms["vm2"].pmd("dst0"))
    receiver_pmd = node.vms["vm2"].pmd("dst0")
    sink.start(env)
    source.start(env)
    env.run(until=env.now + 0.002)
    node.controller.install_flow(
        Match(in_port=node.ofport("src0"), eth_type=0x0800, ip_proto=6,
              l4_dst=80),
        [OutputAction(node.ofport("div0"))], priority=0x9000)
    end = env.now + 0.065   # the teardown takes 46 ms of it
    facts = {}
    if highway:
        link = node.manager.link_for_src(node.ofport("src0"))
        while link.teardown_request is None:
            env.run(until=env.now + 1e-4)
        t0 = link.teardown_request.t_requested
        if receiver == "slow":
            freeze(node, t0 + TX_DETACH - 0.0035, 0.004)
            env.run(until=t0 + TX_DETACH - 1e-6)
            facts["above_watermark"] = link.ring.above_watermark
        elif receiver == "frozen":
            freeze(node, t0 + RX_DETACH - 0.001,
                   0.003 + 0.0001 * (SEED % 5))
            env.run(until=t0 + RX_DETACH - 1e-6)
            epoch = receiver_pmd.rings.heartbeat.epoch
            facts["attached_before"] = receiver_pmd.bypass_rx_active
            env.run(until=t0 + RX_DETACH + 1e-6)
            facts["attached_after"] = receiver_pmd.bypass_rx_active
            facts["frozen_across"] = (
                receiver_pmd.rings.heartbeat.epoch == epoch)
    env.run(until=end)
    if highway:
        assert link.teardown_request.completed
        assert link.teardown_request.error is None
    source.stop()
    env.run(until=env.now + 0.005)
    return {
        "generated": source.generated,
        "refused": source.tx_failures,
        "delivered": sink.received,
        "dropped": node.ports["dst0"].tx_dropped,
        "in_order": all(a < b for a, b in zip(sink.seqs, sink.seqs[1:])),
        "salvages": len(salvages),
        "lost_to_failures": (node.manager.packets_lost_to_failures
                             if highway else 0),
        "active_bypasses": node.active_bypasses,
        **facts,
    }


@pytest.fixture(scope="module")
def switch_path():
    reference = run(highway=False)
    assert reference["refused"] == 0 and reference["salvages"] == 0
    assert reference["delivered"] == reference["generated"]
    assert reference["in_order"]
    return reference


@pytest.mark.parametrize("receiver", ["live", "slow", "frozen"])
def test_ordered_teardown_reads_like_the_switch_path(switch_path, receiver):
    result = run(highway=True, receiver=receiver)
    assert result["active_bypasses"] == 0
    assert result["refused"] <= switch_path["refused"] + ONE_BURST
    assert result["generated"] >= switch_path["generated"] - ONE_BURST
    assert result["delivered"] == result["generated"]
    assert result["dropped"] == 0 and result["lost_to_failures"] == 0
    assert result["in_order"]
    assert result["salvages"] == 0
    if receiver == "slow":
        assert result["above_watermark"]
    if receiver == "frozen":
        assert result["attached_before"] and not result["attached_after"]
        assert result["frozen_across"]
