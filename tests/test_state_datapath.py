"""The stateful fast-path tier inside the vSwitch datapath.

A rule whose actions are ``[xfsm:<program>, output:N]`` delegates its
packets to a registered XFSM program before forwarding.  These tests
pin the execution semantics on both the scalar oracle lane and the
batched one (per-*packet* evaluation even inside a flow batch), the
fail-closed handling of unknown programs, the ``xfsm_exec`` stage
accounting and cost-model constant, the ``xfsm`` trace hop, precise
state invalidation on rule removal, and the ``state/show`` appctl and
``repro_state_*`` metrics surfaces.
"""

import pytest

from repro.obs.export import prometheus_text
from repro.obs.plane import Observability
from repro.obs.trace import PathTracer
from repro.openflow.actions import (
    OutputAction,
    XfsmAction,
    xfsm_delegation,
)
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.packet.builder import make_tcp_packet
from repro.packet.headers import Tcp
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.state.programs import firewall_program
from repro.vswitch.appctl import AppCtl
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf, view_values
from tests.support.reference_datapath import install_scalar_lane


def tcp_mbuf(flags, src_ip="10.0.0.1", dst_ip="8.8.8.8",
             src_port=40000, dst_port=80):
    return mk_mbuf(packet=make_tcp_packet(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
        dst_port=dst_port, flags=flags,
    ))


def reply_mbuf(flags=Tcp.ACK, src_port=80, dst_port=40000):
    return tcp_mbuf(flags, src_ip="8.8.8.8", dst_ip="10.0.0.1",
                    src_port=src_port, dst_port=dst_port)


class Harness:
    """Inside port -> outside port, both directions firewalled."""

    def __init__(self, vectorized=False, program=None,
                 register=True):
        self.switch = VSwitchd(name="br-state")
        self.vectorized = vectorized
        if not vectorized:
            install_scalar_lane(self.switch.datapath)
        self.inside = self.switch.add_dpdkr_port("in0")
        self.outside = self.switch.add_dpdkr_port("out0")
        self.program = program or firewall_program()
        if register:
            self.switch.datapath.register_xfsm(self.program)
        self.rules = []
        for src, dst, from_inside in (
            (self.inside, self.outside, True),
            (self.outside, self.inside, False),
        ):
            entry = FlowEntry(
                Match(in_port=src.ofport),
                [XfsmAction(self.program.name, from_inside=from_inside),
                 OutputAction(dst.ofport)],
            )
            self.rules.append(entry)
            self.switch.bridge.table.add(entry)

    def send(self, port, mbufs):
        for mbuf in mbufs:
            port.rings.to_switch.enqueue(mbuf)
        self.switch.step_dataplane()
        # The lane the harness asked for is the lane that ran.
        assert (self.switch.datapath.flow_batches > 0) == self.vectorized

    def delivered(self, port):
        return port.rings.to_guest.dequeue_burst(1024)


class TestDatapathExecution:
    def test_inside_traffic_forwarded_and_tracked(self):
        h = Harness()
        h.send(h.inside, [tcp_mbuf(Tcp.SYN)])
        assert len(h.delivered(h.outside)) == 1
        assert h.switch.datapath.xfsm_evaluated == 1
        assert h.switch.datapath.xfsm_drops == 0
        assert h.program.table.occupancy == 1

    def test_outside_stranger_dropped(self):
        h = Harness()
        stranger = reply_mbuf(Tcp.SYN, src_port=6666, dst_port=22)
        h.send(h.outside, [stranger])
        assert h.delivered(h.inside) == []
        assert h.switch.datapath.xfsm_drops == 1
        assert stranger.refcnt == 0  # freed, not leaked
        assert h.program.table.occupancy == 0

    def test_reply_joins_inside_connection(self):
        h = Harness()
        h.send(h.inside, [tcp_mbuf(Tcp.SYN)])
        h.delivered(h.outside)
        h.send(h.outside, [reply_mbuf(Tcp.SYN | Tcp.ACK)])
        assert len(h.delivered(h.inside)) == 1
        assert h.switch.datapath.xfsm_drops == 0

    def test_unknown_program_fails_closed(self):
        h = Harness(register=False)
        h.send(h.inside, [tcp_mbuf(Tcp.SYN)])
        assert h.delivered(h.outside) == []
        assert h.switch.datapath.xfsm_unknown_drops == 1

    def test_duplicate_registration_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.switch.datapath.register_xfsm(firewall_program())

    def test_vectorized_batch_evaluates_per_packet(self):
        """A flow batch shares one lookup but not its verdicts: the SYN
        and the ACK behind it drive *different* transitions, so the
        machine must run per packet even on the vectorized path."""
        h = Harness(vectorized=True)
        h.send(h.inside, [tcp_mbuf(Tcp.SYN), tcp_mbuf(Tcp.ACK)])
        assert len(h.delivered(h.outside)) == 2
        assert h.switch.datapath.xfsm_evaluated == 2
        entry = h.program.table.entries()[0]
        # SYN -> SYN_SENT, then ACK in SYN_SENT -> ESTABLISHED: only a
        # per-packet walk reaches the second state.
        assert entry.state == "ESTABLISHED"

    def test_vectorized_batch_drops_are_selective(self):
        h = Harness(vectorized=True)
        h.send(h.inside, [tcp_mbuf(Tcp.SYN)])
        h.delivered(h.outside)
        # One batch from outside: the legit reply and two strangers.
        h.send(h.outside, [
            reply_mbuf(Tcp.ACK),
            reply_mbuf(Tcp.SYN, src_port=1, dst_port=2),
            reply_mbuf(Tcp.SYN, src_port=3, dst_port=4),
        ])
        assert len(h.delivered(h.inside)) == 1
        assert h.switch.datapath.xfsm_drops == 2


class TestAccountingAndCost:
    def test_xfsm_exec_stage_charged_per_packet(self):
        h = Harness()
        h.send(h.inside, [tcp_mbuf(Tcp.SYN), tcp_mbuf(Tcp.ACK)])
        stages = h.switch._port_stages[h.inside.ofport]
        assert stages.packets.get("xfsm_exec") == 2
        assert stages.seconds["xfsm_exec"] == pytest.approx(
            2 * DEFAULT_COST_MODEL.ovs_xfsm_exec)

    def test_cost_is_in_the_emc_hit_class(self):
        # The design point: a stateful decision costs about an EMC
        # hit, not a classifier walk (and certainly not a VM hop).
        costs = DEFAULT_COST_MODEL
        assert costs.ovs_xfsm_exec <= costs.ovs_emc_hit
        assert costs.ovs_xfsm_exec < costs.ovs_classifier_hit

    def test_scaled_cost_model_scales_xfsm_exec(self):
        assert CostModel().scaled(2.0).ovs_xfsm_exec == pytest.approx(
            2 * CostModel().ovs_xfsm_exec)


class TestTraceHop:
    def test_xfsm_hop_recorded_with_verdict(self):
        h = Harness()
        tracer = PathTracer(sample_interval=1)
        mbuf = tcp_mbuf(Tcp.SYN)
        trace = tracer.ingress(mbuf)
        h.send(h.inside, [mbuf])
        assert "xfsm" in trace.hops()
        span = next(s for s in trace.spans if s.hop == "xfsm")
        assert span.attrs["program"] == h.program.name
        assert span.attrs["result"] == "allow"
        assert span.attrs["state"] == "SYN_SENT"

    def test_dropped_packet_traces_the_drop(self):
        h = Harness()
        tracer = PathTracer(sample_interval=1)
        mbuf = reply_mbuf(Tcp.SYN, src_port=1, dst_port=2)
        trace = tracer.ingress(mbuf)
        h.send(h.outside, [mbuf])
        span = next(s for s in trace.spans if s.hop == "xfsm")
        assert span.attrs["result"] == "drop"


class TestPreciseInvalidation:
    def test_rule_removal_invalidates_covered_state(self):
        h = Harness()
        h.send(h.inside, [tcp_mbuf(Tcp.SYN),
                          tcp_mbuf(Tcp.SYN, src_port=40001)])
        assert h.program.table.occupancy == 2
        # Removing the delegating rule orphans exactly the entries its
        # match covers (here: everything from the inside port).
        h.switch.bridge.table.delete(Match(in_port=h.inside.ofport))
        assert h.program.table.occupancy == 0
        assert h.program.table.invalidations == 2


class TestActionShape:
    def test_xfsm_delegation_recognizer(self):
        program = XfsmAction("fw", from_inside=False)
        out = OutputAction(7)
        assert xfsm_delegation([program, out]) == ("fw", False, 7)
        assert xfsm_delegation([out]) is None
        assert xfsm_delegation([program]) is None
        assert xfsm_delegation([out, program]) is None

    def test_action_requires_program_name(self):
        with pytest.raises(ValueError):
            XfsmAction("")

    def test_repr_shows_perimeter_side(self):
        assert "inside" in repr(XfsmAction("fw"))
        assert "outside" in repr(XfsmAction("fw", from_inside=False))


class TestObservabilitySurfaces:
    def test_state_show_appctl(self):
        h = Harness()
        h.send(h.inside, [tcp_mbuf(Tcp.SYN)])
        h.send(h.outside, [reply_mbuf(Tcp.SYN, src_port=1, dst_port=2)])
        obs = Observability()
        obs.register_vswitchd(h.switch)
        out = view_values(AppCtl(h.switch, obs=obs).run("state/show"))
        program = 'program="%s",switch="br-state"' % h.program.name
        assert out["repro_state_program_state_safe{%s}" % program] == 1
        assert out["repro_state_table_occupancy{%s}" % program] == 1
        assert out["repro_state_program_dropped_total{%s}" % program] == 1
        assert out['repro_state_table_entries{program="%s",state="SYN_SENT",'
                   'switch="br-state"}' % h.program.name] == 1

    def test_state_show_without_programs(self):
        switch = VSwitchd(name="br0")
        obs = Observability()
        obs.register_vswitchd(switch)
        out = AppCtl(switch, obs=obs).run("state/show")
        assert "repro_state_xfsm_evaluated_total" in out
        assert "repro_state_table" not in out

    def test_prometheus_exports_state_metrics(self):
        h = Harness()
        h.send(h.inside, [tcp_mbuf(Tcp.SYN)])
        obs = Observability()
        obs.register_vswitchd(h.switch)
        text = prometheus_text(obs.registry)
        assert 'repro_state_xfsm_evaluated_total{switch="br-state"} 1' \
            in text
        assert 'repro_state_table_occupancy{program="%s",switch=' \
            '"br-state"} 1' % h.program.name in text
        assert "repro_state_program_allowed_total" in text
        assert "repro_state_table_capacity" in text
