"""Tests for sampled path tracing — unit behavior and the end-to-end
transparency proof (the bypass never touches the classifier)."""

import pytest

from repro.experiments.chain import ChainExperiment
from repro.obs.trace import PathTracer, span_hop
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp

from tests.helpers import mk_mbuf


class TestPathTracer:
    def test_one_in_n_sampling_is_deterministic(self):
        tracer = PathTracer(sample_interval=4)
        traced = [tracer.ingress(mk_mbuf()) is not None
                  for _ in range(9)]
        # First packet always traced, then every 4th.
        assert traced == [True, False, False, False,
                          True, False, False, False, True]
        assert tracer.packets_seen == 9
        assert tracer.traces_started == 3

    def test_disabled_tracer_stamps_nothing(self):
        tracer = PathTracer(sample_interval=None)
        mbuf = mk_mbuf()
        assert tracer.ingress(mbuf) is None
        assert mbuf.trace is None
        assert tracer.packets_seen == 0
        assert not tracer.enabled

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            PathTracer(sample_interval=0)
        with pytest.raises(ValueError):
            PathTracer(max_traces=0)

    def test_finish_hands_trace_to_ring(self):
        tracer = PathTracer(sample_interval=1)
        mbuf = mk_mbuf()
        trace = tracer.ingress(mbuf, source="src")
        trace.add(0.1, "guest-tx", channel="bypass")
        trace.finish(0.2, sink="snk")
        assert tracer.traces_finished == 1
        assert list(tracer.finished) == [trace]
        assert trace.hops() == ["ingress", "guest-tx", "sink"]
        assert trace.spans[-1].attrs == {"sink": "snk"}

    def test_finished_ring_is_bounded_keeping_newest(self):
        tracer = PathTracer(sample_interval=1, max_traces=3)
        for _ in range(5):
            tracer.ingress(mk_mbuf()).finish(0.0)
        assert len(tracer.finished) == 3
        assert [t.trace_id for t in tracer.finished] == [3, 4, 5]
        assert tracer.traces_finished == 5

    def test_span_cap_bounds_memory(self):
        tracer = PathTracer(sample_interval=1, max_spans=3)
        trace = tracer.ingress(mk_mbuf())
        for index in range(10):
            trace.add(float(index), "hop%d" % index)
        assert len(trace.spans) == 3

    def test_mbuf_reset_clears_abandoned_trace(self):
        tracer = PathTracer(sample_interval=1)
        mbuf = mk_mbuf()
        tracer.ingress(mbuf)
        assert mbuf.trace is not None
        mbuf.reset()  # mempool recycle: the trace dies with the mbuf
        assert mbuf.trace is None

    def test_span_hop_helper_noop_on_untraced(self):
        mbuf = mk_mbuf()
        span_hop(mbuf, 0.0, "anything")  # must not raise or allocate
        assert mbuf.trace is None

    def test_traces_via(self):
        tracer = PathTracer(sample_interval=1)
        first = tracer.ingress(mk_mbuf())
        first.add(0.0, "bypass-ring")
        first.finish(0.1)
        second = tracer.ingress(mk_mbuf())
        second.finish(0.1)
        assert tracer.traces_via("bypass-ring") == [first]

    def test_render_includes_attrs(self):
        tracer = PathTracer(sample_interval=1)
        trace = tracer.ingress(mk_mbuf(), source="src.fw")
        trace.finish(1e-6)
        text = tracer.render()
        assert "source=src.fw" in text
        assert "ingress" in text and "sink" in text

    def test_render_empty(self):
        assert "no finished traces" in PathTracer().render()


class TestTransparencyProof:
    """The acceptance criterion: a trace proves which path a packet took,
    with the same VMs and the same rules either way."""

    def test_bypass_chain_traces_skip_the_switch(self):
        experiment = ChainExperiment(
            num_vms=3, bypass=True, memory_only=True,
            duration=0.002, trace_sample=64,
        )
        experiment.run()
        tracer = experiment.obs.tracer
        assert tracer.traces_finished > 0
        trace = list(tracer.finished)[-1]
        hops = trace.hops()
        # Proof of the highway: the packet crossed bypass rings...
        assert "bypass-ring" in hops
        assert hops.count("bypass-ring") == 2  # two inter-VM links
        # ...and never touched the switch fast path.
        for forbidden in ("switch-rx", "emc", "classifier", "upcall",
                          "switch-tx"):
            assert forbidden not in hops
        # Channel attribution on the guest PMD spans agrees.
        channels = {span.attrs.get("channel") for span in trace.spans
                    if span.hop in ("guest-tx", "guest-rx")}
        assert channels == {"bypass"}

    def test_vanilla_chain_traces_take_the_switch_path(self):
        experiment = ChainExperiment(
            num_vms=2, bypass=False, memory_only=True,
            duration=0.002, trace_sample=64,
        )
        experiment.run()
        tracer = experiment.obs.tracer
        assert tracer.traces_finished > 0
        trace = list(tracer.finished)[-1]
        hops = trace.hops()
        assert "switch-rx" in hops
        assert "switch-tx" in hops
        # The flow resolves in the EMC or the classifier — either way
        # the lookup hop is on the record, and no bypass ring is.
        assert "emc" in hops or "classifier" in hops
        assert "bypass-ring" not in hops

    def test_no_trace_dies_at_a_saturated_source(self):
        # ingress stamps before tx_burst: when the source built packets
        # its full TX ring then refused, three of four sampled traces
        # sat on mbufs freed at the source and never finished.
        experiment = ChainExperiment(
            num_vms=3, bypass=False, memory_only=True,
            duration=0.002, trace_sample=64,
        )
        result = experiment.run(drain=0.001)
        tracer = experiment.obs.tracer
        assert sum(s.tx_failures for s in experiment.sources) > 0
        assert result.delivered_total == sum(
            s.generated for s in experiment.sources)
        assert tracer.packets_seen == result.delivered_total
        assert tracer.traces_started == tracer.traces_finished > 100

    def test_pre_establishment_packets_take_the_switch(self):
        # Same rule, same VMs: packets sent before the bypass finishes
        # establishing flow through OVS, later packets take the ring —
        # the transition is visible purely from the traces.
        env = Environment()
        node = NfvNode(env=env, trace_sample_interval=1)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.switch.start()
        source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                           rate_pps=2e4, tracer=node.obs.tracer)
        sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        source.start(env)
        sink.start(env)
        env.run(until=0.02)  # establishment takes ~0.1 s
        assert node.active_bypasses == 0
        early = list(node.obs.tracer.finished)
        assert early, "no packets delivered before establishment"
        assert all("switch-rx" in t.hops() for t in early)
        assert all("bypass-ring" not in t.hops() for t in early)
        env.run(until=0.4)
        assert node.active_bypasses == 1
        late = list(node.obs.tracer.finished)[-1]
        assert "bypass-ring" in late.hops()
        assert "switch-rx" not in late.hops()
