"""Tests for traffic sources/sinks and the metrics utilities."""

import pytest

from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings
from repro.mem.memzone import MemzoneRegistry
from repro.metrics import (
    LatencyRecorder,
    format_table,
    to_mpps,
)
from repro.sim.engine import Environment
from repro.sim.nic import Nic, line_rate_pps
from repro.traffic import (
    SinkApp,
    SourceApp,
    WireSink,
    WireSource,
    uniform_profile,
)
from repro.traffic.profiles import IMIX_PROFILE, imix_profile


@pytest.fixture
def port():
    return DpdkrPmd(0, DpdkrSharedRings(MemzoneRegistry(), "p0"))


class TestProfiles:
    def test_uniform_profile_flows(self):
        profile = uniform_profile(64, flows=4)
        assert len(profile.templates) == 4
        keys = {t.flow_key for t in profile.templates}
        assert len(keys) == 4
        assert profile.mean_frame_size == 64

    def test_web_profile_is_tcp_80(self):
        profile = uniform_profile(128, flows=2, web=True)
        for template in profile.templates:
            assert template.flow_key.l4_dst == 80

    def test_imix_mix(self):
        assert len(IMIX_PROFILE.templates) == 12  # 7 + 4 + 1
        assert 300 < imix_profile().mean_frame_size < 400


class TestSourceApp:
    def test_generates_and_stamps(self, port):
        env = Environment()
        source = SourceApp("src", port, pool_size=64)
        source.start(env)
        env.run(until=1e-5)
        source.stop()
        mbufs = port.rings.to_switch.dequeue_burst(1024)
        assert source.generated == len(mbufs) > 0
        assert mbufs[0].seq == 0 and mbufs[1].seq == 1
        assert mbufs[0].userdata is not None  # pre-extracted flow key
        for mbuf in mbufs:
            mbuf.free()
        assert source.pool.available == 64

    def test_backpressure_when_ring_full(self, port):
        env = Environment()
        source = SourceApp("src", port, pool_size=8192)
        source.start(env)
        env.run(until=1e-3)  # nobody drains: the 1024-slot ring fills
        source.stop()
        assert source.generated <= 1023
        assert source.pool.available == 8192 - source.generated

    def test_rate_limiting(self, port):
        env = Environment()
        sink_counts = []
        source = SourceApp("src", port, rate_pps=1e6, pool_size=8192)
        source.start(env)

        def drain():
            while True:
                for mbuf in port.rings.to_switch.dequeue_burst(64):
                    mbuf.free()
                yield env.timeout(1e-5)

        env.process(drain())
        env.run(until=0.01)
        source.stop()
        # 1 Mpps for 10 ms ~= 10000 packets (within credit slack).
        assert source.generated == pytest.approx(10000, rel=0.05)


class TestSinkApp:
    def test_counts_and_latency(self, port):
        env = Environment()
        sink = SinkApp("sink", port)
        sink.start(env)

        def feeder():
            from tests.helpers import mk_mbuf

            for _ in range(10):
                mbuf = mk_mbuf(frame_size=64)
                mbuf.ts_injected = env.now
                port.rings.to_guest.enqueue(mbuf)
                yield env.timeout(1e-6)

        env.process(feeder())
        env.run(until=1e-3)
        sink.stop()
        assert sink.received == 10
        assert sink.received_bytes == 640
        assert sink.latency.count == 10
        assert sink.latency.mean < 1e-5


class TestWireEndpoints:
    def test_wire_source_paces_at_line_rate(self):
        env = Environment()
        nic = Nic(env, "eth0", ring_size=65536)
        source = WireSource(env, nic, load=1.0, pool_size=65536)
        env.run(until=1e-3)
        source.stop()
        expected = line_rate_pps(64) * 1e-3
        assert source.generated == pytest.approx(expected, rel=0.05)

    def test_wire_source_half_load(self):
        env = Environment()
        nic = Nic(env, "eth0", ring_size=65536)
        source = WireSource(env, nic, load=0.5, pool_size=65536)
        env.run(until=1e-3)
        source.stop()
        expected = 0.5 * line_rate_pps(64) * 1e-3
        assert source.generated == pytest.approx(expected, rel=0.05)

    def test_wire_sink_counts(self):
        from tests.helpers import mk_mbuf

        env = Environment()
        nic = Nic(env, "eth0")
        sink = WireSink(env, nic)
        for _ in range(5):
            mbuf = mk_mbuf(frame_size=64)
            mbuf.ts_injected = env.now
            nic.host_tx_burst([mbuf])
        env.run(until=1e-3)
        assert sink.received == 5
        assert sink.latency.count == 5

    def test_invalid_load_rejected(self):
        env = Environment()
        nic = Nic(env, "eth0")
        with pytest.raises(ValueError):
            WireSource(env, nic, load=0.0)


class TestLatencyRecorder:
    def test_basic_stats(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        assert recorder.count == 4
        assert recorder.mean == 2.5
        assert recorder.min_value == 1.0
        assert recorder.max_value == 4.0

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(100):
            recorder.record(float(value))
        assert recorder.p50 == pytest.approx(50, abs=2)
        assert recorder.p99 == pytest.approx(99, abs=2)

    def test_reservoir_bounds_memory(self):
        recorder = LatencyRecorder(reservoir_size=10)
        for value in range(10000):
            recorder.record(float(value))
        assert len(recorder._reservoir) == 10
        assert recorder.count == 10000

    def test_reservoir_slots_are_randrange_slots(self):
        # record() spells randrange(count) out over getrandbits; the
        # reservoir (hence every percentile ever committed) must stay
        # the one Vitter's algorithm R draws with randrange itself.
        import random

        recorder = LatencyRecorder(reservoir_size=16, seed=7)
        rng = random.Random(7)
        reservoir = []
        for count in range(1, 5001):
            value = float(count)
            recorder.record(value)
            if len(reservoir) < 16:
                reservoir.append(value)
                continue
            slot = rng.randrange(count)
            if slot < 16:
                reservoir[slot] = value
        assert recorder._reservoir == reservoir

    def test_merge(self):
        a = LatencyRecorder()
        b = LatencyRecorder()
        a.record(1.0)
        b.record(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == 2.0

    def test_merge_keeps_the_population_total_past_the_reservoir(self):
        source = LatencyRecorder()
        for value in range(20000):
            source.record(float(value))
        assert source.count > source.reservoir_size
        target = LatencyRecorder()
        target.merge(source)
        assert target.count == 20000
        assert target.total == source.total
        assert target.mean == 9999.5

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(1.5)

    def test_empty_recorder_reports_zeros_not_inf(self):
        recorder = LatencyRecorder()
        assert recorder.count == 0
        assert recorder.min_value == 0.0
        assert recorder.max_value == 0.0
        assert recorder.mean == 0.0
        assert recorder.p99 == 0.0

    def test_merge_of_empty_source_is_a_noop(self):
        recorder = LatencyRecorder()
        recorder.record(2.0)
        recorder.merge(LatencyRecorder())
        assert recorder.count == 1
        assert recorder.min_value == 2.0  # the empty inf sentinel
        assert recorder.max_value == 2.0  # must not leak through

    def test_merge_into_empty_recorder(self):
        target = LatencyRecorder()
        source = LatencyRecorder()
        source.record(1.0)
        source.record(3.0)
        target.merge(source)
        assert target.count == 2
        assert target.min_value == 1.0
        assert target.max_value == 3.0

    def test_summary_renders_empty_and_filled(self):
        recorder = LatencyRecorder()
        assert recorder.summary() == "latency: - (no samples)"
        recorder.record(2e-6)
        text = recorder.summary()
        assert "n=1" in text and "mean=2.00us" in text


class TestRatesAndReport:
    def test_to_mpps(self):
        assert to_mpps(1_000_000, 1.0) == 1.0
        assert to_mpps(100, 0.0) == 0.0

    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"],
                            [[1, 2.5], ["xyz", 100]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert all(len(line) <= len(lines[0]) + 6 for line in lines)
