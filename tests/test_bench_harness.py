"""The RFC2544 harness, latency percentiles, the run summary and CLI glue.

Harness behaviour is pinned with synthetic runners (a hard capacity
threshold), so the search logic is tested exactly, independent of the
simulator's own throughput numbers.
"""

import os

import pytest

from repro.bench.cli import bench_main, last_report
from repro.bench.harness import (
    ChainLoadRunner,
    OfferedPoint,
    Rfc2544Harness,
    latency_summary_us,
)
from repro.bench.scenarios import SCENARIOS, get_scenario, run_scenario
from repro.metrics.latency import LatencyRecorder
from repro.obs.export import validate_prometheus_text
from repro.obs.registry import MetricsRegistry
from tests.helpers import capacity_runner


# -- OfferedPoint -------------------------------------------------------------


class TestOfferedPoint:
    def test_loss_accounting(self):
        point = OfferedPoint(1e6, 0.01, sent=1000, delivered=900,
                             throughput_mpps=0.09)
        assert point.lost == 100
        assert point.loss_fraction == pytest.approx(0.1)

    def test_zero_sent_is_zero_loss(self):
        point = OfferedPoint(1e6, 0.01, sent=0, delivered=0,
                             throughput_mpps=0.0)
        assert point.loss_fraction == 0.0

    def test_as_dict_round_numbers(self):
        point = OfferedPoint(1e6, 0.01, sent=10, delivered=9,
                             throughput_mpps=0.0009)
        out = point.as_dict()
        assert out["lost"] == 1
        assert out["loss_fraction"] == pytest.approx(0.1)


# -- the zero-loss search -----------------------------------------------------


class TestZeroLossSearch:
    def search(self, capacity, lo=1e5, hi=1e7, **kwargs):
        harness = Rfc2544Harness(capacity_runner(capacity), **kwargs)
        return harness.zero_loss_search(lo, hi)

    def test_converges_to_capacity(self):
        capacity = 3.3e6
        result = self.search(capacity, resolution=0.02,
                             max_iterations=20)
        assert result.converged
        assert result.zero_loss_pps <= capacity
        assert result.zero_loss_pps >= capacity * (1 - 0.02) * 0.98

    def test_bracket_invariant(self):
        result = self.search(3.3e6)
        assert result.lo_pps <= 3.3e6 <= result.hi_pps
        assert result.zero_loss_pps == result.lo_pps

    def test_capacity_above_range(self):
        result = self.search(1e9)
        assert result.converged
        assert result.zero_loss_pps == 1e7
        assert result.iterations == 1

    def test_capacity_below_range(self):
        result = self.search(1e4)
        assert not result.converged
        assert result.zero_loss_pps == 0.0
        assert result.iterations == 2

    def test_iteration_cap(self):
        result = self.search(3.3e6, resolution=0.0001,
                             max_iterations=5)
        assert result.iterations <= 5

    def test_loss_tolerance_admits_lossy_loads(self):
        capacity = 2e6
        strict = self.search(capacity)
        # 30% tolerance: a load of capacity/0.7 still "passes".
        loose = Rfc2544Harness(capacity_runner(capacity),
                               loss_tolerance=0.30)
        result = loose.zero_loss_search(1e5, 1e7)
        assert result.zero_loss_pps > strict.zero_loss_pps

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            Rfc2544Harness(capacity_runner(1e6), loss_tolerance=1.0)
        with pytest.raises(ValueError):
            Rfc2544Harness(capacity_runner(1e6), resolution=0.0)
        with pytest.raises(ValueError):
            Rfc2544Harness(capacity_runner(1e6), max_iterations=0)
        harness = Rfc2544Harness(capacity_runner(1e6))
        with pytest.raises(ValueError):
            harness.zero_loss_search(1e6, 1e5)
        with pytest.raises(ValueError):
            harness.measure(0)


class TestLossCurveAndMetrics:
    def test_curve_is_sorted_and_monotone_for_capacity_model(self):
        harness = Rfc2544Harness(capacity_runner(2e6))
        points = harness.loss_curve([3e6, 1e6, 5e6])
        offered = [point.offered_pps for point in points]
        assert offered == sorted(offered)
        losses = [point.loss_fraction for point in points]
        assert losses == sorted(losses)

    def test_measurements_land_in_registry(self):
        registry = MetricsRegistry()
        harness = Rfc2544Harness(capacity_runner(2e6),
                                 registry=registry, scenario="syn")
        harness.zero_loss_search(1e5, 1e7)
        assert registry.sample_value(
            "repro_bench_measurements_total",
            {"scenario": "syn"}) == harness.measurements
        zero_loss = registry.sample_value(
            "repro_bench_zero_loss_pps", {"scenario": "syn"})
        assert 0 < zero_loss <= 2e6
        assert registry.sample_value(
            "repro_bench_latency_us",
            {"scenario": "syn", "quantile": "p99"}) == 11.0

    def test_two_harnesses_share_a_registry(self):
        registry = MetricsRegistry()
        Rfc2544Harness(capacity_runner(1e6), registry=registry,
                       scenario="a").measure(1e5)
        Rfc2544Harness(capacity_runner(1e6), registry=registry,
                       scenario="b").measure(1e5)
        assert registry.sample_value(
            "repro_bench_measurements_total", {"scenario": "a"}) == 1
        assert registry.sample_value(
            "repro_bench_measurements_total", {"scenario": "b"}) == 1


# -- latency percentiles ------------------------------------------------------


class TestLatencyPercentiles:
    def test_interpolated_median_is_exact(self):
        recorder = LatencyRecorder()
        for value in range(101):
            recorder.record(float(value))
        assert recorder.percentile(0.5) == pytest.approx(50.0)
        assert recorder.percentile(0.0) == 0.0
        assert recorder.percentile(1.0) == 100.0
        # Interpolation between ranks, not nearest-rank snapping.
        two = LatencyRecorder()
        two.record(0.0)
        two.record(1.0)
        assert two.percentile(0.25) == pytest.approx(0.25)

    def test_percentiles_batch_matches_singles(self):
        recorder = LatencyRecorder()
        for value in (5.0, 1.0, 9.0, 3.0, 7.0):
            recorder.record(value)
        fractions = [0.1, 0.5, 0.9, 0.999]
        assert recorder.percentiles(fractions) == [
            recorder.percentile(fraction) for fraction in fractions]

    def test_properties_ordered(self):
        recorder = LatencyRecorder()
        for value in range(1000):
            recorder.record(value / 1000.0)
        assert (recorder.p50 <= recorder.p95 <= recorder.p99
                <= recorder.p999 <= recorder.max_value)

    def test_merge_preserves_percentile_ordering(self):
        low, high = LatencyRecorder(), LatencyRecorder()
        for value in range(100):
            low.record(value * 1e-6)
            high.record(1.0 + value * 1e-6)
        merged = LatencyRecorder()
        merged.merge(low)
        merged.merge(high)
        assert merged.count == 200
        fractions = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
        values = merged.percentiles(fractions)
        assert values == sorted(values)
        assert merged.percentile(0.25) < 1.0 < merged.percentile(0.75)

    def test_summary_dict(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(value * 1e-6)
        out = latency_summary_us([recorder, None])
        assert out["count"] == 100
        assert out["min_us"] == pytest.approx(1.0)
        assert out["max_us"] == pytest.approx(100.0)
        assert (out["p50_us"] <= out["p95_us"] <= out["p99_us"]
                <= out["p999_us"])
        assert latency_summary_us([None]) == {"count": 0}


# -- the production runner ----------------------------------------------------


class TestChainLoadRunner:
    def test_drained_conservation(self):
        runner = ChainLoadRunner(num_vms=2, bypass=True,
                                 duration=0.001)
        point = runner(2e6)
        assert point.sent > 0
        assert point.delivered <= point.sent
        result = runner.last_experiment
        assert result is not None

    def test_rejects_nothing_up_front(self):
        runner = ChainLoadRunner(num_vms=2, duration=0.001,
                                 extra_rules=8, churn_hz=100.0)
        point = runner(1e6)
        assert point.loss_fraction <= 1.0


# -- scenarios registry -------------------------------------------------------


class TestScenarios:
    def test_registry_complete(self):
        assert len(SCENARIOS) >= 10
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert callable(scenario.run)
            assert scenario.family
        # Every workload family appears as a composite.
        families = {scenario.family for scenario in SCENARIOS.values()}
        assert {"fastpath", "sched", "overload", "chaos", "state",
                "paper"} <= families

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("nope")

    def test_one_sweep_end_to_end(self):
        doc = run_scenario("rule_scale", quick=True, seed=1)
        assert doc["schema_version"] == 1
        assert doc["trend"]
        assert all(check["passed"] for check in doc["checks"])

    @pytest.mark.parametrize("name,tier", [("rule_scale", "megaflow"),
                                           ("syn_flood", "xfsm")])
    def test_ablation_does_not_outlive_its_run(self, name, tier):
        """The tier flags are arguments, not process state: a default
        run after an ablated one yields the default document."""
        def body(**tiers):
            doc = run_scenario(name, quick=True, **tiers)
            del doc["meta"]
            return doc

        default = body()
        ablated = body(**{tier: False})
        assert ablated["config"]["%s_enabled" % tier] is False
        assert ablated != default
        assert body() == default


# -- the closing summary of a scenario run ------------------------------------


class TestBenchState:
    """The summary ``python -m repro.bench`` prints after a scenario run."""

    def doc(self, passed=True):
        return {
            "meta": {"quick": True, "git_sha": "abcdef0123456789"},
            "trend": {"throughput_mpps": 2.0},
            "checks": [{"name": "inv", "passed": passed,
                        "detail": "d"}],
        }

    def test_last_report(self):
        report = last_report({"s1": self.doc(),
                              "s2": self.doc(passed=False)})
        assert "s1" in report and "PASS" in report
        assert "s2" in report and "FAIL" in report
        assert "throughput_mpps" in report


# -- CLI glue -----------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_bad_arguments(self):
        with pytest.raises(SystemExit):
            bench_main([])
        with pytest.raises(SystemExit):
            bench_main(["--matrix", "quick", "--scenarios", "rule_scale"])
        with pytest.raises(SystemExit):
            bench_main(["--scenarios", "nope"])
        with pytest.raises(SystemExit):
            bench_main(["--family", "paper", "--matrix", "quick"])
        with pytest.raises(SystemExit):
            bench_main(["--scenarios", "rule_scale", "--check"])

    @pytest.mark.parametrize("argv, named", [
        # A tier flag nothing selected honors used to be accepted and
        # ignored: the plain run's document under an ablation's name.
        (["--family", "sched", "--no-xfsm", "--no-megaflow"],
         "--no-megaflow"),
        (["--scenarios", "zero_loss_pktsize", "--no-megaflow"],
         "--no-megaflow"),
        (["--scenarios", "rule_scale", "--no-xfsm"], "--no-xfsm"),
        # The ablated state family is a control run; without --out it
        # used to overwrite the committed BENCH_state.json.
        (["--family", "state", "--no-xfsm"], "--no-xfsm"),
    ])
    def test_tier_flag_nothing_honors_is_an_error(self, argv, named,
                                                  capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(argv)
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    def test_family_validates_committed_artifact(self, tmp_path, capsys):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        committed = os.path.join(root, "BENCH_fastpath.json")
        assert bench_main(["--family", "fastpath",
                           "--validate", committed]) == 0
        assert "valid (repro-bench-fastpath/1)" in capsys.readouterr().out
        # The same document is not a sched document.
        assert bench_main(["--family", "sched",
                           "--validate", committed]) == 1

    def test_single_scenario_writes_doc_and_trend(self, tmp_path):
        out_dir = str(tmp_path)
        # Named twice, run once: one trend line, one series per label.
        code = bench_main(["--scenarios", "rule_scale,rule_scale",
                           "--quick", "--out-dir", out_dir,
                           "--metrics-out",
                           str(tmp_path / "bench.prom")])
        assert code == 0
        doc_path = tmp_path / "BENCH_scenario_rule_scale.json"
        assert doc_path.exists()
        trends = tmp_path / "BENCH_TRENDS.jsonl"
        assert len(trends.read_text().splitlines()) == 1
        prom = (tmp_path / "bench.prom").read_text()
        assert 'repro_bench_measurements_total{scenario="rules_0"} 1\n' \
            in prom
        assert validate_prometheus_text(prom) == \
            prom.count("\nrepro_bench_")
