"""The unified benchmark schema, the trend file, and the regression
gate built on top of them."""

import copy
import importlib.util
import json
import os
import re

import pytest

from repro.bench import workloads
from repro.bench.schema import (
    SCHEMA_VERSION,
    append_trend_line,
    checks_passed,
    git_sha,
    make_trend_line,
    read_trend_lines,
    run_meta,
    tail_by_scenario,
    validate_document,
    validate_trend_file,
    validate_trend_line,
)
from repro.bench.workloads import paper

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_GATE_PATH = os.path.join(_ROOT, "scripts", "bench_gate.py")
_spec = importlib.util.spec_from_file_location("bench_gate", _GATE_PATH)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def make_doc(family="fastpath", passed=True, **meta_overrides):
    doc = workloads.new_doc(family, "test-gen", quick=True, seed=7,
                            config={"quick": True})
    doc["meta"].update(meta_overrides)
    return workloads.attach_checks(doc, [("inv", passed, "detail")])


# -- documents ----------------------------------------------------------------


class TestDocumentSchema:
    def test_new_doc_validates(self):
        assert validate_document(make_doc()) == []
        assert validate_document(make_doc(), family="fastpath") == []

    def test_meta_carries_identity(self):
        meta = run_meta("gen", seed=3, quick=True)
        assert meta["generator"] == "gen"
        assert meta["seed"] == 3
        assert meta["quick"] is True
        assert isinstance(meta["git_sha"], str) and meta["git_sha"]

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        assert git_sha() == "cafebabe"

    def test_wrong_family_rejected(self):
        problems = validate_document(make_doc("fastpath"), family="sched")
        assert any("repro-bench-sched" in p for p in problems)

    def test_future_schema_version_rejected(self):
        doc = make_doc()
        doc["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_document(doc))

    def test_missing_pieces_rejected(self):
        for key in ("schema", "meta", "config", "checks"):
            doc = make_doc()
            del doc[key]
            assert validate_document(doc), "missing %s accepted" % key

    def test_non_bool_check_rejected(self):
        doc = make_doc()
        doc["checks"][0]["passed"] = "yes"
        assert any("passed" in p for p in validate_document(doc))

    def test_checks_passed(self):
        assert checks_passed(make_doc(passed=True))
        assert not checks_passed(make_doc(passed=False))

    def test_by_schema_tag(self):
        assert workloads.by_schema_tag("repro-bench-chaos/1") \
            is workloads.get("chaos")
        assert workloads.by_schema_tag("repro-bench-matrix/1") is None
        assert workloads.by_schema_tag("something-else/1") is None
        assert workloads.by_schema_tag(None) is None

    def test_resolve_seed_priority(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert workloads.resolve_seed(None, default=42) == 42
        assert workloads.resolve_seed(5, default=42) == 5
        monkeypatch.setenv("REPRO_FAULT_SEED", "303")
        assert workloads.resolve_seed(None, default=42) == 303
        assert workloads.resolve_seed(5, default=42) == 5

    def test_resolve_seed_rejects_a_malformed_sweep_seed(self, monkeypatch):
        """A typo in the sweep's seed must not fall back to the family
        default and report the sweep green."""
        monkeypatch.setenv("REPRO_FAULT_SEED", "3o3")
        with pytest.raises(ValueError, match="REPRO_FAULT_SEED='3o3'"):
            workloads.resolve_seed(None, default=42)
        assert workloads.resolve_seed(5, default=42) == 5


# -- trend lines --------------------------------------------------------------


def trend(scenario="s", sha="aaa", quick=True, passed=True,
          metrics=None):
    return make_trend_line(
        scenario, "matrix", metrics or {"throughput_mpps": 2.0},
        {"git_sha": sha, "seed": 1, "quick": quick,
         "created_unix": 1.0},
        passed,
    )


class TestTrendLines:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trends.jsonl")
        append_trend_line(path, trend(sha="one"))
        append_trend_line(path, trend(sha="two"))
        lines = read_trend_lines(path)
        assert [line["git_sha"] for line in lines] == ["one", "two"]
        assert validate_trend_file(path) == []

    def test_append_refuses_invalid(self, tmp_path):
        path = str(tmp_path / "trends.jsonl")
        bad = trend()
        bad["metrics"] = {}
        with pytest.raises(ValueError):
            append_trend_line(path, bad)
        assert not os.path.exists(path)

    def test_validate_catches_bad_lines(self, tmp_path):
        path = tmp_path / "trends.jsonl"
        path.write_text("not json\n"
                        + json.dumps({"schema_version": 99}) + "\n")
        problems = validate_trend_file(str(path))
        assert any(p.startswith("line 1:") for p in problems)
        assert any(p.startswith("line 2:") for p in problems)

    def test_metrics_must_be_numbers(self):
        bad = trend()
        bad["metrics"]["throughput_mpps"] = True
        assert validate_trend_line(bad)

    def test_tail_filters_scenario_and_sizing(self):
        lines = ([trend("a", quick=True)] * 3
                 + [trend("a", quick=False)] * 2
                 + [trend("b", quick=True)])
        assert len(tail_by_scenario(lines, "a", quick=True)) == 3
        assert len(tail_by_scenario(lines, "a", quick=False)) == 2
        assert len(tail_by_scenario(lines, "a")) == 5
        assert len(tail_by_scenario(lines, "a", window=2)) == 2
        assert tail_by_scenario(lines, "zzz") == []


# -- the regression gate ------------------------------------------------------


#: Every trend-metric name the scenario matrix and the six workload
#: families can emit (quick and full sizings), with its gate
#: direction.  A new headline metric must be added here — the
#: committed-trend-file test below fails on unclassified names.
EXPECTED_DIRECTIONS = {}
EXPECTED_DIRECTIONS.update({
    # zero_loss_pktsize / zero_loss_chain_length sweeps
    "zero_loss_mpps_%db" % size: "higher" for size in (64, 256, 1024)})
EXPECTED_DIRECTIONS.update({
    "zero_loss_mpps_%dvm" % n: "higher" for n in (2, 3, 4)})
for _count in (4, 64, 256):  # flow_scale_zipf
    EXPECTED_DIRECTIONS["loss_fraction_%df" % _count] = "lower"
    EXPECTED_DIRECTIONS["p99_us_%df" % _count] = "lower"
for _rules in (0, 128, 512):  # rule_scale
    EXPECTED_DIRECTIONS["throughput_mpps_%dr" % _rules] = "higher"
    EXPECTED_DIRECTIONS["loss_fraction_%dr" % _rules] = "lower"
for _hz in (0, 1000, 2000, 4000):  # flowmod_churn
    EXPECTED_DIRECTIONS["loss_fraction_%dhz" % _hz] = "lower"
    EXPECTED_DIRECTIONS["p99_us_%dhz" % _hz] = "lower"
for _mice in (16, 64, 256):  # elephants_mice
    EXPECTED_DIRECTIONS["loss_fraction_%dm" % _mice] = "lower"
    EXPECTED_DIRECTIONS["p99_us_%dm" % _mice] = "lower"
for _duty in (100, 50, 25):  # bursty_onoff
    EXPECTED_DIRECTIONS["loss_fraction_%dpct" % _duty] = "lower"
    EXPECTED_DIRECTIONS["p99_us_%dpct" % _duty] = "lower"
for _kpps in (100, 400, 1000):  # syn_flood sweep
    EXPECTED_DIRECTIONS["synflood_occupancy_%dk" % _kpps] = "neutral"
EXPECTED_DIRECTIONS.update({
    # rebalance_under_load + sched family
    "static_mpps": "higher",
    "cycles_mpps": "higher",
    "auto_lb_mpps": "higher",
    "auto_lb_gain_mpps": "higher",
    "rxq_port_moves": "neutral",
    # fastpath family
    "vec_cycles_per_packet": "lower",
    "vec_throughput_mpps": "higher",
    "precise_emc_hit_rate": "higher",
    "megaflow_hit_rate": "higher",
    "rule_scale_cycles_per_packet": "lower",
    # overload family
    "bounded_goodput_mpps": "higher",
    "inline_goodput_mpps": "higher",
    "standalone_outage_mpps": "higher",
    "secure_flows_preserved": "higher",
    # chaos family
    "repaired_recovery_ratio": "higher",
    "unrepaired_recovery_control": "neutral",
    "bypass_restore_seconds": "lower",
    "crashes": "neutral",
    # state family
    "stateful_switch_cycles_per_packet": "lower",
    "stateful_guest_cycles_per_packet": "lower",
    "stateful_xfsm_cycles_per_packet": "lower",
    "stateful_xfsm_bypass_cycles_per_packet": "lower",
    "synflood_state_occupancy": "neutral",
    "synflood_attack_leaked": "neutral",
    "conservation_loss_fraction": "lower",
    "state_handovers": "neutral",
    # paper family
    "nic_cap_crossover_frame_bytes": "neutral",
    "small_frame_speedup_ratio": "higher",
    "latency_improvement_ratio_8vm": "higher",
    "bypass_mean_latency_8vm_us": "lower",
    "setup_total_seconds": "lower",
    "setup_hotplug_seconds": "lower",
    "teardown_total_seconds": "lower",
    "worst_detect_latency_us": "lower",
    "freeze_detection_seconds": "lower",
    "accounted_bypass_mpps": "higher",
    "unaccounted_bypass_mpps": "higher",
    "service_speedup_ratio": "higher",
    "live_packets_lost": "neutral",
})
for _figure in ("f3a", "f3b"):  # paper family, per chain length
    for _n in range(1, 9):
        EXPECTED_DIRECTIONS["%s_speedup_ratio_%dvm" % (_figure, _n)] \
            = "higher"
    for _n in (5, 8):  # the longest chain, quick and full
        EXPECTED_DIRECTIONS["%s_traditional_mpps_%dvm" % (_figure, _n)] \
            = "higher"
        EXPECTED_DIRECTIONS["%s_bypass_mpps_%dvm" % (_figure, _n)] \
            = "higher"

_TRENDS_PATH = os.path.join(_ROOT, "BENCH_TRENDS.jsonl")
# In the committed history but no longer emitted: the fastpath family's
# NIC and latency pairs went to paper.nic_sweep / paper.latency_sweep.
RETIRED_TREND_METRICS = {"bypass_nic_mpps", "bypass_latency_us"}


class TestGateDirections:
    @pytest.mark.parametrize(
        "name,expected", sorted(EXPECTED_DIRECTIONS.items()))
    def test_every_emitted_metric_name(self, name, expected):
        assert bench_gate.metric_direction(name) == expected

    def test_committed_trend_metrics_all_classified(self):
        """Every name in the committed trend file is in the expected
        map — an unclassified (or silently re-classified) headline
        metric cannot slip into history."""
        names = set()
        with open(_TRENDS_PATH) as handle:
            for line in handle:
                names.update(json.loads(line)["metrics"])
        assert names, "committed trend file carries no metrics"
        unclassified = (names - set(EXPECTED_DIRECTIONS)
                        - RETIRED_TREND_METRICS)
        assert not unclassified, (
            "trend metrics missing from EXPECTED_DIRECTIONS: %s"
            % sorted(unclassified))

    def test_convention(self):
        direction = bench_gate.metric_direction
        assert direction("zero_loss_pps") == "higher"
        assert direction("duration_s") == "lower"
        assert direction("offered_pps_total") == "higher"

    def test_unit_token_beats_loss_token(self):
        # The flagship RFC2544 sweeps: a per-size suffix after the
        # unit must not flip zero-loss throughput to lower-is-better.
        assert bench_gate.metric_direction("zero_loss_mpps_64b") \
            == "higher"
        assert bench_gate.metric_direction("zero_loss_mpps_2vm") \
            == "higher"

    def test_loss_rate_is_a_loss(self):
        assert bench_gate.metric_direction("loss_rate") == "lower"


class TestGateLine:
    def history(self, value, scenario="s", n=3, name="throughput_mpps"):
        return [trend(scenario, sha="h%d" % i,
                      metrics={name: value}) for i in range(n)]

    def test_regression_higher_better(self):
        problems, _ = bench_gate.gate_line(
            trend(metrics={"throughput_mpps": 1.0}),
            self.history(2.0), window=5, tolerance=0.10)
        assert any("regressed" in p for p in problems)

    def test_within_band_passes(self):
        problems, _ = bench_gate.gate_line(
            trend(metrics={"throughput_mpps": 1.85}),
            self.history(2.0), window=5, tolerance=0.10)
        assert problems == []

    def test_regression_lower_better(self):
        problems, _ = bench_gate.gate_line(
            trend(metrics={"p99_us": 30.0}),
            self.history(10.0, name="p99_us"),
            window=5, tolerance=0.10)
        assert any("regressed" in p for p in problems)

    def test_improvement_never_fails(self):
        problems, _ = bench_gate.gate_line(
            trend(metrics={"p99_us": 1.0}),
            self.history(10.0, name="p99_us"),
            window=5, tolerance=0.10)
        assert problems == []

    def test_failed_checks_fail_outright(self):
        problems, _ = bench_gate.gate_line(
            trend(passed=False), [], window=5, tolerance=0.10)
        assert any("checks_passed" in p for p in problems)

    def test_no_history_is_a_note(self):
        problems, notes = bench_gate.gate_line(
            trend(), [], window=5, tolerance=0.10)
        assert problems == []
        assert any("no comparable history" in n for n in notes)

    def test_quick_never_compared_to_full(self):
        history = [trend(sha="h", quick=False,
                         metrics={"throughput_mpps": 100.0})]
        problems, notes = bench_gate.gate_line(
            trend(quick=True, metrics={"throughput_mpps": 1.0}),
            history, window=5, tolerance=0.10)
        assert problems == []

    def test_sentinel_baseline_not_gated(self):
        history = [trend(sha="h",
                         metrics={"bypass_restore_seconds": -1.0})]
        problems, notes = bench_gate.gate_line(
            trend(metrics={"bypass_restore_seconds": 5.0}),
            history, window=5, tolerance=0.10)
        assert problems == []
        assert any("not gateable" in n for n in notes)

    def test_neutral_metric_ignored(self):
        history = [trend(sha="h", metrics={"crashes": 100.0})]
        problems, _ = bench_gate.gate_line(
            trend(metrics={"crashes": 1.0}), history,
            window=5, tolerance=0.10)
        assert problems == []

    def test_median_baseline(self):
        assert bench_gate.median([1.0, 9.0, 2.0]) == 2.0
        assert bench_gate.median([1.0, 3.0]) == 2.0


class TestGateMain:
    def write(self, tmp_path, lines, name="trends.jsonl"):
        path = str(tmp_path / name)
        for line in lines:
            append_trend_line(path, line)
        return path

    def test_head_group_passes_against_itself_history(self, tmp_path):
        path = self.write(tmp_path, [
            trend(sha="old", metrics={"throughput_mpps": 2.0}),
            trend(sha="new", metrics={"throughput_mpps": 1.95}),
        ])
        assert bench_gate.main(["--trends", path]) == 0

    def test_head_group_regression_fails(self, tmp_path):
        path = self.write(tmp_path, [
            trend(sha="old", metrics={"throughput_mpps": 2.0}),
            trend(sha="new", metrics={"throughput_mpps": 0.5}),
        ])
        assert bench_gate.main(["--trends", path]) == 1

    def test_explicit_current_file(self, tmp_path):
        history = self.write(tmp_path, [
            trend(sha="old", metrics={"throughput_mpps": 2.0})])
        current = self.write(tmp_path, [
            trend(sha="new", metrics={"throughput_mpps": 0.5})],
            name="current.jsonl")
        assert bench_gate.main(["--trends", history,
                                "--current", current]) == 1
        good = self.write(tmp_path, [
            trend(sha="new2", metrics={"throughput_mpps": 2.1})],
            name="good.jsonl")
        assert bench_gate.main(["--trends", history,
                                "--current", good]) == 0

    def test_schema_problem_exits_2(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\n")
        assert bench_gate.main(["--trends", str(path)]) == 2

    def test_schema_only(self, tmp_path):
        path = self.write(tmp_path, [trend()])
        assert bench_gate.main(["--trends", path, "--schema-only"]) == 0

    def test_first_run_creates_baseline(self, tmp_path):
        path = self.write(tmp_path, [trend(sha="only")])
        assert bench_gate.main(["--trends", path]) == 0


# -- the paper family: code -> artifact -> document ---------------------------


def _read(*parts):
    with open(os.path.join(_ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


class TestPaperArtifact:
    """``BENCH_paper.json`` is what the paper family measured at full
    sizing, and ``EXPERIMENTS.md`` shows exactly that.  Reads committed
    files only — the sweeps themselves run in ``bench-smoke``."""

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads(_read("BENCH_paper.json"))

    def test_committed_artifact_is_a_valid_full_run(self, doc):
        assert doc["meta"]["quick"] is False
        assert doc["config"] == paper.sizing(False)
        assert paper.validate(doc) == []

    def test_validate_rejects_a_missing_experiment(self, doc):
        broken = copy.deepcopy(doc)
        del broken["experiments"]["T-lat"]
        assert paper.validate(broken) == ["missing experiment T-lat"]

    def test_validate_rejects_checks_the_payload_does_not_support(
            self, doc):
        broken = copy.deepcopy(doc)
        broken["experiments"]["A-handover"][1]["inversions"] = 0
        assert paper.validate(broken) \
            == ["checks do not follow from the payload"]

    def test_every_design_row_has_passing_checks(self, doc):
        section = _read("DESIGN.md").split("## 4.")[1].split("## 5.")[0]
        design_ids = re.findall(r"^\| ([FTA][\w-]+) \|", section,
                                re.MULTILINE)
        assert design_ids == list(paper.EXPERIMENT_IDS)
        checked = {}
        for check in doc["checks"]:
            checked.setdefault(check["name"].split(".")[0],
                               []).append(check["passed"])
        assert sorted(checked) == sorted(design_ids)
        assert all(all(verdicts) for verdicts in checked.values())

    def test_every_former_assert_is_a_mapped_check(self, doc):
        """The 79 asserts of the deleted ``benchmarks/`` suite: each a
        check in the artifact, each listed in the mapping table."""
        names = [check["name"] for check in doc["checks"]]
        assert len(names) == len(set(names)) == 79
        mapped = re.findall(r"^\| `test_\w+\.py` \| .* \| `([^`]+)` \|$",
                            _read("docs", "BENCHMARKS.md"), re.MULTILINE)
        assert sorted(mapped) == sorted(names)

    def test_experiments_md_is_rendered_from_the_artifact(self, doc):
        text = _read("EXPERIMENTS.md")
        blocks = re.findall(r"<!-- BEGIN paper:([\w-]+) -->", text)
        assert sorted(blocks) == sorted(paper.EXPERIMENT_IDS)
        assert paper.render_into(text, doc) == text

    def test_host_clock_readings_stay_out_of_the_body(self, doc):
        timed = doc["meta"]["host_clock"]["analyze_port_median_us"]
        assert sorted(timed, key=int) == [
            str(rules) for rules in
            doc["experiments"]["A-detscale"]["table_rules"]]

    def test_trend_names_follow_the_gate_convention(self, doc):
        trend = paper.trend_metrics(doc)
        assert set(trend) <= set(EXPECTED_DIRECTIONS)
        assert trend["latency_improvement_ratio_8vm"] \
            == doc["experiments"]["T-lat"][-1]["improvement"]
