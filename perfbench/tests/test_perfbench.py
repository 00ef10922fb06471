"""The benchmark's own tests (not tier-1; about 90 s):

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import compare, run, spec
from perfbench.trace import Tracer

ROOT = run.ROOT
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def adapter():
    return run.load_adapter()


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One ``--quick --traced`` run of every workload, shared."""
    out = tmp_path_factory.mktemp("perfbench") / "result.json"
    done = subprocess.run(
        [sys.executable, RUN_PY, "--quick", "--traced", "--seed", "1",
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        return json.load(handle), out.parent, done.stdout


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_is_the_spec_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert doc == spec.benchmark_json()
    assert doc["paths"] == ["perfbench"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_traced_layers_have_a_self_time_metric_each(adapter):
    layers = {layer for layer, _owner, _attrs in adapter.TRACE_TABLE}
    layers |= {"traffic", "apps.forwarder"}   # poll-loop callables
    assert layers == set(spec.TRACED_LAYERS)


# -- the driver's entry point -------------------------------------------------------


def test_driver_line_has_exactly_the_contract_keys():
    for trace, metrics in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, RUN_PY, "--workload", spec.CHURN, "--seed",
             "7", "--seconds", "1", "--quick", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd="/")
        assert done.returncode == 0, done.stdout
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in metrics]
        for metric in metrics:
            cell = result["metrics"][metric.name]
            assert sorted(cell) == ["unit", "value"]
            assert cell["unit"] == metric.unit
            assert isinstance(cell["value"], (int, float))
        if not trace:
            assert all(cell["value"] > 0
                       for cell in result["metrics"].values())


def test_without_the_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", spec.VANILLA,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the full document ---------------------------------------------------------------


def test_every_cell_is_present_or_declared_not_applicable(quick_run):
    document, _directory, _stdout = quick_run
    assert document["schema"] == "perfbench/1"
    assert sorted(document["workloads"]) == sorted(spec.WORKLOAD_NAMES)
    for workload, record in document["workloads"].items():
        assert all(record["checks"].values()), record["checks"]
        assert record["failed"] == 0 and record["attempted"] > 0
        for metric in spec.END_TO_END:
            row = record["end_to_end"][metric.name]
            assert row["unit"] == metric.unit
            assert 0 < row["value"] <= row["q1"] <= row["median"] <= row["q3"]
            assert row["value"] == min(row["values"])
            assert len(row["values"]) in (1, record["reps"])
        assert set(record["modelled"]) == {
            m.name for m in spec.applicable(spec.MODELLED, workload)}
        assert set(record["per_layer"]) == {
            m.name for m in spec.applicable(spec.PER_LAYER, workload)}
        assert record["modelled"]["failed_share"] == 0
        # tracing changes host time only
        for name, value in record["modelled"].items():
            assert record["per_layer"][name] == value


def test_layer_self_times_fit_in_the_traced_total(quick_run):
    document, directory, _stdout = quick_run
    for workload, record in document["workloads"].items():
        layers = record["per_layer"]
        self_sum = sum(value for name, value in layers.items()
                       if name.endswith(".self_s"))
        total = record["trace"]["total_s"]
        assert 0 < self_sum <= total
        assert layers["trace.coverage"] >= 0.8
        assert layers["trace.other_s"] == pytest.approx(
            total * (1 - layers["trace.coverage"]), abs=1e-6)
        assert layers["trace.overhead_ratio"] > 1.0
        # the kept span trees: every span names its parent and its root
        with open(directory / ("trace_%s.jsonl" % workload)) as handle:
            spans = [json.loads(line) for line in handle]
        assert len(spans) == record["trace"]["spans_kept"] > 0
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            assert span["root"] in by_id
            if span["parent"] is None:
                assert span["root"] == span["id"]
            else:
                parent = by_id[span["parent"]]
                assert parent["root"] == span["root"]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]


def test_every_metric_is_printed_by_name_with_its_unit(quick_run):
    _document, _directory, stdout = quick_run
    for workload in spec.WORKLOAD_NAMES:
        assert "== %s " % workload in stdout
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert re.search(r"^  %s +\S+ +%s\b" % (
            re.escape(metric.name), re.escape(metric.unit)), stdout,
            re.M), metric.name
    assert "all checks passed" in stdout


# -- tracing ---------------------------------------------------------------------------


def test_no_patched_attribute_is_left_behind(adapter):
    targets = [(owner, attr) for _layer, owner, attrs in adapter.TRACE_TABLE
               for attr in attrs]
    targets.append((adapter.PollLoop, "__init__"))
    before = [vars(owner)[attr] for owner, attr in targets]
    settle = adapter.NfvNode.settle_control_plane
    tracer = Tracer()
    rep = run.run_rep(adapter, adapter.WORKLOADS[spec.CHURN], 1, True,
                      tracer=tracer)
    assert rep["failed"] == 0
    assert tracer.callables["VSwitchd.step_dataplane"][1][0] > 0
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert adapter.NfvNode.settle_control_plane is settle


def test_self_time_excludes_children():
    tracer = Tracer(max_roots=1)

    def leaf():
        return sum(range(2000))

    leaf = tracer.traced("inner", "leaf", leaf)
    outer = tracer.traced("outer", "outer", lambda: leaf() + leaf())
    outer()
    outer()
    layers, names = tracer.summary()
    assert names["leaf"]["calls"] == 4 and names["outer"]["calls"] == 2
    assert layers["outer"]["self_s"] == pytest.approx(
        layers["outer"]["total_s"] - layers["inner"]["total_s"])
    assert tracer.roots == 2
    assert len(tracer.spans) == 3   # only the first root's tree is kept
    assert [span[1] for span in tracer.spans].count(None) == 1


# -- seeds ----------------------------------------------------------------------------


def test_seed_changes_the_inputs_but_no_modelled_value(adapter, quick_run):
    document, _directory, _stdout = quick_run
    first = adapter.WORKLOADS[spec.VANILLA](1, True)
    second = adapter.WORKLOADS[spec.VANILLA](2, True)
    keys = [[t.flow_key for t in w.profile.templates]
            for w in (first, second)]
    assert keys[0] != keys[1]
    assert keys[0] == [t.flow_key for t in adapter.WORKLOADS[spec.VANILLA](
        1, True).profile.templates]
    rep = run.run_rep(adapter, adapter.WORKLOADS[spec.VANILLA], 2, True)
    assert rep["modelled"] == document["workloads"][spec.VANILLA]["modelled"]
    packets = [adapter._churn_packets(seed, 4, 8, 4) for seed in (1, 2, 1)]
    frames = [[p.pack() for burst in sequence for p in burst]
              for sequence in packets]
    assert frames[0] == frames[2] != frames[1]


# -- compare.py -----------------------------------------------------------------------


def _rows(document, other):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    return {(row[0], row[1]): row[-1]
            for row in compare.compare(document, other, end_to_end)}


def test_compare_applies_direction_and_bound(quick_run, tmp_path):
    document, directory, _stdout = quick_run
    assert set(_rows(document, document).values()) <= {"ok", "same"}
    slower = copy.deepcopy(document)
    row = slower["workloads"][spec.BYPASS]["end_to_end"]["host_us_per_pkt"]
    for key in ("value", "median", "q1", "q3"):
        row[key] *= 1.5
    row["values"] = [value * 1.5 for value in row["values"]]
    slower["workloads"][spec.HANDOVER]["modelled"][
        "sim_throughput_mpps"] *= 0.9
    slower["workloads"][spec.CHURN]["modelled"]["sim_throughput_mpps"] *= 1.1
    rows = _rows(document, slower)
    assert rows[spec.BYPASS, "host_us_per_pkt"] == "regression"
    assert rows[spec.HANDOVER, "sim_throughput_mpps"] == "regression"
    assert rows[spec.CHURN, "sim_throughput_mpps"] == "ok"
    assert rows[spec.VANILLA, "host_us_per_pkt"] == "ok"
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    assert compare.main([str(directory / "result.json"), str(path)]) == 1
    assert compare.main([str(directory / "result.json")] * 2) == 0


def _spread(*values):
    return run.spread(values)


def test_compare_reports_an_unknown_floor_as_unresolved():
    # a quarter of the repetitions within the bound of the best: resolved
    steady = _spread(10.0, 10.1, 10.2, 12.0, 15.0)
    slower = _spread(10.5, 10.6, 10.7, 12.0, 15.0)
    assert compare.judge_host("lower", 0.10, steady, slower) == (
        pytest.approx(0.05), "ok")
    assert compare.judge_host("lower", 0.10, steady,
                              _spread(12.0, 12.1, 12.2))[1] == "regression"
    assert compare.judge_host("lower", 0.10, _spread(12.0, 12.1, 12.2),
                              steady)[1] == "ok"
    # one lucky repetition far below the rest: the floor is a guess ...
    lucky = _spread(10.0, 15.0, 15.5, 16.0)
    assert compare.judge_host("lower", 0.10, lucky, steady)[1] == "unresolved"
    # ... unless the two sides do not overlap at all
    assert compare.judge_host("lower", 0.10, lucky,
                              _spread(20.0, 26.0, 27.0))[1] == "regression"
    assert compare.judge_host("lower", 0.10, _spread(20.0, 26.0, 27.0),
                              lucky)[1] == "ok"
