"""Tests for the exporters (repro.obs.export)."""

import pytest

from repro.obs.export import (
    Snapshotter,
    jsonl_snapshots,
    parse_jsonl_snapshots,
    prometheus_text,
    snapshot_dict,
    validate_prometheus_text,
)
from repro.obs.registry import MetricsRegistry, Sample


def small_registry():
    registry = MetricsRegistry()
    registry.register_collector(lambda: [
        Sample("pkts_total", {"port": "p0"}, 7.0, "counter",
               "packets seen"),
        Sample("depth", {}, 3.5, "gauge", "ring depth"),
    ])
    registry.coverage("event_hit", 2)
    return registry


def per_loop_registry():
    """Two collectors that each yield the same two names, the shape of
    one poll-loop collector per loop."""
    registry = MetricsRegistry()
    for loop in ("pmd0", "pmd1"):
        registry.register_collector(lambda loop=loop: [
            Sample("busy", {"loop": loop}, 1.0, "gauge", "busy time"),
            Sample("iters_total", {"loop": loop}, 2.0, "counter"),
        ])
    return registry


class TestPrometheusText:
    def test_render_and_validate(self):
        text = prometheus_text(small_registry())
        assert '# TYPE pkts_total counter' in text
        assert 'pkts_total{port="p0"} 7' in text
        assert "# HELP pkts_total packets seen" in text
        assert "depth 3.5" in text
        assert 'coverage_total{event="event_hit"} 2' in text
        assert validate_prometheus_text(text) == 3

    def test_each_name_renders_as_one_group(self):
        lines = prometheus_text(per_loop_registry()).splitlines()
        assert lines == [
            "# HELP busy busy time",
            "# TYPE busy gauge",
            'busy{loop="pmd0"} 1',
            'busy{loop="pmd1"} 1',
            "# TYPE iters_total counter",
            'iters_total{loop="pmd0"} 2',
            'iters_total{loop="pmd1"} 2',
        ]

    def test_validator_rejects_a_name_split_across_groups(self):
        split = ('busy{loop="pmd0"} 1\niters_total{loop="pmd0"} 2\n'
                 'busy{loop="pmd1"} 1\n')
        with pytest.raises(ValueError, match="resumes"):
            validate_prometheus_text(split)

    def test_validator_rejects_a_series_exported_twice(self):
        text = prometheus_text(per_loop_registry())
        twice = text.replace('busy{loop="pmd1"} 1',
                             'busy{loop="pmd1"} 1\n'
                             'busy{loop="pmd0"} 3')
        assert validate_prometheus_text(text) == 4
        with pytest.raises(ValueError,
                           match=r'line 5: series .*pmd0.* twice'):
            validate_prometheus_text(twice)
        # The same label pairs in another order name the same series.
        with pytest.raises(ValueError, match="line 2: series"):
            validate_prometheus_text('x{a="1",b="2"} 1\n'
                                     'x{b="2",a="1"} 2\n')

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: [
            Sample("weird_total", {"name": 'a"b\\c'}, 1.0, "counter")])
        text = prometheus_text(registry)
        assert r'weird_total{name="a\"b\\c"} 1' in text
        validate_prometheus_text(text)

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus_text("not a metric line at all\n")
        with pytest.raises(ValueError):
            validate_prometheus_text("name{unterminated 1\n")
        with pytest.raises(ValueError):
            validate_prometheus_text("")  # no sample lines

    def test_validator_counts_sample_lines_only(self):
        assert validate_prometheus_text(
            "# HELP a b\n# TYPE a counter\na 1\nb 2\n"
        ) == 2


class TestSnapshots:
    def test_jsonl_round_trip(self):
        registry = small_registry()
        snaps = [snapshot_dict(registry, 0.0),
                 snapshot_dict(registry, 0.5)]
        text = jsonl_snapshots(snaps)
        assert text.endswith("\n")
        parsed = parse_jsonl_snapshots(text)
        assert [s["time"] for s in parsed] == [0.0, 0.5]
        assert parsed[0]["metrics"] == parsed[1]["metrics"]
        # Every metric entry survives json round trip intact.
        names = {m["name"] for m in parsed[0]["metrics"]}
        assert {"pkts_total", "depth", "coverage_total"} <= names

    def test_parse_rejects_non_snapshot(self):
        with pytest.raises(ValueError):
            parse_jsonl_snapshots('{"no": "snapshot keys"}\n')

    def test_empty_list_serializes_to_empty(self):
        assert jsonl_snapshots([]) == ""
        assert parse_jsonl_snapshots("") == []


class TestSnapshotter:
    def test_iteration_contract_and_bound(self):
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        snapshotter = Snapshotter(registry, lambda: clock["now"],
                                  max_snapshots=2)
        assert snapshotter.iteration() == Snapshotter.SNAPSHOT_COST
        clock["now"] = 0.1
        snapshotter.iteration()
        clock["now"] = 0.2
        snapshotter.iteration()  # over budget: dropped, still costs
        assert len(snapshotter.snapshots) == 2
        assert snapshotter.dropped == 1
        assert [s["time"] for s in snapshotter.snapshots] == [0.0, 0.1]

    def test_to_jsonl_round_trips(self):
        registry = small_registry()
        snapshotter = Snapshotter(registry, lambda: 1.5)
        snapshotter.iteration()
        parsed = parse_jsonl_snapshots(snapshotter.to_jsonl())
        assert len(parsed) == 1
        assert parsed[0]["time"] == 1.5
