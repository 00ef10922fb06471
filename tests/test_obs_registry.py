"""Tests for the central metrics registry (repro.obs.registry)."""

import pytest

from repro.obs.export import prometheus_text, validate_prometheus_text
from repro.obs.registry import MetricsRegistry, Sample
from tests.helpers import metric_shape_problems


class TestFamilies:
    """A metric family — one name and its labeled series — as the
    collectors build it; the registry takes whatever they yield, so a
    family's shape is checked on the scrape (``metric_shape_problems``,
    held over real scrapes in ``tests/test_obs_plane.py``)."""

    def test_labeled_counter_children_are_distinct(self):
        registry = MetricsRegistry()
        for port, count in (("p0", 3), ("p1", 5)):
            registry.register_collector(
                lambda port=port, count=count: [Sample(
                    "pkts_total", {"port": port}, float(count), "counter")])
        assert registry.sample_value("pkts_total", {"port": "p0"}) == 3
        assert registry.sample_value("pkts_total", {"port": "p1"}) == 5
        assert metric_shape_problems(registry.collect()) == []

    def test_keyword_labels(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: [
            Sample("x_total", {"a": "1", "b": "2"}, 1.0, "counter")])
        # Label values are strings; a lookup may name them by value.
        assert registry.sample_value("x_total", {"a": 1, "b": 2}) == 1

    def test_label_arity_enforced(self):
        samples = [Sample("y_total", {"a": "1"}, 1.0, "counter"),
                   Sample("y_total", {"a": "2", "b": "2"}, 1.0, "counter")]
        assert metric_shape_problems(samples) == [
            "y_total: labels ['a'] and ['a', 'b']"]

    def test_reregistration_must_match(self):
        same_shape = [Sample("z_total", {"a": "1"}, 1.0, "counter"),
                      Sample("z_total", {"a": "2"}, 1.0, "counter")]
        assert metric_shape_problems(same_shape) == []
        other_kind = same_shape + [Sample("z_total", {"a": "3"}, 1.0)]
        assert metric_shape_problems(other_kind) == [
            "z_total: kind counter and gauge"]
        twice = same_shape + [Sample("z_total", {"a": "1"}, 2.0,
                                     "counter")]
        assert metric_shape_problems(twice) == [
            "z_total: series {'a': '1'} twice"]

    def test_invalid_metric_name_rejected(self):
        for name in ("9bad", ""):
            registry = MetricsRegistry()
            registry.register_collector(
                lambda name=name: [Sample(name, {}, 1.0)])
            with pytest.raises(ValueError):
                validate_prometheus_text(prometheus_text(registry))


class TestCollectors:
    def test_register_object_reads_lazily(self):
        # A collector reads the object it wraps at scrape time.
        class Stats:
            hits = 0

        stats = Stats()
        registry = MetricsRegistry()
        registry.register_collector(lambda: [Sample(
            "repro_test_hits", {"who": "emc"}, float(stats.hits),
            "counter")])
        assert registry.sample_value("repro_test_hits",
                                     {"who": "emc"}) == 0
        stats.hits = 42  # the hot path mutates its plain attribute...
        assert registry.sample_value("repro_test_hits",
                                     {"who": "emc"}) == 42

    def test_register_collector_callback(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [Sample("custom_metric", {}, 1.5, "gauge")]
        )
        assert registry.sample_value("custom_metric") == 1.5

    def test_sample_value_raises_on_absent(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.sample_value("nope")


class TestCoverage:
    def test_coverage_counts_and_exports(self):
        registry = MetricsRegistry()
        registry.coverage("bypass_link_active")
        registry.coverage("bypass_link_active", 2)
        assert registry.coverage_counters() == {"bypass_link_active": 3}
        assert registry.sample_value(
            "coverage_total", {"event": "bypass_link_active"}
        ) == 3
