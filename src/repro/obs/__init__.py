"""repro.obs — the unified observability plane.

Metrics registry + coverage counters (:mod:`repro.obs.registry`),
per-PMD cycle accounting (:mod:`repro.obs.cycles`), sampled per-packet
path tracing (:mod:`repro.obs.trace`), Prometheus / JSONL exporters and
the periodic snapshotter (:mod:`repro.obs.export`), all bundled per host
by :class:`~repro.obs.plane.Observability`.
"""

from repro.obs.cycles import (
    CYCLES_PER_SECOND,
    PmdCycleReport,
    StageAccounting,
    seconds_to_cycles,
)
from repro.obs.export import (
    Snapshotter,
    jsonl_snapshots,
    parse_jsonl_snapshots,
    prometheus_text,
    snapshot_dict,
    validate_prometheus_text,
)
from repro.obs.plane import Observability
from repro.obs.registry import MetricsRegistry, Sample
from repro.obs.trace import PathTracer, Span, Trace, span_hop

__all__ = [
    "CYCLES_PER_SECOND",
    "MetricsRegistry",
    "Observability",
    "PathTracer",
    "PmdCycleReport",
    "Sample",
    "Snapshotter",
    "Span",
    "StageAccounting",
    "Trace",
    "jsonl_snapshots",
    "parse_jsonl_snapshots",
    "prometheus_text",
    "seconds_to_cycles",
    "snapshot_dict",
    "span_hop",
    "validate_prometheus_text",
]
