"""Measurement utilities: latency reservoirs, rates, report tables."""

from repro.metrics.latency import LatencyRecorder
from repro.metrics.rates import to_mpps
from repro.metrics.report import format_table
from repro.metrics.resilience import ResilienceCounters
from repro.metrics.timeline import (
    EventTimeline,
    TimelineEvent,
    attach_highway_tracing,
    attach_lifecycle_tracing,
)

__all__ = [
    "EventTimeline",
    "LatencyRecorder",
    "ResilienceCounters",
    "TimelineEvent",
    "attach_highway_tracing",
    "attach_lifecycle_tracing",
    "format_table",
    "to_mpps",
]
