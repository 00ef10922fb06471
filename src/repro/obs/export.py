"""Exporters: Prometheus text format, JSONL snapshots, periodic capture.

The registry's :meth:`~repro.obs.registry.MetricsRegistry.collect` is
the only input; exporters are pure functions over the sample list so
they can run at any point of a simulation (or after it) without
perturbing the run.
"""

import json
import re
from typing import Any, Dict, List

from repro.obs.registry import MetricsRegistry, Sample

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, _escape_label_value(str(value)))
        for key, value in sorted(labels.items())
    )
    return "{%s}" % inner


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return "%d" % int(value)
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every sample in the Prometheus exposition text format.

    Each metric name is one group under one HELP/TYPE header, as the
    format requires: groups in order of first appearance, samples in
    collection order within a group.
    """
    groups: Dict[str, List[Sample]] = {}
    for sample in registry.collect():
        groups.setdefault(sample.name, []).append(sample)
    lines: List[str] = []
    for name, samples in groups.items():
        first = samples[0]
        if first.help:
            lines.append("# HELP %s %s"
                         % (name, first.help.replace("\n", " ")))
        lines.append("# TYPE %s %s" % (name, first.kind))
        for sample in samples:
            lines.append("%s%s %s" % (
                name, _format_labels(sample.labels),
                _format_value(sample.value),
            ))
    return "\n".join(lines) + "\n"


def validate_prometheus_text(text: str) -> int:
    """Cheap line-format check; returns the number of sample lines.

    Raises :class:`ValueError` on the first malformed line.  This is the
    validator the CI smoke job runs — it checks the *grammar* (name,
    optional label block, numeric value) and that each metric name's
    samples form one contiguous group in which no series (name plus
    sorted label pairs) repeats, without needing a Prometheus install in
    the container.
    """
    count = 0
    current = None
    finished = set()
    series = set()  # label sets seen in the current group
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        body = line
        pairs = []
        if "{" in body:
            name, rest = body.split("{", 1)
            if "}" not in rest:
                raise ValueError("line %d: unterminated labels" % lineno)
            labels, value_part = rest.rsplit("}", 1)
            for pair in _split_label_pairs(labels):
                if "=" not in pair:
                    raise ValueError("line %d: bad label %r"
                                     % (lineno, pair))
                key, val = pair.split("=", 1)
                if not key.strip() or not (val.startswith('"')
                                           and val.endswith('"')):
                    raise ValueError("line %d: bad label %r"
                                     % (lineno, pair))
                pairs.append((key.strip(), val))
        else:
            parts = body.split()
            if len(parts) != 2:
                raise ValueError("line %d: expected 'name value'" % lineno)
            name, value_part = parts
        name = name.strip()
        if not _METRIC_NAME.match(name):
            raise ValueError("line %d: bad metric name %r"
                             % (lineno, name))
        if name != current:
            if name in finished:
                raise ValueError("line %d: metric %r resumes after %r; "
                                 "one name must be one group"
                                 % (lineno, name, current))
            finished.add(current)
            current = name
            series.clear()
        identity = tuple(sorted(pairs))
        if identity in series:
            raise ValueError("line %d: series %r exported twice"
                             % (lineno, line))
        series.add(identity)
        value_part = value_part.strip()
        if value_part not in ("+Inf", "-Inf", "NaN"):
            float(value_part)  # raises ValueError when malformed
        count += 1
    if count == 0:
        raise ValueError("no sample lines found")
    return count


def _split_label_pairs(labels: str) -> List[str]:
    """Split ``a="x",b="y,z"`` on commas outside quoted values."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    previous = ""
    for char in labels:
        if char == '"' and previous != "\\":
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
        else:
            current.append(char)
        previous = char
    if current:
        pairs.append("".join(current))
    return [p for p in pairs if p.strip()]


def snapshot_dict(registry: MetricsRegistry, now: float) -> Dict[str, Any]:
    """One point-in-time snapshot as a JSON-serializable dict."""
    metrics: List[Dict[str, Any]] = []
    for sample in registry.collect():
        metrics.append({
            "name": sample.name,
            "labels": sample.labels,
            "value": sample.value,
            "kind": sample.kind,
        })
    return {"time": now, "metrics": metrics}


def jsonl_snapshots(snapshots: List[Dict[str, Any]]) -> str:
    """Serialize snapshots as JSON Lines (one snapshot per line)."""
    return "\n".join(json.dumps(snap, sort_keys=True)
                     for snap in snapshots) + ("\n" if snapshots else "")


def parse_jsonl_snapshots(text: str) -> List[Dict[str, Any]]:
    """Round-trip check: parse what :func:`jsonl_snapshots` wrote."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        snap = json.loads(line)
        if "time" not in snap or "metrics" not in snap:
            raise ValueError("line %d: not a snapshot object" % lineno)
        out.append(snap)
    return out


class Snapshotter:
    """Periodic metrics capture with the housekeeping poll-loop contract.

    ``iteration()`` appends one snapshot and returns its (tiny) cost, so
    it can ride a fixed-``period`` :class:`~repro.sim.pollloop.PollLoop`
    exactly like the bypass watchdog does.  Snapshots accumulate in
    memory (bounded) and serialize to JSONL at the end of the run —
    file I/O never happens inside the simulated hot loop.
    """

    #: simulated cost of reading every shared-memory block once
    SNAPSHOT_COST = 5e-6

    def __init__(self, registry: MetricsRegistry, clock,
                 max_snapshots: int = 4096) -> None:
        self.registry = registry
        self.clock = clock
        self.max_snapshots = max_snapshots
        self.snapshots: List[Dict[str, Any]] = []
        self.dropped = 0

    def iteration(self) -> float:
        if len(self.snapshots) >= self.max_snapshots:
            self.dropped += 1
            return self.SNAPSHOT_COST
        self.snapshots.append(snapshot_dict(self.registry, self.clock()))
        return self.SNAPSHOT_COST

    def to_jsonl(self) -> str:
        return jsonl_snapshots(self.snapshots)

    def __repr__(self) -> str:
        return "<Snapshotter snapshots=%d dropped=%d>" % (
            len(self.snapshots), self.dropped
        )
