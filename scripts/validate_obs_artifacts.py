#!/usr/bin/env python
"""Validate the observability artifacts a run wrote with ``--obs-out``.

The CI obs-smoke job runs a short traced experiment, points this script
at the artifact directory, and fails the job unless:

* ``metrics.prom`` parses under the Prometheus text grammar and carries
  the families the paper's story depends on (datapath, poll loops,
  resilience);
* ``snapshots.jsonl`` round-trips as JSON Lines snapshots with
  monotone timestamps;
* ``traces.jsonl`` holds well-formed traces, at least one of which
  proves the bypass path (``bypass-ring`` hop, no classifier hop);
* ``report.txt`` contains both report sections (``trace/dump``,
  ``metrics/dump``).

It also validates benchmark artifacts against the unified schema
(:mod:`repro.bench.schema`): ``--bench`` schema-checks benchmark JSON
documents (family resolved from their ``schema`` tag), ``--trends``
schema-checks a ``BENCH_TRENDS.jsonl`` file, and ``--bench-metrics``
checks the harness registry ``python -m repro.bench --metrics-out``
wrote: Prometheus grammar and grouping, every metric a
``repro_bench_*`` one (empty when no scenario ran the RFC 2544
harness).

Usage::

    python scripts/validate_obs_artifacts.py <artifact-dir>
    python scripts/validate_obs_artifacts.py --bench BENCH_*.json
    python scripts/validate_obs_artifacts.py --trends BENCH_TRENDS.jsonl
    python scripts/validate_obs_artifacts.py --bench-metrics metrics.prom
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.obs.export import (  # noqa: E402
    parse_jsonl_snapshots,
    validate_prometheus_text,
)

REQUIRED_METRIC_PREFIXES = (
    "repro_datapath_packets_processed",
    "repro_pollloop_busy_cycles",
    "repro_resilience_total",
    "coverage_total",
)

BENCH_METRIC_PREFIX = "repro_bench_"

SWITCH_PATH_HOPS = {"switch-rx", "emc", "classifier", "upcall",
                    "switch-tx"}

REPORT_SECTIONS = ("trace/dump", "metrics/dump")


def fail(message):
    print("FAIL: %s" % message, file=sys.stderr)
    raise SystemExit(1)


def check_metrics(path):
    with open(path) as handle:
        text = handle.read()
    count = validate_prometheus_text(text)
    for prefix in REQUIRED_METRIC_PREFIXES:
        if prefix not in text:
            fail("%s: missing metric family %r" % (path, prefix))
    print("ok: %s (%d sample lines)" % (path, count))


def check_bench_metrics(path):
    with open(path) as handle:
        text = handle.read()
    if not text.strip():
        print("ok: %s (empty: no harness scenario ran)" % path)
        return
    count = validate_prometheus_text(text)
    for line in text.splitlines():
        if line and not line.startswith("#") \
                and not line.startswith(BENCH_METRIC_PREFIX):
            fail("%s: not a %s* metric: %r"
                 % (path, BENCH_METRIC_PREFIX, line))
    print("ok: %s (%d sample lines)" % (path, count))


def check_snapshots(path):
    with open(path) as handle:
        snapshots = parse_jsonl_snapshots(handle.read())
    if not snapshots:
        fail("%s: no snapshots" % path)
    times = [snap["time"] for snap in snapshots]
    if times != sorted(times):
        fail("%s: snapshot timestamps not monotone" % path)
    print("ok: %s (%d snapshots)" % (path, len(snapshots)))


def check_traces(path):
    bypassed = 0
    total = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            trace = json.loads(line)
            for key in ("trace_id", "seq", "start", "spans"):
                if key not in trace:
                    fail("%s line %d: trace missing %r"
                         % (path, lineno, key))
            hops = [span["hop"] for span in trace["spans"]]
            if not hops or hops[0] != "ingress" or hops[-1] != "sink":
                fail("%s line %d: trace not ingress..sink: %r"
                     % (path, lineno, hops))
            total += 1
            if "bypass-ring" in hops:
                if SWITCH_PATH_HOPS & set(hops):
                    fail("%s line %d: bypassed packet also shows "
                         "switch hops %r" % (path, lineno, hops))
                bypassed += 1
    if total == 0:
        fail("%s: no traces" % path)
    if bypassed == 0:
        fail("%s: no trace proves the bypass path" % path)
    print("ok: %s (%d traces, %d via bypass)" % (path, total, bypassed))


def check_report(path):
    with open(path) as handle:
        text = handle.read()
    for section in REPORT_SECTIONS:
        if section not in text:
            fail("%s: missing section %r" % (path, section))
    print("ok: %s" % path)


def check_bench_doc(path):
    from repro.bench.schema import validate_document
    from repro.bench.workloads import by_schema_tag

    with open(path) as handle:
        doc = json.load(handle)
    module = by_schema_tag(doc.get("schema"))
    if module is not None:
        problems = module.validate(doc)  # family payload + base schema
        kind = module.SCHEMA
    else:
        problems = validate_document(doc)  # matrix/unknown family
        kind = doc.get("schema", "?")
    for problem in problems:
        print("FAIL: %s: %s" % (path, problem), file=sys.stderr)
    if problems:
        raise SystemExit(1)
    print("ok: %s (%s)" % (path, kind))


def check_trend_file(path):
    from repro.bench.schema import read_trend_lines, validate_trend_file

    problems = validate_trend_file(path)
    for problem in problems:
        print("FAIL: %s: %s" % (path, problem), file=sys.stderr)
    if problems:
        raise SystemExit(1)
    print("ok: %s (%d trend lines)" % (path, len(read_trend_lines(path))))


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("artifact_dir", nargs="?",
                        help="--obs-out artifact directory to validate")
    parser.add_argument("--bench", nargs="+", default=[],
                        metavar="JSON",
                        help="benchmark documents to schema-check")
    parser.add_argument("--trends", default=None, metavar="JSONL",
                        help="trend file to schema-check")
    parser.add_argument("--bench-metrics", default=None, metavar="PROM",
                        help="harness registry dump (--metrics-out) "
                             "to check")
    args = parser.parse_args(argv[1:])
    if not (args.artifact_dir or args.bench or args.trends
            or args.bench_metrics):
        parser.print_help()
        return 2
    if args.artifact_dir:
        out_dir = args.artifact_dir
        check_metrics(os.path.join(out_dir, "metrics.prom"))
        check_snapshots(os.path.join(out_dir, "snapshots.jsonl"))
        check_traces(os.path.join(out_dir, "traces.jsonl"))
        check_report(os.path.join(out_dir, "report.txt"))
        print("all observability artifacts valid")
    for path in args.bench:
        check_bench_doc(path)
    if args.trends:
        check_trend_file(args.trends)
    if args.bench_metrics:
        check_bench_metrics(args.bench_metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
