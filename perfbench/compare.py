#!/usr/bin/env python3
"""Compare two result documents of ``run.py --out``: ``compare.py A B``.

One row per (metric, workload).  Each host-clock metric takes its
direction and bound from ``BENCHMARK.json`` and is compared on the run's
value (the best of its repetitions; median and quartiles are printed
beside it); each modelled-clock metric takes them from ``spec.MODELLED``.
A row reads

* ``regression`` when B's value is worse than A's by more than the bound,
* ``unresolved`` when, on either side, the lower quartile of the
  repetitions sits further above their best than the bound — fewer than
  a quarter of them came near the floor, so the floor is not known well
  enough to check the bound — unless every repetition of one side is
  better than every repetition of the other, which decides it,
* ``ok`` otherwise (``same`` when the two values are bit-identical).

Exits non-zero if any row is a regression.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:
    sys.path[0] = ROOT

from perfbench import spec  # noqa: E402


def worsening(better, a, b):
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == b:
        return 0.0
    if a == 0:
        return float("inf") if (b > a) == (better == "lower") else 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def judge_host(better, bound, a, b):
    """``(worsening, status)`` of one host-clock metric from its two
    ``run.spread`` rows (host-clock metrics are all lower-is-better)."""
    worse = worsening(better, a["value"], b["value"])
    floor_gap = max((row["q1"] - row["value"]) / row["value"]
                    for row in (a, b))
    apart = (min(b["values"]) > max(a["values"])
             or max(b["values"]) < min(a["values"]))
    if floor_gap > bound and not apart:
        return worse, "unresolved"
    return worse, "regression" if worse > bound else "ok"


def compare(doc_a, doc_b, end_to_end):
    """Rows ``(workload, metric, unit, a, b, worse, bound, status)``;
    ``a``/``b`` are ``spread`` rows for host metrics, numbers otherwise."""
    rows = []
    for workload in spec.WORKLOAD_NAMES:
        rec_a = doc_a["workloads"].get(workload)
        rec_b = doc_b["workloads"].get(workload)
        if rec_a is None or rec_b is None:
            continue
        for metric in end_to_end:
            a = rec_a["end_to_end"][metric["name"]]
            b = rec_b["end_to_end"][metric["name"]]
            worse, status = judge_host(
                metric["better"], metric["bound"], a, b)
            rows.append((workload, metric["name"], metric["unit"], a, b,
                         worse, metric["bound"], status))
        for metric in spec.applicable(spec.MODELLED, workload):
            a = rec_a["modelled"][metric.name]
            b = rec_b["modelled"][metric.name]
            worse = worsening(metric.better, a, b)
            status = ("same" if a == b
                      else "regression" if worse > metric.bound else "ok")
            rows.append((workload, metric.name, metric.unit, a, b, worse,
                         metric.bound, status))
    return rows


def _cell(value):
    if isinstance(value, dict):
        return "%.6g (%.6g [%.6g, %.6g])" % (
            value["value"], value["median"], value["q1"], value["q3"])
    return "%.10g" % value


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: compare.py A.json B.json")
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows = compare(documents[0], documents[1], end_to_end)
    print("%-18s %-24s %-9s %-40s %-40s %9s %7s  %s" % (
        "workload", "metric", "unit", "A value (median [q1, q3])",
        "B value (median [q1, q3])", "worse by", "bound", "status"))
    for workload, name, unit, a, b, worse, bound, status in rows:
        print("%-18s %-24s %-9s %-40s %-40s %+8.2f%% %6.1f%%  %s" % (
            workload, name, unit, _cell(a), _cell(b), 100 * worse,
            100 * bound, status))
    regressions = [row for row in rows if row[-1] == "regression"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print("%d rows, %d regressions, %d unresolved"
          % (len(rows), len(regressions), len(unresolved)))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
