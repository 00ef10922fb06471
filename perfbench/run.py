#!/usr/bin/env python3
"""Run the benchmark: every metric by name with its unit, checks included.

Two ways in, one measurement:

* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line, the
  result object the benchmark driver reads (``BENCHMARK.json``).
* ``python3 perfbench/run.py [--seed N] [--workloads a,b] [--reps N]
  [--quick] [--traced] [--out FILE]`` runs each workload that way in a
  fresh interpreter, one at a time, prints the full tables (medians,
  quartiles, modelled-clock values, checks, layers) and exits non-zero if
  a check fails.

See README.md for what the numbers mean.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:
    # Run as a script: import through the package, so that trace.py
    # never shadows the standard library's module of the same name.
    sys.path[0] = ROOT

from perfbench import spec  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

RECORD_PREFIX = "perfbench-record "
MIN_REPS = 3   # handover_load's repetitions take 8 s each


def source_dir():
    """``src/`` beside ``perfbench/``, or exit: nothing to measure."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit("perfbench: no src/repro beside perfbench/: "
                         "nothing to measure")
    return src


def load_adapter():
    """Import the one module that needs the program's source."""
    src = source_dir()
    if src not in sys.path:
        sys.path.insert(1, src)
    from perfbench import adapter
    return adapter


# -- one repetition ------------------------------------------------------------


def run_rep(adapter, cls, seed, quick, tracer=None):
    """Build, set up and measure one workload instance; returns what it
    collected plus the host times of the two phases."""
    gc.collect()
    workload = cls(seed, quick)
    polls = adapter.install_trace(tracer) if tracer is not None else None
    try:
        start = adapter.now()
        workload.setup()
        workload.measure()
        end = adapter.now()
    finally:
        if tracer is not None:
            tracer.restore()
    split = workload.setup_done_at
    rep = workload.collect()
    rep["failed"] = (rep["accepted"] - rep["delivered"]
                     - rep["policy_dropped"])
    rep["modelled"]["failed_share"] = rep["failed"] / rep["accepted"]
    rep["checks"]["conservation"] = rep["failed"] == 0
    rep["setup_cpu_s"] = split[0] - start[0]
    rep["setup_wall_s"] = split[1] - start[1]
    rep["measured_cpu_s"] = end[0] - split[0]
    rep["measured_wall_s"] = end[1] - split[1]
    rep["polls"] = polls
    return rep


def spread(values):
    """The run's value for a host-clock metric — the best (lowest) of its
    repetitions — with their median and quartiles as
    ``statistics.quantiles(n=4)`` gives them.

    The best, not the median: the simulator is deterministic and
    single-threaded, so everything above its floor is the shared
    sandbox's contention, which comes in bursts that outlast several
    repetitions.  Over ten runs the best spreads 1-8 %, the median 5-25 %.
    """
    values = list(values)
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "values": values}


# -- the end-to-end run (no tracing) ---------------------------------------------


def run_end_to_end(adapter, cls, seed, quick, seconds, reps):
    """Repeat the workload for ``seconds`` of measured phase and at
    least ``MIN_REPS`` times (or exactly ``reps`` times)."""
    done = []
    measured = 0.0
    while len(done) < (reps or MIN_REPS) or (not reps
                                             and measured < seconds):
        done.append(run_rep(adapter, cls, seed, quick))
        measured += done[-1]["measured_wall_s"]
    checks = {}
    for rep in done:
        for name, passed in rep["checks"].items():
            checks[name] = checks.get(name, True) and passed
    # The modelled clock is deterministic: same inputs, same numbers.
    checks["modelled_identical"] = all(
        rep["modelled"] == done[0]["modelled"] for rep in done)
    end_to_end = {
        "host_us_per_pkt": spread(
            1e6 * rep["measured_cpu_s"] / rep["delivered"] for rep in done),
        "setup_s": spread(rep["setup_cpu_s"] for rep in done),
        # Linux reports ru_maxrss in KiB.
        "host_peak_rss_mb": spread([resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
    }
    for metric in spec.END_TO_END:
        end_to_end[metric.name]["unit"] = metric.unit
    return {
        "reps": len(done),
        "attempted": sum(rep["accepted"] for rep in done),
        "failed": sum(rep["failed"] for rep in done),
        "checks": checks,
        "end_to_end": end_to_end,
        "wall": {
            "setup_wall_s": spread(rep["setup_wall_s"] for rep in done),
            "measured_wall_s": spread(
                rep["measured_wall_s"] for rep in done),
        },
        "modelled": done[0]["modelled"],
        "notes": done[0]["notes"],
    }


# -- the traced run ------------------------------------------------------------------


def run_traced(adapter, cls, seed, quick, spans_path=None):
    """One plain repetition, then one with the timing wrappers installed:
    the second gives the per-layer numbers, the pair gives the overhead."""
    plain = run_rep(adapter, cls, seed, quick)
    tracer = Tracer()
    traced = run_rep(adapter, cls, seed, quick, tracer=tracer)
    layers, names = tracer.summary()
    values = dict(traced["modelled"])
    values.update(traced["layers"])
    values.update(adapter.traced_layers(
        layers, names, traced["polls"], traced["delivered"]))
    for layer in spec.TRACED_LAYERS:
        values[layer + ".self_s"] = layers.get(layer, {}).get("self_s", 0.0)
    covered = sum(row["self_s"] for row in layers.values())
    total = traced["setup_wall_s"] + traced["measured_wall_s"]
    values["trace.coverage"] = covered / total
    values["trace.other_s"] = total - covered
    values["trace.overhead_ratio"] = (
        traced["measured_cpu_s"] / plain["measured_cpu_s"])
    checks = dict(traced["checks"])
    checks["tracing_changes_host_time_only"] = (
        traced["modelled"] == plain["modelled"])
    checks["self_time_within_total"] = covered <= total
    if spans_path:
        tracer.write_jsonl(spans_path)
    return {
        "attempted": traced["accepted"],
        "failed": traced["failed"],
        "checks": checks,
        "per_layer": values,
        "trace": {"total_s": total, "root_spans": tracer.roots,
                  "spans_kept": len(tracer.spans)},
    }


# -- one workload in this process (what the driver calls) ------------------------------


def driver_metrics(metrics, values, workload):
    """``{name: {value, unit}}`` for every metric of ``metrics``; one the
    workload cannot produce reads 0 here (README: applicability)."""
    return {
        m.name: {"value": values[m.name] if workload in m.on else 0,
                 "unit": m.unit}
        for m in metrics
    }


def run_one(args):
    adapter = load_adapter()
    cls = adapter.WORKLOADS[args.workload]
    if args.trace:
        record = run_traced(adapter, cls, args.seed, args.quick, args.spans)
        metrics = driver_metrics(spec.PER_LAYER, record["per_layer"],
                                 args.workload)
    else:
        record = run_end_to_end(adapter, cls, args.seed, args.quick,
                                args.seconds, args.reps)
        metrics = driver_metrics(
            spec.END_TO_END,
            {name: row["value"]
             for name, row in record["end_to_end"].items()},
            args.workload)
    record["workload"] = args.workload
    record["sizes"] = cls.sizes["quick" if args.quick else "full"]
    correct = all(record["checks"].values())
    for name, passed in sorted(record["checks"].items()):
        print("check %-32s %s" % (name, "ok" if passed else "FAILED"))
    for name, metric in metrics.items():
        print("%-42s %-16.10g %s" % (name, metric["value"], metric["unit"]))
    if args.record:
        print(RECORD_PREFIX + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- every workload, each in a fresh interpreter ----------------------------------------


def child_record(args, workload, trace, spans=None):
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--record"]
    if args.quick:
        command.append("--quick")
    if args.reps:
        command += ["--reps", str(args.reps)]
    if spans:
        command += ["--spans", spans]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(RECORD_PREFIX):
            return json.loads(line[len(RECORD_PREFIX):])
    raise SystemExit("perfbench: %s (trace %d) exited %d without a record"
                     % (workload, trace, done.returncode))


def print_record(record):
    workload = record["workload"]
    loop = next(w.loop for w in spec.WORKLOADS if w.name == workload)
    print("== %s (%s; %d reps, sizes %s)" % (
        workload, loop, record["reps"], json.dumps(record["sizes"])))
    rows = dict(record["end_to_end"], **record["wall"])
    for name, row in rows.items():
        print("  %-40s %-14.6g %-8s median %.6g q1 %.6g q3 %.6g" % (
            name, row["value"], row.get("unit", "s"), row["median"],
            row["q1"], row["q3"]))
    for metric in spec.applicable(spec.MODELLED, workload):
        print("  %-40s %-14.10g %s" % (
            metric.name, record["modelled"][metric.name], metric.unit))
    for name, value in sorted(record["notes"].items()):
        print("  note %-35s %g" % (name, value))
    if "per_layer" in record:
        print("  -- layers (one traced repetition, %.3f s, %d root spans)"
              % (record["trace"]["total_s"], record["trace"]["root_spans"]))
        for metric in spec.applicable(spec.LAYERS, workload):
            print("  %-40s %-14.6g %s" % (
                metric.name, record["per_layer"][metric.name], metric.unit))
    for name, passed in sorted(record["checks"].items()):
        if not passed:
            print("  CHECK FAILED: %s" % name)


def run_all(args):
    names = (args.workloads.split(",") if args.workloads
             else list(spec.WORKLOAD_NAMES))
    unknown = sorted(set(names) - set(spec.WORKLOAD_NAMES))
    if unknown:
        raise SystemExit("perfbench: unknown workloads %s" % unknown)
    source_dir()   # fail here, once, if there is nothing to measure
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else None
    document = {"schema": "perfbench/1", "seed": args.seed,
                "quick": args.quick, "seconds": args.seconds,
                "workloads": {}}
    correct = True
    for name in names:
        record = child_record(args, name, 0)
        if args.traced:
            spans = (os.path.join(out_dir, "trace_%s.jsonl" % name)
                     if out_dir else None)
            traced = child_record(args, name, 1, spans)
            record["per_layer"] = {
                m.name: traced["per_layer"][m.name]
                for m in spec.applicable(spec.PER_LAYER, name)}
            record["trace"] = traced["trace"]
            record["checks"].update(traced["checks"])
        print_record(record)
        correct = correct and all(record["checks"].values())
        document["workloads"][name] = record
    if args.out:
        with open(args.out, "w") as out:
            json.dump(document, out, indent=1, sort_keys=True)
            out.write("\n")
    print("all checks passed" if correct else "CHECKS FAILED")
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="builds the inputs (flows, packet sequence)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured-phase seconds per workload")
    parser.add_argument("--reps", type=int, default=0,
                        help="exactly this many repetitions instead")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition, durations / 4")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--traced", action="store_true",
                        help="add the per-layer traced run")
    parser.add_argument("--out", help="write the full result document")
    single = parser.add_argument_group("one workload, in this process")
    single.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single.add_argument("--record", action="store_true",
                        help="also print the full record (for run_all)")
    single.add_argument("--spans", help="write the kept span trees here")
    args = parser.parse_args(argv)
    if args.quick and not args.reps:
        args.reps = 1
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
