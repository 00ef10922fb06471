#!/usr/bin/env python
"""Host cost as a count: Python-level calls per delivered packet.

Timing the simulator needs a quiet machine; counting what it executes
does not.  ``cProfile`` sees every Python function call and every
builtin call, the simulator is deterministic and single-threaded, so the
total repeats exactly from run to run, across ``PYTHONHASHSEED``s and
across machines — a change that moves it moved the host cost, and one
that leaves it alone probably did not.  This script runs one perfbench
workload (``perfbench/adapter.py``, imported, not edited), profiles its
measured phase only — from the moment the workload says its set-up is
done to the end of ``measure()`` — and prints the count.

Usage::

    python scripts/host_calls.py handover_load [--quick] [--seed N] [--top N]

``count_calls(fn)`` is the counter itself; the tier-1 ceiling test
(``tests/test_host_calls.py``) runs the golden scenario under it.
"""

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_calls(fn):
    """Run ``fn()`` under ``cProfile``; returns ``(total calls, stats)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return stats.total_calls, stats


def measured_phase_calls(workload):
    """Set ``workload`` up and measure it, counting calls from its
    ``_setup_done()`` — where perfbench splits set-up from measurement —
    to the end of ``measure()``."""
    profiler = cProfile.Profile()
    setup_done = workload._setup_done

    def setup_done_then_count():
        setup_done()
        profiler.enable()

    workload._setup_done = setup_done_then_count
    try:
        workload.setup()
        workload.measure()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return stats.total_calls, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=0,
                        help="also print the N most-called functions")
    args = parser.parse_args(argv)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import adapter

    if args.workload not in adapter.WORKLOADS:
        parser.error("unknown workload %r (one of %s)" % (
            args.workload, ", ".join(sorted(adapter.WORKLOADS))))
    workload = adapter.WORKLOADS[args.workload](args.seed, args.quick)
    calls, stats = measured_phase_calls(workload)
    delivered = workload.collect()["delivered"]
    print("%s seed %d%s: %d calls / %d delivered packets = %.2f calls/pkt"
          % (args.workload, args.seed, " --quick" if args.quick else "",
             calls, delivered, calls / delivered))
    if args.top:
        rows = sorted(stats.stats.items(), key=lambda item: -item[1][1])
        for (filename, line, name), row in rows[:args.top]:
            print("  %10d  %7.2f/pkt  %s:%d %s" % (
                row[1], row[1] / delivered, os.path.basename(filename),
                line, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
