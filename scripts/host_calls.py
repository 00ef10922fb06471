#!/usr/bin/env python
"""Host cost as a count: Python-level calls per delivered packet.

Timing the simulator needs a quiet machine; counting what it executes
does not.  ``cProfile`` sees every Python function call and every
builtin call, the simulator is deterministic and single-threaded, so the
total repeats exactly from run to run, across ``PYTHONHASHSEED``s and
across machines — a change that moves it moved the host cost, and one
that leaves it alone probably did not.  This script runs one perfbench
workload (``perfbench/adapter.py``, imported, not edited), profiles its
measured phase — from the moment the workload says its set-up is done
to the end of ``measure()`` — and prints the count per delivered
packet.  It also prints the set-up phase, from ``setup()`` to that
moment: its calls and the ``Mbuf`` descriptors it built.  A second,
unprofiled pass builds the workload again under ``tracemalloc`` and
prints the peak of Python-allocated memory over construction, set-up
and measurement: like the count, it repeats exactly on any machine with
the same Python, where the process's peak RSS does not.

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
import tracemalloc

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


def phase_stats(workload):
    """Set ``workload`` up and measure it under two profilers: one from
    ``setup()`` to its ``_setup_done()`` — where perfbench splits set-up
    from measurement — and one from there to the end of ``measure()``.
    Returns ``(set-up stats, measured stats)``."""
    setup, measured = cProfile.Profile(), cProfile.Profile()
    setup_done = workload._setup_done

    def setup_done_then_count():
        setup.disable()
        setup_done()
        measured.enable()

    workload._setup_done = setup_done_then_count
    setup.enable()
    try:
        workload.setup()
        workload.measure()
    finally:
        setup.disable()
        measured.disable()
    return pstats.Stats(setup), pstats.Stats(measured)


def measured_phase_calls(workload):
    """``(calls, stats)`` of the measured phase of :func:`phase_stats`."""
    _setup, stats = phase_stats(workload)
    return stats.total_calls, stats


def traced_peak_mib(make_workload):
    """Peak ``tracemalloc`` MiB over ``make_workload()`` and the set-up
    and measurement of the workload it returns."""
    tracemalloc.start()
    try:
        workload = make_workload()
        workload.setup()
        workload.measure()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1 << 20)


def mbufs_built(stats):
    """``Mbuf`` constructions counted in ``stats``."""
    return sum(row[1] for (filename, _line, name), row in stats.stats.items()
               if name == "__init__"
               and filename.endswith(os.path.join("packet", "mbuf.py")))


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
    make = adapter.WORKLOADS[args.workload]
    workload = make(args.seed, args.quick)
    setup, stats = phase_stats(workload)
    calls = stats.total_calls
    delivered = workload.collect()["delivered"]
    label = "%s seed %d%s" % (args.workload, args.seed,
                              " --quick" if args.quick else "")
    print("%s set-up: %d calls, %d Mbufs built"
          % (label, setup.total_calls, mbufs_built(setup)))
    print("%s: %d calls / %d delivered packets = %.2f calls/pkt"
          % (label, calls, delivered, calls / delivered))
    if args.top:
        rows = sorted(stats.stats.items(), key=lambda item: -item[1][1])
        for (filename, line, name), row in rows[:args.top]:
            print("  %10d  %7.2f/pkt  %s:%d %s" % (
                row[1], row[1] / delivered, os.path.basename(filename),
                line, name))
    # The adapter keeps one copy of switch_miss_churn's packets per
    # process; the traced pass builds its own, as a perfbench run does.
    adapter._churn_packets.cache_clear()
    peak = traced_peak_mib(lambda: make(args.seed, args.quick))
    print("%s traced peak: %.2f MiB (construction, set-up and measure)"
          % (label, peak))
    return 0


if __name__ == "__main__":
    sys.exit(main())
