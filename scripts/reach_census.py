#!/usr/bin/env python
"""Reach census: function lines of ``src/repro`` that no production
driver calls and, given a recorded test run, that only the tests call.

    python scripts/reach_census.py [reach_tests.json]

runs the quick DRIVERS in this process under a ``sys.setprofile`` call
hook, lists every function no driver reached, then the line counts per
module.  ``reach_tests.json`` comes from ``reach_census_plugin.py``.
"""

import ast
import collections
import contextlib
import io
import json
import os
import pathlib
import runpy
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
REACHED = set()   # (path under src/repro, first line of the code object)
DRIVERS = """
-m repro.bench --quick --family {family} --out {tmp}/f.json
-m repro.bench --matrix quick --out-dir {tmp} --no-trends --metrics-out {tmp}/m
-m repro.bench --quick --scenarios rule_scale --no-megaflow --out-dir {tmp}
-m repro.bench --quick --scenarios syn_flood --no-xfsm --out-dir {tmp}
-m repro.bench --quick --family state --no-xfsm --out {tmp}/x.json
-m repro {figure} --lengths 2 --duration 0.002 --trace-sample 64 {obs} {tmp}
-m repro setup-time
-m repro service
examples/{example}
perfbench/run.py --quick --reps 1 --workload {workload} --trace 0
perfbench/run.py --quick --reps 1 --workload {workload} --trace 1
scripts/render_experiments.py --check
scripts/validate_obs_artifacts.py {tmp} --bench {tmp}/f.json
scripts/bench_gate.py --trends BENCH_TRENDS.jsonl --current BENCH_TRENDS.jsonl
"""
AXES = {
    "family": "fastpath sched overload chaos state paper".split(),
    "figure": "fig3a fig3b latency".split(),
    "example": sorted(name for name in os.listdir(ROOT + "/examples")
                      if name.endswith(".py")),
    "workload": "vanilla_sat bypass_sat handover_load switch_miss_churn"
                .split(),
}


def profile(frame, event, _arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(SRC):
        REACHED.add((code.co_filename[len(SRC):], code.co_firstlineno))


def run_drivers(tmp):
    obs = "--snapshot-period 0.0005 --obs-report --obs-out"
    for line in DRIVERS.strip().splitlines():
        axis = next((a for a in AXES if "{%s}" % a in line), "tmp")
        for value in AXES.get(axis, [tmp]):
            argv = shlex.split(line.format(**{"tmp": tmp, "obs": obs,
                                              axis: value}))
            print("census: " + " ".join(argv), file=sys.stderr)
            as_module = argv[0] == "-m"
            sys.argv = argv[1:] if as_module else argv
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    (runpy.run_module if as_module else runpy.run_path)(
                        sys.argv[0], run_name="__main__")
            except SystemExit as done:
                if done.code:
                    print("census: exit %r" % (done.code,), file=sys.stderr)
            finally:
                sys.setprofile(None)


def functions():
    """``(path, first line, last line, name)`` of every function, a
    nested one after the function around it."""
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        yield from sorted(
            (str(path)[len(SRC):],
             min([n.lineno] + [d.lineno for d in n.decorator_list]),
             n.end_lineno, n.name)
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def main(tests_json=None):
    os.chdir(ROOT)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    with tempfile.TemporaryDirectory() as tmp:
        run_drivers(tmp)
    tested = set()
    if tests_json:
        with open(tests_json) as handle:
            tested = set(map(tuple, json.load(handle)))
    kinds = ("driven", "tests-only", "nothing")
    owner = {}   # (path, line) -> index into kinds, innermost function's
    for path, first, last, name in functions():
        kind = (0 if (path, first) in REACHED
                else 1 if (path, first) in tested else 2)
        owner.update(((path, line), kind) for line in range(first, last + 1))
        if kind:
            print("%-10s %s:%d %s" % (kinds[kind], path, first, name))
    count = collections.Counter((path, kind)
                                for (path, _line), kind in owner.items())
    count.update(("src/repro", kind) for kind in owner.values())
    print("%-32s %8s %10s %8s" % (("module",) + kinds))
    for path in sorted({path for path, _kind in count}):
        if count[path, 1] or count[path, 2]:
            print("%-32s %8d %10d %8d"
                  % (path, count[path, 0], count[path, 1], count[path, 2]))


if __name__ == "__main__":
    main(*sys.argv[1:2])
