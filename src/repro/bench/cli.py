"""``python -m repro.bench``: the one modelled-clock benchmark driver.

Two modes share ``--quick``, ``--seed`` and the tier ablations
(``--no-megaflow``, ``--no-xfsm``):

* **scenarios** (``--matrix quick|full`` or ``--scenarios a,b``): run
  scenarios of the matrix, write one schema-v1 JSON document per
  scenario, append one trend line per scenario to
  ``BENCH_TRENDS.jsonl``, and optionally dump the harness's
  ``repro_bench_*`` metrics in Prometheus text format;
* **one family** (``--family F``): regenerate a committed
  ``BENCH_<family>.json`` from :mod:`repro.bench.workloads` (full
  sizing unless ``--quick``; ``--out`` to write elsewhere, ``--check``
  to exit non-zero on a failed invariant), or ``--validate`` an
  existing document against the family's schema.
"""

import argparse
import json
import os
import sys

from repro.bench import workloads
from repro.bench.scenarios import SCENARIOS, run_scenario
from repro.bench.schema import (
    TRENDS_BASENAME,
    append_trend_line,
    checks_passed,
    make_trend_line,
    validate_document,
    validate_trend_file,
)
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry


def _write_doc(path: str, doc) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _print_checks(doc) -> None:
    for check in doc["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print("  %-40s %s  (%s)" % (check["name"], status,
                                    check["detail"]))


def last_report(docs) -> str:
    """The closing summary of a scenario run: each scenario's verdict,
    sizing and sha, its headline metrics and its failed checks, in run
    order (``docs`` maps scenario name to document)."""
    lines = []
    for scenario, doc in docs.items():
        meta = doc.get("meta", {})
        lines.append("%-24s %s  (%s, sha %.12s)" % (
            scenario, "PASS" if checks_passed(doc) else "FAIL",
            "quick" if meta.get("quick") else "full",
            meta.get("git_sha", "unknown"),
        ))
        for key, value in sorted(doc.get("trend", {}).items()):
            lines.append("  %-30s %g" % (key, value))
        for check in doc.get("checks", []):
            if not check.get("passed"):
                lines.append("  FAILED %s: %s" % (
                    check.get("name"), check.get("detail")))
    return "\n".join(lines)


def _reject_ignored(parser, args, honored, selection: str) -> None:
    """A tier flag nothing selected honors would be accepted, ignored
    and produce the plain run's document under an ablation's name."""
    for tier in ("megaflow", "xfsm"):
        if not getattr(args, tier) and tier not in honored:
            parser.error("--no-%s is not honored by %s (see the flag's "
                         "help)" % (tier, selection))


def _family_main(args) -> int:
    module = workloads.get(args.family)
    if args.validate:
        with open(args.validate) as handle:
            doc = json.load(handle)
        problems = module.validate(doc)
        for problem in problems:
            print("INVALID: %s" % problem, file=sys.stderr)
        print("%s: %s" % (args.validate,
                          "invalid" if problems
                          else "valid (%s)" % module.SCHEMA))
        return 1 if problems else 0

    tiers = {tier: getattr(args, tier)
             for tier in getattr(module, "HONORS", ())}
    doc = module.run_bench(args.quick, seed=args.seed, **tiers)
    problems = module.validate(doc)
    if problems:  # the generator must always satisfy its own schema
        for problem in problems:
            print("INTERNAL SCHEMA ERROR: %s" % problem, file=sys.stderr)
        return 2
    out = args.out or module.DEFAULT_OUT
    _write_doc(out, doc)
    print("wrote %s" % out)
    _print_checks(doc)
    return 1 if args.check and not checks_passed(doc) else 0


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="run benchmark scenarios, or regenerate/validate "
                    "one family's committed artifact")
    parser.add_argument("--matrix", choices=("quick", "full"),
                        help="run every scenario in this sizing")
    parser.add_argument("--scenarios", action="append", default=[],
                        metavar="NAME[,NAME...]",
                        help="run only these scenarios (repeatable)")
    parser.add_argument("--family", choices=workloads.FAMILIES,
                        help="run one workload family and write its "
                             "BENCH_<family>.json (full sizing unless "
                             "--quick)")
    parser.add_argument("--quick", action="store_true",
                        help="with --scenarios/--family: smoke sizing")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="fault/chaos seed override (default: "
                             "REPRO_FAULT_SEED, then the family's own)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="with --family: output JSON path (default: "
                             "BENCH_<family>.json)")
    parser.add_argument("--check", action="store_true",
                        help="with --family: exit non-zero if an "
                             "invariant fails")
    parser.add_argument("--validate", metavar="PATH",
                        help="with --family: schema-check an existing "
                             "document and exit")
    parser.add_argument("--out-dir", default=".",
                        help="directory for per-scenario JSON documents "
                             "(default: %(default)s)")
    parser.add_argument("--trends", default=None, metavar="PATH",
                        help="trend file to append to (default: "
                             "<out-dir>/%s)" % TRENDS_BASENAME)
    parser.add_argument("--no-trends", action="store_true",
                        help="do not append trend lines")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="also write the harness registry in "
                             "Prometheus text format")
    parser.add_argument("--no-megaflow", dest="megaflow",
                        action="store_false",
                        help="ablate the megaflow cache tier in the "
                             "scenarios that honor it (rule_scale)")
    parser.add_argument("--no-xfsm", dest="xfsm", action="store_false",
                        help="ablate the XFSM tier in the scenarios "
                             "that honor it (stateful_churn, syn_flood) "
                             "and in --family state")
    args = parser.parse_args(argv)

    if args.list:
        for scenario in SCENARIOS.values():
            print("%-24s [%s] %s" % (scenario.name, scenario.family,
                                     scenario.title))
        return 0

    names = []
    for chunk in args.scenarios:
        names.extend(name.strip() for name in chunk.split(",")
                     if name.strip())
    # A scenario named twice runs once: a rerun repeats its document to
    # the byte, and its harnesses would export each series twice.
    names = list(dict.fromkeys(names))
    if sum(map(bool, (args.matrix, names, args.family))) > 1:
        parser.error("--matrix, --scenarios and --family are mutually "
                     "exclusive")
    if args.family:
        _reject_ignored(parser, args,
                        getattr(workloads.get(args.family), "HONORS", ()),
                        "--family %s" % args.family)
        ablated = not (args.megaflow and args.xfsm)
        if ablated and not (args.out or args.validate):
            parser.error("--no-xfsm/--no-megaflow make --family %s a "
                         "control run: give --out (the default is the "
                         "committed artifact)" % args.family)
        return _family_main(args)
    if args.out or args.check or args.validate:
        parser.error("--out/--check/--validate go with --family")
    if not args.matrix and not names:
        parser.error("pick --matrix quick|full, --scenarios ..., "
                     "--family ..., or --list")
    if args.matrix:
        names = list(SCENARIOS)
        quick = args.matrix == "quick"
    else:
        quick = args.quick
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        parser.error("unknown scenario(s): %s (see --list)"
                     % ", ".join(unknown))
    _reject_ignored(parser, args,
                    {tier for name in names
                     for tier in SCENARIOS[name].honors},
                    "the selected scenarios")

    os.makedirs(args.out_dir, exist_ok=True)
    trends_path = args.trends or os.path.join(args.out_dir,
                                              TRENDS_BASENAME)
    registry = MetricsRegistry()
    docs = {}
    failures = 0
    for index, name in enumerate(names, 1):
        scenario = SCENARIOS[name]
        print("=== [%d/%d] %s (%s) ===" % (index, len(names), name,
                                           "quick" if quick else "full"),
              file=sys.stderr)
        doc = run_scenario(name, quick=quick, seed=args.seed,
                           registry=registry, megaflow=args.megaflow,
                           xfsm=args.xfsm)
        problems = validate_document(doc)
        if problems:
            for problem in problems:
                print("INTERNAL SCHEMA ERROR [%s]: %s"
                      % (name, problem), file=sys.stderr)
            return 2
        out_path = os.path.join(args.out_dir,
                                "BENCH_scenario_%s.json" % name)
        _write_doc(out_path, doc)
        docs[name] = doc
        passed = checks_passed(doc)
        if not passed:
            failures += 1
        print("wrote %s" % out_path)
        _print_checks(doc)
        if not args.no_trends:
            append_trend_line(trends_path, make_trend_line(
                name, scenario.family, doc.get("trend", {}),
                doc["meta"], passed,
            ))
    if not args.no_trends:
        problems = validate_trend_file(trends_path)
        if problems:
            for problem in problems:
                print("TREND FILE ERROR: %s" % problem, file=sys.stderr)
            return 2
        print("appended %d trend line(s) to %s" % (len(names),
                                                   trends_path))
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(prometheus_text(registry))
        print("wrote %s" % args.metrics_out)
    print(last_report(docs))
    return 1 if failures else 0
