"""Command-line interface: run the paper's experiments from a shell.

    python -m repro fig3a --lengths 2:8 --duration 0.002
    python -m repro fig3b
    python -m repro latency --rate 1e6
    python -m repro setup-time

The figure subcommands measure through the ``paper`` benchmark family
(:mod:`repro.bench.workloads.paper`) and only render its tables here;
``python -m repro.bench --family paper`` runs all of them at the
committed sizing.  Durations are simulated seconds; larger values are
more stable and proportionally slower to simulate.
"""

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.bench.workloads import paper
from repro.metrics import format_table
from repro.obs.export import prometheus_text


#: Chain subcommand -> the DESIGN.md §4 experiment it measures.
CHAIN_COMMANDS = {"fig3a": "F3a", "fig3b": "F3b", "latency": "T-lat"}


def _parse_range(text: str) -> List[int]:
    """``"2:8"`` -> [2..8]; ``"2,4,8"`` -> [2, 4, 8]; ``"3"`` -> [3]."""
    if ":" in text:
        start, end = text.split(":", 1)
        return list(range(int(start), int(end) + 1))
    return [int(part) for part in text.split(",")]


def _write_obs_artifacts(obs, out_dir: str) -> None:
    """Dump one experiment's observability state: Prometheus text,
    JSONL snapshots, finished traces and the rendered report."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.prom"), "w") as handle:
        handle.write(prometheus_text(obs.registry))
    with open(os.path.join(out_dir, "snapshots.jsonl"), "w") as handle:
        handle.write(obs.snapshotter.to_jsonl())
    with open(os.path.join(out_dir, "traces.jsonl"), "w") as handle:
        for trace in obs.tracer.finished:
            handle.write(json.dumps(trace.as_dict()) + "\n")
    with open(os.path.join(out_dir, "report.txt"), "w") as handle:
        handle.write(obs.report() + "\n")


def _emit_obs(args: argparse.Namespace, experiment) -> None:
    obs = experiment.obs if experiment is not None else None
    if obs is None:
        return
    if getattr(args, "obs_out", None):
        obs.snapshot_now()
        _write_obs_artifacts(obs, args.obs_out)
        print("observability artifacts written to %s" % args.obs_out,
              file=sys.stderr)
    if getattr(args, "obs_report", False):
        print(obs.report())


def _chain_kwargs(args: argparse.Namespace) -> dict:
    """The ChainExperiment kwargs the chain subcommands share."""
    return dict(
        duration=args.duration,
        frame_size=args.frame_size,
        trace_sample=args.trace_sample,
        snapshot_period=args.snapshot_period,
        megaflow_enabled=args.megaflow,
    )


def _print_table(name: str, payload) -> None:
    print(format_table(*paper.table(name, payload)))


def cmd_chain(args: argparse.Namespace, name: str) -> int:
    """fig3a / fig3b / latency: one of the paper family's chain sweeps
    over ``--lengths``, rendered as that experiment's table."""
    last_experiment = None

    def on_run(experiment):
        nonlocal last_experiment
        last_experiment = experiment
        if experiment.bypass:
            print("  %d VMs done" % experiment.num_vms, file=sys.stderr)

    if name == "T-lat":
        rows = paper.latency_sweep(args.lengths, rate_pps=args.rate,
                                   on_run=on_run, **_chain_kwargs(args))
    else:
        sweep = paper.throughput_sweep if name == "F3a" else paper.nic_sweep
        rows = sweep("num_vms", args.lengths, on_run=on_run,
                     **_chain_kwargs(args))
    _print_table(name, rows)
    _emit_obs(args, last_experiment)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the SIGCOMM'16 transparent-highway "
                    "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lengths_default):
        p.add_argument("--lengths", type=_parse_range,
                       default=lengths_default,
                       help="chain lengths, e.g. 2:8 or 2,4,8")
        p.add_argument("--duration", type=float, default=0.002,
                       help="simulated seconds per run")
        p.add_argument("--frame-size", type=int, default=64)
        p.add_argument("--trace-sample", type=int, default=None,
                       metavar="N",
                       help="trace 1-in-N packets (default: off)")
        p.add_argument("--snapshot-period", type=float, default=None,
                       metavar="SECONDS",
                       help="periodic metrics snapshots (simulated "
                            "seconds; default: off)")
        p.add_argument("--obs-report", action="store_true",
                       help="print the observability report after the "
                            "last run")
        p.add_argument("--obs-out", default=None, metavar="DIR",
                       help="write metrics.prom / snapshots.jsonl / "
                            "traces.jsonl / report.txt for the last run")
        p.add_argument("--no-megaflow", dest="megaflow",
                       action="store_false",
                       help="ablate the megaflow cache tier")

    p3a = sub.add_parser("fig3a", help="Figure 3(a): memory-only chains")
    common(p3a, _parse_range("2:8"))
    p3b = sub.add_parser("fig3b", help="Figure 3(b): chains through NICs")
    common(p3b, _parse_range("1:8"))
    plat = sub.add_parser("latency", help="latency vs chain length")
    common(plat, _parse_range("2,4,6,8"))
    plat.add_argument("--rate", type=float, default=1e6,
                      help="offered load per direction (pps)")
    sub.add_parser("setup-time", help="bypass establishment breakdown")
    psvc = sub.add_parser("service",
                          help="the Figure-1 firewall/monitor/cache "
                               "service, highway on vs off")
    psvc.add_argument("--duration", type=float, default=0.004)
    psvc.add_argument("--rate", type=float, default=8e6)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in CHAIN_COMMANDS:
        return cmd_chain(args, CHAIN_COMMANDS[args.command])
    if args.command == "setup-time":
        _print_table("T-setup", paper.setup_time())
        return 0
    if args.command == "service":
        _print_table("A-graph",
                     paper.service_graph(args.duration, args.rate))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
