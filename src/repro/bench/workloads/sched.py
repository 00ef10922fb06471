"""PMD scheduler benchmark family: static hash vs measured-load
rebalancing (``python -m repro.bench --family sched``).

One vSwitch, four PMD cores, eight receive ports carrying a
Zipf-skewed load whose two hottest ports collide on the same core
under the static ``ofport % n_cores`` hash.  Three variants: ``static``
(the baseline hash), ``cycles`` (one manual measured-load rebalance
after warmup) and ``auto_lb`` (the auto load balancer detects the
overload live).  Family tag ``repro-bench-sched/1``; the committed
``BENCH_sched.json`` is a full run.
"""

import sys

from repro.bench.workloads import (
    attach_checks,
    missing_keys,
    new_doc,
    resolve_seed,
)
from repro.bench.schema import validate_document
from repro.dpdk.dpdkr import DpdkrPmd
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.sched.autolb import AutoLbPolicy
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp
from repro.traffic.profiles import hot_port_rates, uniform_profile
from repro.traffic.sink import SinkApp
from repro.vswitch.vswitchd import VSwitchd

FAMILY = "sched"
SCHEMA = "repro-bench-sched/1"
GENERATOR = "python -m repro.bench --family sched"
DEFAULT_OUT = "BENCH_sched.json"
DEFAULT_SEED = None

N_CORES = 4
N_PORTS = 8
# Receive ofports chosen adversarially: the two hottest ports (rates[0]
# and rates[1] below land on ofports 1 and 5) are congruent mod 4, so
# the static hash stacks them on the same PMD core.
RX_OFPORTS = (1, 5, 2, 3, 4, 6, 7, 8)
ZIPF_EXPONENT = 1.0


def build_switch(env, auto_lb_interval=None):
    switch = VSwitchd(
        env=env, n_pmd_cores=N_CORES, name="bench-sched",
        auto_lb_policy=(
            AutoLbPolicy(rebalance_interval=auto_lb_interval)
            if auto_lb_interval is not None else None
        ),
    )
    rx_ports, tx_ports = [], []
    for index, ofport in enumerate(RX_OFPORTS):
        rx_ports.append(switch.add_dpdkr_port(
            "rx%d" % index, ofport=ofport))
    for index in range(N_PORTS):
        tx_ports.append(switch.add_dpdkr_port(
            "out%d" % index, ofport=100 + index))
    for rx, tx in zip(rx_ports, tx_ports):
        switch.bridge.table.add(FlowEntry(
            Match(in_port=rx.ofport), [OutputAction(tx.ofport)],
            priority=10,
        ))
    return switch, rx_ports, tx_ports


def run_variant(variant, total_pps, duration, warmup):
    """One full run; returns the measured numbers for one variant."""
    env = Environment()
    auto_lb_interval = warmup / 4 if variant == "auto_lb" else None
    switch, rx_ports, tx_ports = build_switch(env, auto_lb_interval)
    profile = uniform_profile(64, flows=4)
    rates = hot_port_rates(total_pps, N_PORTS, ZIPF_EXPONENT)
    sources, sinks = [], []
    for index, (rx, rate) in enumerate(zip(rx_ports, rates)):
        pmd = DpdkrPmd(index, rx.rings)
        sources.append(SourceApp(
            "src%d" % index, pmd, profile=profile, rate_pps=rate,
        ))
    for index, tx in enumerate(tx_ports):
        pmd = DpdkrPmd(100 + index, tx.rings)
        sinks.append(SinkApp("sink%d" % index, pmd,
                             record_latency=False))
    switch.start()
    for app in sources + sinks:
        app.start(env)
    if variant == "auto_lb":
        # Ports were placed by the static hash (the adversarial start);
        # from here on the balancer re-plans with measured cycles.
        switch.set_rxq_assign("cycles")
    env.run(until=warmup)
    if variant == "cycles":
        switch.set_rxq_assign("cycles")
        switch.rebalance()
    switch.reset_pmd_accounting()
    received_mark = [sink.received for sink in sinks]
    env.run(until=warmup + duration)
    delivered = sum(sink.received - mark
                    for sink, mark in zip(sinks, received_mark))
    scheduler = switch.scheduler
    core_busy = [round(loop.utilization, 4)
                 for loop in switch._pmd_loops]
    out = {
        "variant": variant,
        "offered_pps": round(total_pps, 1),
        "delivered": delivered,
        "throughput_mpps": round(delivered / duration / 1e6, 4),
        "core_busy": core_busy,
        "rebalances": scheduler.rebalances,
        "port_moves": scheduler.port_moves,
        "assignment": {
            str(core): [port.name for port in ports]
            for core, ports in enumerate(scheduler.core_ports)
        },
    }
    if switch.auto_lb is not None:
        out["auto_lb_checks"] = switch.auto_lb.checks_run
        out["auto_lb_applied"] = switch.auto_lb.rebalances_applied
    switch.stop()
    for app in sources + sinks:
        app.stop()
    return out


# -- checks -------------------------------------------------------------------


def run_checks(doc):
    """The scheduler invariants; each returns (name, passed, detail)."""
    workloads = doc["workloads"]
    static = workloads["static"]["throughput_mpps"]
    cycles = workloads["cycles"]["throughput_mpps"]
    auto_lb = workloads["auto_lb"]["throughput_mpps"]
    return [
        ("cycles_beats_static_hash", cycles > static,
         "%.4f > %.4f Mpps" % (cycles, static)),
        ("auto_lb_beats_static_hash", auto_lb > static,
         "%.4f > %.4f Mpps" % (auto_lb, static)),
        ("cycles_rebalance_moved_ports",
         workloads["cycles"]["port_moves"] > 0,
         "%d port move(s)" % workloads["cycles"]["port_moves"]),
        ("auto_lb_applied_a_rebalance",
         workloads["auto_lb"]["auto_lb_applied"] >= 1,
         "%d rebalance(s) applied"
         % workloads["auto_lb"]["auto_lb_applied"]),
        ("static_left_alone",
         workloads["static"]["port_moves"] == 0,
         "%d port move(s)" % workloads["static"]["port_moves"]),
    ]


# -- schema -------------------------------------------------------------------

REQUIRED_VARIANT_KEYS = {
    "variant", "offered_pps", "delivered", "throughput_mpps",
    "core_busy", "rebalances", "port_moves", "assignment",
}


def validate(doc):
    """Structural schema check; returns a list of problems (empty = ok)."""
    problems = validate_document(doc, family=FAMILY)
    workloads = doc.get("workloads", {})
    for name in ("static", "cycles", "auto_lb"):
        variant = workloads.get(name)
        if variant is None:
            problems.append("missing workload %s" % name)
            continue
        missing = missing_keys(variant, REQUIRED_VARIANT_KEYS)
        if missing:
            problems.append("%s missing %s" % (name, missing))
        if name == "auto_lb" and "auto_lb_applied" not in variant:
            problems.append("auto_lb missing auto_lb_applied")
    return problems


# -- trends -------------------------------------------------------------------


def trend_metrics(doc):
    workloads = doc["workloads"]
    return {
        "static_mpps": workloads["static"]["throughput_mpps"],
        "cycles_mpps": workloads["cycles"]["throughput_mpps"],
        "auto_lb_mpps": workloads["auto_lb"]["throughput_mpps"],
        # Informational rebalance count; named without the "cycles"
        # unit token so the gate treats it as neutral, not a cost.
        "rxq_port_moves": workloads["cycles"]["port_moves"],
    }


# -- driver -------------------------------------------------------------------


def run_bench(quick, seed=None):
    duration = 0.01 if quick else 0.04
    warmup = 0.008 if quick else 0.016
    # Tuned so the two colliding hot ports saturate one core under the
    # static hash while the spread layout keeps every core below
    # capacity: the delta between variants is pure scheduling.
    total_pps = 2.0e7
    doc = new_doc(FAMILY, GENERATOR, quick, resolve_seed(seed), {
        "quick": quick,
        "n_pmd_cores": N_CORES,
        "n_rx_ports": N_PORTS,
        "rx_ofports": list(RX_OFPORTS),
        "zipf_exponent": ZIPF_EXPONENT,
        "offered_pps_total": total_pps,
        "duration_s": duration,
        "warmup_s": warmup,
    })
    doc["workloads"] = {}
    for step, variant in enumerate(("static", "cycles", "auto_lb"), 1):
        print("[%d/3] %s..." % (step, variant), file=sys.stderr)
        doc["workloads"][variant] = run_variant(
            variant, total_pps, duration, warmup)
    return attach_checks(doc, run_checks(doc))
