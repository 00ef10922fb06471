"""What the benchmark measures, as data: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is ``benchmark_json()`` written
out (``python3 perfbench/spec.py`` prints it; a test keeps the two
equal).  That file has a fixed key set, so what it cannot say — which
workload can produce which metric, and the bounds of the modelled-clock
metrics — lives here and is what ``run.py`` and ``compare.py`` read.

Two clocks (see README.md): ``host_*``/``setup_s``/``*.self_s`` are host
CPU seconds of the Python simulator; ``sim_*`` and every unit starting
with ``sim_`` are on the modelled ``CostModel`` clock and repeat exactly.
"""

import json
from typing import FrozenSet, List, NamedTuple, Optional

RUN_SECONDS = 10

VANILLA, BYPASS, HANDOVER, CHURN = (
    "vanilla_sat", "bypass_sat", "handover_load", "switch_miss_churn",
)


class Workload(NamedTuple):
    name: str
    loop: str   # open or closed loop, with its rate (README repeats it)
    why: str


WORKLOADS = (
    Workload(
        VANILLA, "closed: 2 saturating sources, ring back-pressure",
        "3-VM chain, every hop through vswitch.datapath on an EMC hit at "
        "saturation: vswitch, mem.ring and mem.mempool do the work "
        "(Fig. 3a traditional curve)",
    ),
    Workload(
        BYPASS, "closed: 2 saturating sources, ring back-pressure",
        "same chain on 4 bypass links: core.pmd, mem.ring and the guest "
        "apps work while vswitch only idle-polls, so a datapath change "
        "must show nothing here and a ring/PMD one must",
    ),
    Workload(
        HANDOVER, "open: one source at a fixed 0.5 Mpps",
        "sub-saturation stream across an ordered bypass teardown and "
        "re-establishment: control-plane writes beside data-plane reads, "
        "few packets per poll, so sim.engine and sim.pollloop dominate",
    ),
    Workload(
        CHURN, "closed: next burst offered when the last one left",
        "engine-less switch on its miss and flowmod path: half ever-new "
        "flows and rule churn over 128 masked rules load megaflow, "
        "classifier and EMC invalidation; sim.engine does nothing",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

ALL: FrozenSet[str] = frozenset(WORKLOAD_NAMES)
ENGINE = ALL - {CHURN}              # workloads that run sim.engine
CHAINS = frozenset({VANILLA, BYPASS})
SWITCHED = ALL - {BYPASS}           # the switch forwards packets
LINKS = frozenset({BYPASS, HANDOVER})   # bypass links get established


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    on: FrozenSet[str] = ALL         # workloads that can produce it
    bound: Optional[float] = None    # allowed worsening, share of median


# Host-clock metrics every workload produces: the driver gates these.
# Bounds are three times the worst spread (quartile range over median)
# seen over ten runs on the shared 2-core sandbox, rounded up:
# host_us_per_pkt spreads 3 % on three workloads and 8 % on
# handover_load, setup_s 3 %, RSS under 1 %.  setup_s keeps the largest
# bound allowed, being the shortest measurement.
END_TO_END = (
    Metric("host_us_per_pkt", "us/pkt", "lower", bound=0.25),
    Metric("host_peak_rss_mb", "MiB", "lower", bound=0.05),
    Metric("setup_s", "s", "lower", bound=0.25),
)

# Modelled-clock end-to-end metrics.  They repeat exactly and not every
# workload has each, so BENCHMARK.json lists them with the per-layer
# metrics (no driver bound); compare.py applies the bounds below.
MODELLED = (
    Metric("sim_throughput_mpps", "sim_Mpps", "higher", bound=0.005),
    Metric("sim_latency_p50_us", "sim_us", "lower",
           frozenset({HANDOVER}), 0.005),
    Metric("sim_latency_p99_us", "sim_us", "lower",
           frozenset({HANDOVER}), 0.005),
    Metric("sim_bypass_setup_ms", "sim_ms", "lower", LINKS, 0.005),
    Metric("sim_bypass_teardown_ms", "sim_ms", "lower",
           frozenset({HANDOVER}), 0.005),
    Metric("poll_iters_per_pkt", "count", "lower", ENGINE, 0.01),
    Metric("failed_share", "ratio", "lower", bound=0.0),
)

# Per-layer metrics, named <module>.<metric>.  Counts come from public
# counters or the traced run's span counts; self_s is host self time.
LAYERS = (
    Metric("sim.engine.events", "count", "lower", ENGINE),
    Metric("sim.engine.events_per_pkt", "count", "lower", ENGINE),
    Metric("sim.engine.self_s", "s", "lower", ENGINE),
    Metric("sim.pollloop.iterations", "count", "lower", ENGINE),
    Metric("sim.pollloop.idle_iterations", "count", "lower", ENGINE),
    Metric("sim.pollloop.idle_share", "ratio", "lower", ENGINE),
    Metric("sim.pollloop.busy_sim_s", "sim_s", "lower", ENGINE),
    Metric("sim.pollloop.idle_sim_s", "sim_s", "lower", ENGINE),
    Metric("vswitch.datapath.calls", "count", "lower"),
    Metric("vswitch.datapath.packets", "count", "higher", SWITCHED),
    Metric("vswitch.datapath.self_s", "s", "lower"),
    Metric("vswitch.datapath.total_s", "s", "lower"),
    Metric("vswitch.datapath.sim_cycles_per_pkt", "cycles/pkt", "lower",
           SWITCHED),
    Metric("vswitch.datapath.batch_fill", "pkts", "higher", SWITCHED),
    Metric("vswitch.datapath.upcall_share", "ratio", "lower", SWITCHED),
    Metric("vswitch.emc.lookups", "count", "lower", SWITCHED),
    Metric("vswitch.emc.hit_rate", "ratio", "higher", SWITCHED),
    Metric("vswitch.emc.invalidations", "count", "lower", SWITCHED),
    Metric("vswitch.emc.self_s", "s", "lower", SWITCHED),
    Metric("vswitch.smc.hit_rate", "ratio", "higher",
           frozenset({VANILLA, HANDOVER})),
    Metric("vswitch.smc.self_s", "s", "lower",
           frozenset({VANILLA, HANDOVER})),
    Metric("vswitch.megaflow.lookups", "count", "lower", SWITCHED),
    Metric("vswitch.megaflow.hit_rate", "ratio", "higher", SWITCHED),
    Metric("vswitch.megaflow.entries", "count", "lower", SWITCHED),
    Metric("vswitch.megaflow.invalidations", "count", "lower", SWITCHED),
    Metric("vswitch.megaflow.self_s", "s", "lower", SWITCHED),
    Metric("vswitch.classifier.lookups", "count", "lower", SWITCHED),
    Metric("vswitch.classifier.subtables", "count", "lower"),
    Metric("vswitch.classifier.self_s", "s", "lower"),
    Metric("openflow.table.mods", "count", "lower"),
    Metric("openflow.table.self_s", "s", "lower"),
    Metric("packet.flowkey.extractions", "count", "lower",
           frozenset({CHURN})),
    Metric("packet.flowkey.self_s", "s", "lower", frozenset({CHURN})),
    Metric("mem.ring.ops", "count", "lower"),
    Metric("mem.ring.enqueue_failures", "count", "lower"),
    Metric("mem.ring.partial_enqueues", "count", "lower"),
    Metric("mem.ring.self_s", "s", "lower"),
    Metric("mem.mempool.ops", "count", "lower", ENGINE),
    Metric("mem.mempool.self_s", "s", "lower", ENGINE),
    Metric("core.pmd.rx_calls", "count", "lower", ENGINE),
    Metric("core.pmd.tx_calls", "count", "lower", ENGINE),
    Metric("core.pmd.bypass_tx_share", "ratio", "higher", ENGINE),
    Metric("core.pmd.tx_stall_rejects", "count", "lower", ENGINE),
    Metric("core.pmd.self_s", "s", "lower", ENGINE),
    Metric("apps.forwarder.self_s", "s", "lower", CHAINS),
    Metric("traffic.self_s", "s", "lower", ENGINE),
    Metric("traffic.source.tx_rejects", "count", "lower", ENGINE),
    Metric("metrics.latency.self_s", "s", "lower", ENGINE),
    Metric("core.detector.analyses", "count", "lower", LINKS),
    Metric("core.detector.self_s", "s", "lower", LINKS),
    Metric("core.bypass.links_established", "count", "higher", LINKS),
    Metric("core.bypass.retries", "count", "lower", LINKS),
    Metric("core.bypass.sim_detect_ms", "sim_ms", "lower", LINKS),
    Metric("core.bypass.sim_rpc_ms", "sim_ms", "lower", LINKS),
    Metric("hypervisor.sim_hotplug_ms", "sim_ms", "lower", LINKS),
    Metric("dpdk.virtio_serial.sim_rx_configure_ms", "sim_ms", "lower",
           LINKS),
    Metric("dpdk.virtio_serial.sim_tx_configure_ms", "sim_ms", "lower",
           LINKS),
    Metric("openflow.wire.messages", "count", "lower", ENGINE),
    Metric("openflow.wire.self_s", "s", "lower", ENGINE),
    Metric("obs.cycles.adds", "count", "lower"),
    Metric("obs.cycles.self_s", "s", "lower"),
    Metric("obs.registry.scrape_s", "s", "lower", ENGINE),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.coverage", "ratio", "higher"),
    Metric("trace.other_s", "s", "lower"),
)

PER_LAYER = MODELLED + LAYERS

# Layers whose self time the traced run reports, in the order printed.
TRACED_LAYERS = tuple(
    m.name[:-len(".self_s")] for m in LAYERS if m.name.endswith(".self_s")
)


def applicable(metrics, workload: str) -> List[Metric]:
    return [m for m in metrics if workload in m.on]


def benchmark_json() -> dict:
    """The driver's view of this benchmark (exactly its key set)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
