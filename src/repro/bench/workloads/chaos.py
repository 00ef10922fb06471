"""Chaos soak benchmark family: Poisson VM crashes against a 5-NF
chain, with and without the chain repairer
(``python -m repro.bench --family chaos``).

One service chain — source NF, three forwarder NFs, sink NF — carries
steady traffic while the middle NFs (nf2..nf4) are killed abruptly at
Poisson-distributed instants (seeded, deterministic).  Two scenarios:

* ``repaired`` — the :class:`ChainRepairer` supervises the chain: every
  crash is detected, the VM re-created on the same ports, the app
  rebuilt, the steering flows replayed (which re-establishes the
  bypasses).  The check: after >= 20 crash/repair cycles the chain's
  goodput in a quiet window recovers to within 5% of its pre-crash
  level, the mbuf pool was never exhausted, and every buffer is back in
  the pool at quiesce — a crash costs latency, not capacity.
* ``unrepaired`` — same chaos, no supervisor.  The chain collapses
  (goodput -> 0) and the dead NFs strand the source pool's mbufs in
  their port rings; the ownership ledger then finds and reclaims every
  one of them, proving the leak is observable and recoverable rather
  than silent.

Family tag ``repro-bench-chaos/1``; the committed ``BENCH_chaos.json``
is a full run.
"""

import random
import sys

from repro.apps import ForwarderApp
from repro.bench.workloads import (
    attach_checks,
    missing_keys,
    new_doc,
    resolve_seed,
)
from repro.bench.schema import validate_document
from repro.core.bypass import RetryPolicy
from repro.orchestration import (
    ChainRepairer,
    NfvNode,
    Orchestrator,
    RepairPolicy,
    ServiceGraph,
)
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp

FAMILY = "chaos"
SCHEMA = "repro-bench-chaos/1"
GENERATOR = "python -m repro.bench --family chaos"
DEFAULT_OUT = "BENCH_chaos.json"
DEFAULT_SEED = 42

RATE_PPS = 5e4
POOL_SIZE = 2048
MEAN_INTERARRIVAL = 0.03   # seconds between crashes (Poisson)
MIDDLE_NFS = ("nf2", "nf3", "nf4")

REPAIR_POLICY = RepairPolicy(poll_interval=0.002, max_restarts=1000,
                             base_backoff=0.002, max_backoff=0.01)

# Aggressive control-plane timescales so 20+ crash/repair cycles fit in
# a few seconds of simulated time: minimal retry/quarantine backoff and
# near-disabled flap damping (the chaos schedule *is* a flap storm;
# damping it would only slow the measurement down).  The request
# timeout must stay above the ~100 ms cost of a clean establishment
# (RPC + hot-plug + two serial RTTs) or every attempt times out by
# construction and the serialized worker livelocks on retries.
BENCH_RETRY = RetryPolicy(
    request_timeout=0.2, teardown_timeout=0.2,
    base_backoff=0.01, max_backoff=0.04,
    quarantine_backoff=0.05, quarantine_backoff_factor=1.0,
    max_quarantine_backoff=0.05,
    flap_window=0.1, flap_threshold=50, flap_hold=0.02,
)


def build_chain():
    """nf1 (source) -> nf2 -> nf3 -> nf4 -> nf5 (sink)."""
    graph = ServiceGraph("chaos-chain")
    graph.add_vnf("nf1", ["p0"], app_factory=lambda pmds: SourceApp(
        "nf1.app", pmds["p0"], pool_size=POOL_SIZE, rate_pps=RATE_PPS))
    for index in (2, 3, 4):
        graph.add_vnf(
            "nf%d" % index, ["p0", "p1"],
            app_factory=lambda pmds, i=index: ForwarderApp(
                "nf%d.app" % i, pmds["p0"], pmds["p1"]),
        )
    graph.add_vnf("nf5", ["p0"], app_factory=lambda pmds: SinkApp(
        "nf5.app", pmds["p0"], record_latency=False))
    graph.connect("nf1.p0", "nf2.p0")
    graph.connect("nf2.p1", "nf3.p0")
    graph.connect("nf3.p1", "nf4.p0")
    graph.connect("nf4.p1", "nf5.p0")
    return graph


def run_scenario(mode, quick, seed):
    """One soak run; ``mode`` is ``repaired`` or ``unrepaired``."""
    repaired = mode == "repaired"
    warmup = 0.15
    window = 0.05
    crash_target = 5 if quick else 22
    chaos_cap = crash_target * MEAN_INTERARRIVAL * 4
    # The manager's worker is serialized and every torn-down bypass
    # costs it one establishment (~0.1 s clean, up to one request
    # timeout if chaos interrupted it), so the control-plane backlog
    # after the storm drains at a rate bounded by the worker, not the
    # repairer.  Recovery is therefore measured, not assumed: the run
    # advances until the bypasses are back (or the cap expires) and
    # reports how long that took.
    recovery_cap = 2.0 + crash_target * 0.5
    drain = 0.3

    env = Environment()
    node = NfvNode(env=env, retry_policy=BENCH_RETRY)
    orchestrator = Orchestrator(node)
    deployment = orchestrator.deploy(build_chain())
    deployment.start_apps(env)
    source = deployment.apps["nf1"]
    sink = deployment.apps["nf5"]
    pool = source.pool
    node.track_mempool(pool)
    repairer = None
    if repaired:
        repairer = ChainRepairer(
            orchestrator, deployment, REPAIR_POLICY).start(env)

    rng = random.Random(seed)
    min_available = [pool.size]

    def advance(duration):
        """Run the clock forward, sampling pool occupancy as we go."""
        end = env.now + duration
        while env.now < end:
            env.run(until=min(end, env.now + 0.005))
            min_available[0] = min(min_available[0], pool.available)

    advance(warmup)
    pre_mark = sink.received
    advance(window)
    pre_goodput = (sink.received - pre_mark) / window

    crashes = 0
    chaos_deadline = env.now + chaos_cap
    while crashes < crash_target and env.now < chaos_deadline:
        advance(rng.expovariate(1.0 / MEAN_INTERARRIVAL))
        alive = [name for name in MIDDLE_NFS
                 if name in node.hypervisor.vms]
        if not alive:
            if not repaired:
                break  # every middle NF is dead; nothing left to kill
            continue   # all victims mid-repair; keep the schedule going
        node.hypervisor.crash_vm(rng.choice(alive))
        crashes += 1
        min_available[0] = min(min_available[0], pool.available)

    chaos_end = env.now
    bypass_restore_seconds = None
    expected_bypasses = len(deployment.installed_rules)
    while env.now < chaos_end + (recovery_cap if repaired else 1.0):
        advance(0.05)
        if repaired and node.active_bypasses == expected_bypasses:
            bypass_restore_seconds = env.now - chaos_end
            break
    post_mark = sink.received
    advance(window)
    post_goodput = (sink.received - post_mark) / window
    active_bypasses = node.active_bypasses

    # Quiesce: stop the source, let the chain drain, stop everything,
    # then sweep whatever the ledger still charges to anyone.  A healthy
    # repaired run has nothing left to sweep; the unrepaired run's dead
    # NFs are holding the source pool hostage until this reclaim.
    source.stop()
    advance(drain)
    if repairer is not None:
        repairer.stop()
    deployment.stop_apps()
    swept = {}
    for holder in sorted(pool.holders()):
        report = pool.reclaim(holder)
        swept[holder] = report.reclaimed
    res = node.manager.resilience
    out = {
        "mode": mode,
        "crashes": crashes,
        "pre_goodput_pps": round(pre_goodput, 1),
        "post_goodput_pps": round(post_goodput, 1),
        "recovery_ratio": round(post_goodput / pre_goodput, 4)
        if pre_goodput else 0.0,
        "generated": source.generated,
        "delivered": sink.received,
        "active_bypasses_final": active_bypasses,
        "bypass_restore_seconds": round(bypass_restore_seconds, 3)
        if bypass_restore_seconds is not None else None,
        "pool": {
            "size": pool.size,
            "available_min_sampled": min_available[0],
            "alloc_failures": pool.alloc_failures,
            "alloc_count": pool.alloc_count,
            "free_count_total": pool.free_count_total,
            "in_use_final": pool.in_use,
            "leaked_found_total": pool.leaked_found_total,
            "leaked_permanent": pool.leaked_permanent,
            "double_free_detected": pool.double_free_detected,
            "reclaimed_total": pool.reclaimed_total,
        },
        "quiesce_sweep": swept,
        "resilience": {
            "peer_crashes": res.peer_crashes,
            "mbufs_reclaimed": res.mbufs_reclaimed,
            "crashed_peer_readmissions": res.crashed_peer_readmissions,
            "packets_salvaged": res.packets_salvaged,
            "packets_lost_to_failures":
                node.manager.packets_lost_to_failures,
        },
    }
    if repairer is not None:
        out["repair"] = {
            "crashes_detected": repairer.crashes_detected,
            "repairs_started": repairer.repairs_started,
            "repairs_succeeded": repairer.repairs_succeeded,
            "repairs_failed": repairer.repairs_failed,
            "demotions": repairer.demotions,
            "flows_replayed": repairer.flows_replayed,
            "packets_flushed": repairer.packets_flushed,
        }
    return out


# -- checks -------------------------------------------------------------------


def run_checks(doc):
    """The soak invariants; each returns (name, passed, detail)."""
    quick = bool(doc.get("config", {}).get("quick"))
    rep = doc["scenarios"]["repaired"]
    unrep = doc["scenarios"]["unrepaired"]
    min_cycles = 5 if quick else 20
    checks = [
        ("repaired-recovery-within-5pct",
         rep["recovery_ratio"] >= 0.95,
         "post/pre goodput %.3f (pre %.0f pps, post %.0f pps)"
         % (rep["recovery_ratio"], rep["pre_goodput_pps"],
            rep["post_goodput_pps"])),
        ("unrepaired-chain-collapses",
         unrep["recovery_ratio"] < 0.2,
         "post/pre goodput %.3f" % unrep["recovery_ratio"]),
        ("enough-crash-repair-cycles",
         rep["crashes"] >= min_cycles
         and rep["repair"]["repairs_succeeded"] == rep["crashes"],
         "%d crashes, %d repaired (need >= %d)"
         % (rep["crashes"], rep["repair"]["repairs_succeeded"],
            min_cycles)),
        ("no-pool-exhaustion-while-repaired",
         rep["pool"]["available_min_sampled"] > 0
         and rep["pool"]["alloc_failures"] == 0,
         "min available %d of %d"
         % (rep["pool"]["available_min_sampled"], rep["pool"]["size"])),
        ("zero-leak-repaired",
         rep["pool"]["in_use_final"] == 0
         and rep["pool"]["leaked_permanent"] == 0
         and not rep["quiesce_sweep"],
         "in_use %d, permanent %d, swept %d"
         % (rep["pool"]["in_use_final"],
            rep["pool"]["leaked_permanent"],
            sum(rep["quiesce_sweep"].values()))),
        ("ledger-reclaims-unrepaired-leak",
         unrep["pool"]["in_use_final"] == 0
         and unrep["pool"]["leaked_permanent"] == 0
         and unrep["pool"]["leaked_found_total"] > 0,
         "found %d stranded, swept back %d, in_use %d"
         % (unrep["pool"]["leaked_found_total"],
            unrep["pool"]["reclaimed_total"],
            unrep["pool"]["in_use_final"])),
        ("bypasses-restored",
         rep["active_bypasses_final"] == 4
         and rep["bypass_restore_seconds"] is not None,
         "%d of 4 active, restored in %s s"
         % (rep["active_bypasses_final"],
            rep["bypass_restore_seconds"])),
    ]
    for scenario in (rep, unrep):
        checks.append((
            "pool-conservation-%s" % scenario["mode"],
            scenario["pool"]["alloc_count"]
            == scenario["pool"]["free_count_total"]
            and scenario["pool"]["double_free_detected"] == 0,
            "allocs %d, frees %d, double frees %d"
            % (scenario["pool"]["alloc_count"],
               scenario["pool"]["free_count_total"],
               scenario["pool"]["double_free_detected"]),
        ))
    return checks


# -- schema -------------------------------------------------------------------

REQUIRED_SCENARIO_KEYS = {
    "mode", "crashes", "pre_goodput_pps", "post_goodput_pps",
    "recovery_ratio", "generated", "delivered",
    "active_bypasses_final", "bypass_restore_seconds", "pool",
    "quiesce_sweep", "resilience",
}

REQUIRED_POOL_KEYS = {
    "size", "available_min_sampled", "alloc_failures", "alloc_count",
    "free_count_total", "in_use_final", "leaked_found_total",
    "leaked_permanent", "double_free_detected", "reclaimed_total",
}


def validate(doc):
    """Structural schema check; returns a list of problems (empty = ok)."""
    problems = validate_document(doc, family=FAMILY)
    scenarios = doc.get("scenarios", {})
    for name in ("repaired", "unrepaired"):
        scenario = scenarios.get(name)
        if scenario is None:
            problems.append("missing scenario %s" % name)
            continue
        missing = missing_keys(scenario, REQUIRED_SCENARIO_KEYS)
        if missing:
            problems.append("scenario %s missing %s" % (name, missing))
            continue
        missing = missing_keys(scenario["pool"], REQUIRED_POOL_KEYS)
        if missing:
            problems.append("scenario %s pool missing %s"
                            % (name, missing))
        if name == "repaired" and "repair" not in scenario:
            problems.append("scenario repaired missing repair counters")
    return problems


# -- trends -------------------------------------------------------------------


def trend_metrics(doc):
    rep = doc["scenarios"]["repaired"]
    unrep = doc["scenarios"]["unrepaired"]
    metrics = {
        "repaired_recovery_ratio": rep["recovery_ratio"],
        # The no-repairer control: a *drop* here widens the repairer's
        # benefit, so it must not gate higher-is-better — name it
        # without the "ratio" token to keep it informational.
        "unrepaired_recovery_control": unrep["recovery_ratio"],
        "crashes": rep["crashes"],
    }
    # A never-restored run omits the metric rather than emitting a
    # sentinel: the gate notes missing metrics, while a -1.0 would
    # read as an "improvement" and poison the baseline median.  The
    # restore-happened failure itself is caught by run_checks.
    restore = rep["bypass_restore_seconds"]
    if restore is not None:
        metrics["bypass_restore_seconds"] = restore
    return metrics


# -- driver -------------------------------------------------------------------


def run_bench(quick, seed=None):
    seed = resolve_seed(seed, default=DEFAULT_SEED)
    doc = new_doc(FAMILY, GENERATOR, quick, seed, {
        "quick": quick,
        "seed": seed,
        "rate_pps": RATE_PPS,
        "pool_size": POOL_SIZE,
        "mean_crash_interarrival_s": MEAN_INTERARRIVAL,
        "crash_targets": list(MIDDLE_NFS),
    })
    doc["scenarios"] = {}
    for step, mode in enumerate(("repaired", "unrepaired"), 1):
        print("[%d/2] chaos soak, %s..." % (step, mode), file=sys.stderr)
        doc["scenarios"][mode] = run_scenario(mode, quick, seed)
    return attach_checks(doc, run_checks(doc))
