"""Paper family: every row of DESIGN.md §4, measured once.

The paper's own results — Figure 3(a), Figure 3(b), the 80 % latency
claim, the ≈100 ms set-up claim — and the ablations that probe the
design decisions behind them, as one schema-v1 document (family tag
``repro-bench-paper/1``).  Each experiment is keyed by its DESIGN.md §4
id; each shape the paper reports is a named check ``<id>.<shape>``; the
headline numbers (speed-up vs chain length, NIC-cap crossover, 8-VM
latency reduction, set-up/teardown breakdown) are the trend metrics.

The committed ``BENCH_paper.json`` is a full run, and the tables of
``EXPERIMENTS.md`` are :func:`render_blocks` of it, so code → artifact →
document is one checked chain.  ``python -m repro fig3a|fig3b|latency|
setup-time|service`` call the same measurement functions and print the
same :func:`table`.

Everything in the body is on the modelled clock and deterministic.  The
one host-clock reading (A-detscale's ``analyze_port`` µs) goes under
``meta``; gated host-clock numbers live in ``perfbench/``.
"""

import operator
import re
import statistics
import sys
import time

from repro.bench.schema import validate_document
from repro.bench.workloads import (
    attach_checks,
    missing_keys,
    new_doc,
    resolve_seed,
)
from repro.bench.workloads.state import FAST_READMIT, FAST_WATCHDOG
from repro.core.detector import P2PLinkDetector
from repro.experiments import (
    ChainExperiment,
    ServiceGraphExperiment,
    SetupTimeExperiment,
)
from repro.faults import (
    AGENT_RPC_SEND,
    PMD_RX_POLL,
    QEMU_PLUG,
    SERIAL_TO_GUEST,
    FaultMode,
    FaultPlan,
)
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.orchestration import NfvNode
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.nic import line_rate_pps
from repro.traffic import SinkApp, SourceApp

FAMILY = "paper"
SCHEMA = "repro-bench-paper/1"
GENERATOR = "python -m repro.bench --family paper"
DEFAULT_OUT = "BENCH_paper.json"
DEFAULT_SEED = None

SETUP_TOTAL = "TOTAL (recognition -> bypass in use)"
TEARDOWN_TOTAL = "teardown (revocation -> normal path)"
HOTPLUG_STAGE = "ivshmem hot-plug (parallel x2)"

#: DESIGN.md §4, in its order: the experiments a document must carry.
EXPERIMENT_IDS = (
    "F3a", "F3b", "T-lat", "T-setup", "A-detect", "A-fallback",
    "A-faulted", "A-freeze", "A-burst", "A-stats", "A-cores", "A-emc",
    "A-sens", "A-frame", "A-handover", "A-graph", "A-detscale",
)


def sizing(quick):
    """The knobs of one run.  Quick shrinks only the five experiments
    that dominate the full run's host time: the NIC-fed chains, whose
    cores cannot park while the control plane settles, and the
    seconds-long live streams (the naive handover needs 0.5 Mpps in
    flight to reorder anything)."""
    return {
        "quick": quick,
        "f3a_lengths": list(range(2, 9)),
        "f3b_lengths": [1, 5] if quick else list(range(1, 9)),
        "fig3_duration_s": 0.002,
        "f3b_duration_s": 0.001 if quick else 0.002,
        "latency_lengths": [2, 4, 6, 8],
        "latency_duration_s": 0.004,
        "latency_rate_pps": 1e6,
        "ablation_duration_s": 0.0015,
        "burst_sizes": [1, 4, 8, 16, 32, 64],
        "ovs_cores": [1, 2, 4],
        "cost_scales": [0.5, 1.0, 2.0],
        "sens_lengths": [3, 6],
        "frame_sizes": [64, 1518] if quick else [64, 256, 512, 1024, 1518],
        "frame_duration_s": 0.001 if quick else 0.002,
        "stats_duration_s": 0.002,
        "graph_duration_s": 0.005,
        "graph_rate_pps": 8e6,
        "detect_cycles": 25,
        "live_rate_pps": 1e5 if quick else 2e6,
        "handover_rate_pps": 5e5 if quick else 2e6,
        "freeze_rate_pps": 1e4,
        "freeze_s": 0.06,
        "detscale_rules": [100, 1000] if quick else [100, 1000, 5000],
    }


# -- chain measurements (F3a, F3b, T-lat and the chain ablations) -------------


def _chain_pair(on_run, **chain_kwargs):
    """(traditional, ours) results of one chain configuration."""
    results = []
    for bypass in (False, True):
        experiment = ChainExperiment(bypass=bypass, **chain_kwargs)
        results.append(experiment.run())
        if on_run is not None:
            on_run(experiment)
    return results


def throughput_sweep(axis, values, on_run=None, **fixed):
    """Traditional vs bypass throughput along one chain knob.

    ``axis`` names any :class:`ChainExperiment` keyword; one row per
    value.  ``on_run(experiment)`` sees every finished experiment (the
    CLI's hook for progress lines and ``--obs-out``).
    """
    rows = []
    for value in values:
        traditional, ours = _chain_pair(on_run,
                                        **dict(fixed, **{axis: value}))
        rows.append({
            axis: value,
            "traditional_mpps": round(traditional.throughput_mpps, 4),
            "ours_mpps": round(ours.throughput_mpps, 4),
            "speedup": round(ours.throughput_mpps
                             / traditional.throughput_mpps, 4),
            "active_bypasses": ours.active_bypasses,
        })
    return rows


def nic_sweep(axis, values, **fixed):
    """:func:`throughput_sweep` through the two 10 G NICs, each row with
    the bidirectional line-rate cap of its frame size."""
    rows = throughput_sweep(axis, values, memory_only=False, **fixed)
    for row in rows:
        frame_size = row.get("frame_size", fixed.get("frame_size", 64))
        row["line_rate_cap_mpps"] = round(
            2 * line_rate_pps(frame_size) / 1e6, 4)
    return rows


def latency_sweep(lengths, duration, rate_pps, on_run=None,
                  **chain_kwargs):
    """T-lat: mean/p99 latency at a fixed sub-saturation offered load."""
    rows = []
    for num_vms in lengths:
        traditional, ours = _chain_pair(
            on_run, num_vms=num_vms, duration=duration,
            source_rate_pps=rate_pps, **chain_kwargs)
        row = {"num_vms": num_vms}
        for side, result in (("traditional", traditional), ("ours", ours)):
            row["%s_mean_us" % side] = round(result.mean_latency * 1e6, 3)
            row["%s_p99_us" % side] = round(
                max(result.latency_forward.p99,
                    result.latency_reverse.p99) * 1e6, 3)
        row["improvement"] = round(
            1.0 - ours.mean_latency / traditional.mean_latency, 4)
        rows.append(row)
    return rows


def cost_sensitivity(scales, lengths, duration):
    """A-sens: the throughput pair at every data-path cost scale."""
    rows = []
    for scale in scales:
        for row in throughput_sweep(
                "num_vms", lengths, duration=duration,
                costs=DEFAULT_COST_MODEL.scaled(scale)):
            rows.append(dict(row, cost_scale=scale))
    return rows


def stats_accounting(duration):
    """A-stats: bypass throughput and what the controller's flow
    counters read, with the shared-memory accounting on and off."""
    rows = []
    for enabled in (True, False):
        experiment = ChainExperiment(num_vms=3, bypass=True,
                                     duration=duration,
                                     accounting_enabled=enabled)
        result = experiment.run()
        node = experiment.node
        node.controller.request_flow_stats()
        node.switch.step_control()
        node.controller.poll()
        rows.append({
            "accounting": enabled,
            "throughput_mpps": round(result.throughput_mpps, 4),
            "delivered": (result.forward_delivered
                          + result.reverse_delivered),
            "controller_flow_packets": sum(
                stat.packet_count
                for stat in node.controller.latest_flow_stats.stats),
        })
    return rows


def setup_time():
    """T-setup: the establishment stage breakdown, plus teardown."""
    result = SetupTimeExperiment().run()
    stages = result.stages() + [
        (SETUP_TOTAL, result.total), (TEARDOWN_TOTAL, result.teardown_total)]
    return [{"stage": name, "ms": round(seconds * 1e3, 3)}
            for name, seconds in stages]


def service_graph(duration, rate_pps):
    """A-graph: the Figure-1 service with the highway off and on."""
    rows = []
    for bypass in (False, True):
        result = ServiceGraphExperiment(bypass=bypass, duration=duration,
                                        rate_pps=rate_pps).run()
        rows.append({
            "variant": "highway" if bypass else "vanilla",
            "throughput_mpps": round(result.throughput_mpps, 4),
            "web_delivered": result.web_delivered,
            "other_delivered": result.other_delivered,
            "cache_hits": result.cache_hits,
            "cache_hit_rate": round(result.cache_hit_rate, 4),
            "monitor_flows": result.monitor_flows,
            "active_bypasses": result.active_bypasses,
            "classified_port_switched_packets":
                result.classified_port_switched_packets,
        })
    return rows


# -- control-plane and live-traffic runs --------------------------------------


class SequenceSink(SinkApp):
    """Counts out-of-order arrivals instead of latencies."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("record_latency", False)
        super().__init__(*args, **kwargs)
        self.inversions = 0
        self.last_seq = -1

    def iteration(self):
        mbufs = self.port.rx_burst(self.burst_size)
        if not mbufs:
            return 0.0
        for mbuf in mbufs:
            if mbuf.seq < self.last_seq:
                self.inversions += 1
            else:
                self.last_seq = mbuf.seq
            self.received += 1
            mbuf.free()
        return self.costs.burst_overhead + len(mbufs) * self.costs.ring_op


def _live_node(rate_pps, vms=2, sink_class=SinkApp, **node_kwargs):
    """``vm1`` streaming to ``vm2`` at ``rate_pps``, no rule installed
    yet: the rig every live-traffic experiment starts from."""
    env = Environment()
    node = NfvNode(env=env, **node_kwargs)
    for index in range(vms):
        node.create_vm("vm%d" % (index + 1), ["dpdkr%d" % index])
    node.switch.start()
    source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                       rate_pps=rate_pps, pool_size=16384)
    sink = sink_class("sink", node.vms["vm2"].pmd("dpdkr1"))
    source.start(env)
    sink.start(env)
    return env, node, source, sink


def _divert_match(node):
    """A TCP/80 rule above the p-2-p rule revokes the property; the
    UDP test flow never matches it, so conservation stays strict."""
    return Match(in_port=node.ofport("dpdkr0"), eth_type=ETH_TYPE_IPV4,
                 ip_proto=IP_PROTO_TCP, l4_dst=80)


def _window_mpps(start, end):
    (t0, c0), (t1, c1) = start, end
    return round((c1 - c0) / (t1 - t0) / 1e6, 4)


def detector_churn(cycles):
    """A-detect: install/delete one p-2-p rule ``cycles`` times."""
    env = Environment()
    node = NfvNode(env=env, n_pmd_cores=1)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.switch.start()
    manager = node.manager
    latencies = []
    for _cycle in range(cycles):
        seen = len(manager.history)
        t_send = env.now
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        while len(manager.history) == seen:
            env.run(until=env.now + 0.0002)
        latencies.append(manager.history[-1].t_detected - t_send)
        env.run(until=env.now + 0.2)  # let it establish
        node.controller.delete_flow(Match(in_port=node.ofport("dpdkr0")))
        env.run(until=env.now + 0.2)  # let it tear down
    node.switch.stop()
    return {
        "cycles": cycles,
        "mean_detect_us": round(statistics.mean(latencies) * 1e6, 3),
        "worst_detect_us": round(max(latencies) * 1e6, 3),
        "links_established": len(manager.history),
        "detector_analyses": manager.detector.analyses,
        "stale_links": len(manager.active_links),
        "active_bypasses": node.active_bypasses,
        # The two boot-time dpdkr zones; anything more is a leak.
        "memzones": len(node.registry),
        "sender_on_bypass":
            node.vms["vm1"].pmd("dpdkr0").bypass_tx_active,
        "receiver_on_bypass":
            node.vms["vm2"].pmd("dpdkr1").bypass_rx_active,
    }


def dynamic_fallback(rate_pps):
    """A-fallback: revoke and restore the p-2-p property mid-stream."""
    env, node, source, sink = _live_node(rate_pps, vms=3)
    web_sink = SinkApp("sink.web", node.vms["vm3"].pmd("dpdkr2"))
    web_sink.start(env)
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    env.run(until=env.now + 0.2)
    established = (env.now, sink.received)
    divert = _divert_match(node)
    node.controller.install_flow(
        divert, [OutputAction(node.ofport("dpdkr2"))], priority=0xF000)
    env.run(until=env.now + 0.2)
    fallback = (env.now, sink.received)
    node.controller.delete_flow(divert, strict=True, priority=0xF000)
    env.run(until=env.now + 0.2)
    restored = (env.now, sink.received)
    source.stop()
    env.run(until=env.now + 0.02)
    delivered = sink.received + web_sink.received
    in_flight = source.pool.size - source.pool.available
    history = node.manager.history
    return {
        "rate_pps": rate_pps,
        "generated": source.generated,
        "delivered": delivered,
        "in_flight": in_flight,
        "lost": source.generated - delivered - in_flight,
        "salvaged_at_teardown":
            history[0].teardown_request.salvaged_packets,
        "stall_rejects": node.vms["vm1"].pmd("dpdkr0").tx_stall_rejects,
        "fallback_window_mpps": _window_mpps(established, fallback),
        "restored_mpps": _window_mpps(fallback, restored),
        "link_states": [link.state.value for link in history],
        "active_bypasses": node.active_bypasses,
    }


def faulted_establishment(rate_pps):
    """A-faulted: one fault at each control-plane layer, all during
    establishment and all before the sender's TX would flip — the
    switch path carries the stream while the manager retries."""
    plan = FaultPlan(seed=7)
    plan.inject(AGENT_RPC_SEND, "drop", occurrences=(1,))
    plan.inject(QEMU_PLUG, "error", occurrences=(1,))
    plan.inject(SERIAL_TO_GUEST, "drop", occurrences=(1,))
    env, node, source, sink = _live_node(rate_pps, faults=plan)
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    env.run(until=1.3)  # three failed attempts and their backoffs
    recovery = (env.now, sink.received)
    env.run(until=1.8)  # steady state on the established bypass
    bypassed = (env.now, sink.received)
    source.stop()
    env.run(until=env.now + 0.02)
    in_flight = source.pool.size - source.pool.available
    link = node.manager.link_for_src(node.ofport("dpdkr0"))
    counters = node.manager.resilience
    return {
        "rate_pps": rate_pps,
        "generated": source.generated,
        "delivered": sink.received,
        "in_flight": in_flight,
        "lost": source.generated - sink.received - in_flight,
        "lost_to_failures": node.manager.packets_lost_to_failures,
        "faults_injected": plan.total_injected,
        "link_state": link.state.value if link is not None else None,
        "attempts": link.attempts if link is not None else 0,
        "timeouts": counters.timeouts,
        "rpc_errors": counters.rpc_errors,
        "rollbacks": counters.rollbacks,
        "recovery_window_mpps": _window_mpps((0.0, 0), recovery),
        "bypass_mpps": _window_mpps(recovery, bypassed),
    }


def handover(rate_pps, ordered):
    """A-handover: establish, revoke, re-establish under a live flow,
    with the ordered protocol or the naive immediate flip."""
    env, node, source, sink = _live_node(rate_pps,
                                         sink_class=SequenceSink)
    for handle in node.vms.values():
        for pmd in handle.pmds.values():
            pmd.ordered_handover = ordered
    divert = _divert_match(node)
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    env.run(until=env.now + 0.25)
    node.controller.install_flow(
        divert, [OutputAction(node.ofport("dpdkr1"))], priority=0xF000)
    env.run(until=env.now + 0.25)
    node.controller.delete_flow(divert, strict=True, priority=0xF000)
    env.run(until=env.now + 0.25)
    source.stop()
    env.run(until=env.now + 0.02)
    node.switch.stop()
    return {
        "variant": "ordered" if ordered else "naive",
        "generated": source.generated,
        "delivered": sink.received,
        "inversions": sink.inversions,
        "stall_rejects": node.vms["vm1"].pmd("dpdkr0").tx_stall_rejects,
    }


def consumer_freeze(rate_pps, freeze):
    """A-freeze: the consumer's poll loop freezes mid-stream; the host
    watchdog detects the stall from shared memory alone, the emergency
    fallback salvages the bypass ring onto the switch path, and the
    link is re-admitted once the peer heartbeats again."""
    env, node, source, sink = _live_node(
        rate_pps, sink_class=SequenceSink,
        watchdog_policy=FAST_WATCHDOG, retry_policy=FAST_READMIT)
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    env.run(until=0.3)
    steady = (env.now, sink.received)
    plan = FaultPlan(seed=11)
    plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,),
                delay=freeze)
    node.install_fault_plan(plan)
    t_freeze = env.now
    env.run(until=t_freeze + freeze + 0.02)
    outage = (env.now, sink.received)
    env.run(until=t_freeze + 0.45)
    readmitted = (env.now, sink.received)
    source.stop()
    env.run(until=env.now + 0.05)
    resilience = node.manager.resilience
    degraded = [link for link in node.manager.history
                if link.t_teardown_started is not None
                and link.t_teardown_started >= t_freeze]
    return {
        "rate_pps": rate_pps,
        "freeze_seconds": freeze,
        "generated": source.generated,
        "delivered": sink.received,
        "lost": source.generated - sink.received,
        "tx_failures": source.tx_failures,
        "lost_to_failures": node.manager.packets_lost_to_failures,
        "inversions": sink.inversions,
        "detection_seconds": round(
            degraded[0].t_teardown_started - t_freeze, 6),
        # One interval for the baseline, stall_polls frozen deltas, one
        # interval of slack.
        "detection_budget_seconds": round(
            FAST_WATCHDOG.poll_interval
            * (FAST_WATCHDOG.stall_polls + 2), 6),
        "packets_salvaged": resilience.packets_salvaged,
        "stalled_consumers": resilience.stalled_consumers,
        "readmissions_deferred": resilience.readmissions_deferred,
        "degraded_readmissions": resilience.degraded_readmissions,
        "active_bypasses": node.active_bypasses,
        "steady_mpps": _window_mpps((0.0, 0), steady),
        "outage_window_mpps": _window_mpps(steady, outage),
        "recovered_mpps": _window_mpps(outage, readmitted),
    }


def _steering_table(num_rules):
    """A realistic steering table: per-port p-2-p rules plus classified
    noise the total rule shadows (so the links survive)."""
    table = FlowTable()
    ports = max(2, num_rules // 10)
    for port in range(1, ports + 1):
        table.add(FlowEntry(Match(in_port=port),
                            [OutputAction(port % ports + 1)],
                            priority=10))
    for rule in range(ports, num_rules):
        port = rule % ports + 1
        table.add(FlowEntry(
            Match(in_port=port, eth_type=ETH_TYPE_IPV4,
                  ip_proto=IP_PROTO_TCP,
                  l4_dst=(rule - ports + 1) % 65536),
            [OutputAction(port % ports + 1)], priority=5))
    return table


def detector_scaling(rule_counts, host_clock, churns=100, timed_calls=200):
    """A-detscale: ``analyze_port`` against growing tables, and the
    locality of rule churn.  What the detector decided is deterministic
    and returned; how long the host took is not, and goes into
    ``host_clock`` (the document's ``meta``)."""
    links_found = 0
    host_us = host_clock["analyze_port_median_us"] = {}
    for num_rules in rule_counts:
        detector = P2PLinkDetector(_steering_table(num_rules))
        samples = []
        for _call in range(timed_calls):
            started = time.perf_counter()
            link = detector.analyze_port(1)
            samples.append(time.perf_counter() - started)
        host_us[str(num_rules)] = round(
            statistics.median(samples) * 1e6, 3)
        links_found += link is not None
    # A port-pinned rule added and deleted re-analyses only that port.
    table = _steering_table(2000)
    detector = P2PLinkDetector(table)
    detector.refresh_all()
    baseline = detector.analyses
    pinned = Match(in_port=1, eth_type=ETH_TYPE_IPV4)
    for _churn in range(churns):
        table.add(FlowEntry(pinned, [OutputAction(2)], priority=1))
        table.delete(pinned, strict=True, priority=1)
    return {"table_rules": list(rule_counts), "links_found": links_found,
            "churn_table_rules": 2000, "churns": churns,
            "churn_analyses": detector.analyses - baseline}


# -- checks: the paper's shapes -----------------------------------------------

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    "==": operator.eq,
    "within": lambda value, bounds: bounds[0] <= value < bounds[1],
}


def _show(value):
    if isinstance(value, float):
        return "%.4g" % value
    if isinstance(value, (list, tuple)):
        return " / ".join(_show(item) for item in value)
    return str(value)


def _column(rows, key):
    return [row[key] for row in rows]


def _by(rows, key):
    return {row[key]: row for row in rows}


def run_checks(doc):
    """Every shape assertion of the former ``benchmarks/`` suite, as a
    named check ``<DESIGN §4 id>.<shape>``; the detail is the compared
    operands.  An "at every point" shape compares its worst point."""
    exp = doc["experiments"]
    checks = []

    def check(name, left, op, right):
        checks.append((name, _OPS[op](left, right),
                       "%s %s %s" % (_show(left), op, _show(right))))

    # F3a: bypass far above vanilla everywhere, gap widens with length.
    rows = exp["F3a"]
    trad, ours = _column(rows, "traditional_mpps"), _column(rows, "ours_mpps")
    speedups = _column(rows, "speedup")
    check("F3a.bypass_wins_every_length", min(speedups), ">", 1.0)
    check("F3a.traditional_decays_with_hops", trad[-1], "<", 0.3 * trad[0])
    check("F3a.bypass_flat_from_3_vms",
          min(ours[1:]), ">", 0.8 * max(ours[1:]))
    check("F3a.gap_widens_with_length", speedups[-1], ">", 2 * speedups[0])
    check("F3a.every_link_bypassed", _column(rows, "active_bypasses"),
          "==", [2 * (row["num_vms"] - 1) for row in rows])

    # F3b: coincide at 1 VM, bypass flat, vanilla decays, NIC cap holds.
    rows = exp["F3b"]
    trad, ours = _column(rows, "traditional_mpps"), _column(rows, "ours_mpps")
    check("F3b.curves_coincide_at_1_vm",
          abs(ours[0] - trad[0]), "<", 0.15 * trad[0])
    check("F3b.bypass_flat", min(ours), ">", 0.85 * max(ours))
    check("F3b.traditional_decays", trad[-1], "<", 0.45 * trad[0])
    check("F3b.bypass_wins_from_2_vms",
          min(_column(rows[1:], "speedup")), ">", 1.0)
    check("F3b.nothing_exceeds_line_rate",
          max(trad + ours), "<=", 1.01 * rows[0]["line_rate_cap_mpps"])

    # T-lat: faster everywhere, most at the long end, near the paper's 80 %.
    gains = _column(exp["T-lat"], "improvement")
    check("T-lat.bypass_faster_every_length", min(gains), ">", 0.0)
    check("T-lat.gain_grows_with_length", gains[-1], ">", gains[0])
    check("T-lat.longest_chain_near_paper_80_pct",
          gains[-1], "within", (0.6, 0.95))

    # T-setup: order of 100 ms, hot-plug dominates, teardown cheaper.
    setup = {row["stage"]: row["ms"] for row in exp["T-setup"]}
    total, teardown = setup.pop(SETUP_TOTAL), setup.pop(TEARDOWN_TOTAL)
    check("T-setup.order_of_100_ms", total, "within", (50.0, 200.0))
    check("T-setup.hotplug_dominates",
          setup[HOTPLUG_STAGE], "==", max(setup.values()))
    check("T-setup.teardown_cheaper", teardown, "<", total)

    # A-detect: control-plane fast, and churn leaves nothing behind.
    detect = exp["A-detect"]
    check("A-detect.detection_under_5_ms",
          detect["worst_detect_us"], "<", 5000.0)
    check("A-detect.one_link_per_cycle",
          detect["links_established"], "==", detect["cycles"])
    check("A-detect.no_stale_links", detect["stale_links"], "==", 0)
    check("A-detect.no_active_bypasses", detect["active_bypasses"], "==", 0)
    # Only the two boot-time dpdkr zones are left.
    check("A-detect.no_leaked_memzones", detect["memzones"], "==", 2)
    check("A-detect.sender_back_on_normal_channel",
          detect["sender_on_bypass"], "==", False)
    check("A-detect.receiver_back_on_normal_channel",
          detect["receiver_on_bypass"], "==", False)

    # A-fallback: zero loss across revoke/restore.  The ordered teardown
    # stalls the sender for ~2 virtio-serial RTTs inside the fallback
    # window (the price of zero reordering — see A-handover), so that
    # window dips by a bounded amount; afterwards the full rate is back.
    fall = exp["A-fallback"]
    offered = fall["rate_pps"] / 1e6
    check("A-fallback.zero_loss", fall["lost"], "==", 0)
    check("A-fallback.fallback_window_keeps_rate",
          fall["fallback_window_mpps"], ">", 0.75 * offered)
    check("A-fallback.rate_restored",
          fall["restored_mpps"], ">", 0.9 * offered)
    check("A-fallback.stall_rejects_under_50_ms_worth",
          fall["stall_rejects"], "<", fall["rate_pps"] * 0.05)
    check("A-fallback.first_link_full_lifecycle",
          fall["link_states"][0], "==", "removed")
    check("A-fallback.fresh_link_active", fall["active_bypasses"], "==", 1)

    # A-faulted: three layers fault, the link converges, nothing is lost
    # and the data plane never dips.
    faulted = exp["A-faulted"]
    offered = faulted["rate_pps"] / 1e6
    check("A-faulted.all_three_layers_faulted",
          faulted["faults_injected"], "==", 3)
    check("A-faulted.link_converged", faulted["link_state"], "==", "active")
    check("A-faulted.fourth_attempt_succeeds", faulted["attempts"], "==", 4)
    check("A-faulted.zero_loss", faulted["lost"], "==", 0)
    check("A-faulted.none_lost_to_failures",
          faulted["lost_to_failures"], "==", 0)
    check("A-faulted.recovery_window_keeps_rate",
          faulted["recovery_window_mpps"], ">", 0.9 * offered)
    check("A-faulted.bypass_keeps_rate",
          faulted["bypass_mpps"], ">", 0.9 * offered)

    # A-freeze: detected in budget, salvaged, lossless, ordered, healed;
    # the switch path carries the flow once the salvage lands, so even
    # the window holding the frozen gap keeps most of the throughput.
    freeze = exp["A-freeze"]
    offered = freeze["rate_pps"] / 1e6
    check("A-freeze.detected_within_budget", freeze["detection_seconds"],
          "<=", freeze["detection_budget_seconds"])
    check("A-freeze.ring_salvaged", freeze["packets_salvaged"], ">", 0)
    check("A-freeze.zero_loss", freeze["lost"], "==", 0)
    check("A-freeze.no_tx_failures", freeze["tx_failures"], "==", 0)
    check("A-freeze.none_lost_to_failures",
          freeze["lost_to_failures"], "==", 0)
    check("A-freeze.in_order", freeze["inversions"], "==", 0)
    check("A-freeze.link_healed", freeze["active_bypasses"], "==", 1)
    check("A-freeze.one_readmission",
          freeze["degraded_readmissions"], "==", 1)
    check("A-freeze.rate_recovered",
          freeze["recovered_mpps"], ">", 0.9 * offered)
    check("A-freeze.delivery_never_stopped",
          freeze["outage_window_mpps"], ">", 0.25 * offered)

    # A-burst: both paths amortize per-burst overhead until the
    # per-packet cost dominates; bypass wins at every burst size.
    rows = exp["A-burst"]
    burst = _by(rows, "burst_size")
    check("A-burst.bypass_wins_every_burst",
          min(_column(rows, "speedup")), ">", 1.0)
    for side in ("traditional", "ours"):
        check("A-burst.%s_grows_with_burst" % side,
              burst[32]["%s_mpps" % side], ">",
              1.5 * burst[1]["%s_mpps" % side])
    check("A-burst.saturates_past_32",
          burst[64]["ours_mpps"], "<", 1.25 * burst[32]["ours_mpps"])

    # A-stats: a few percent buys the controller its counters; without
    # them they freeze near zero while the traffic flows.
    on, off = exp["A-stats"]
    check("A-stats.overhead_under_15_pct",
          1.0 - on["throughput_mpps"] / off["throughput_mpps"],
          "within", (0.0, 0.15))
    check("A-stats.controller_sees_traffic",
          on["controller_flow_packets"], ">", on["delivered"] * 0.5)
    check("A-stats.counters_freeze_without_accounting",
          off["controller_flow_packets"], "<",
          on["controller_flow_packets"] * 0.05)

    # A-cores: vanilla scales with vSwitch cores, the bypass ignores them.
    rows = exp["A-cores"]
    cores = _by(rows, "n_ovs_cores")
    ours = _column(rows, "ours_mpps")
    check("A-cores.traditional_scales_1_to_2",
          cores[2]["traditional_mpps"], ">",
          1.5 * cores[1]["traditional_mpps"])
    check("A-cores.traditional_scales_2_to_4",
          cores[4]["traditional_mpps"], ">",
          1.4 * cores[2]["traditional_mpps"])
    check("A-cores.bypass_indifferent", min(ours), ">", 0.85 * max(ours))
    check("A-cores.bypass_wins_at_4_cores", cores[4]["speedup"], ">", 1.0)

    # A-emc: the cache is the vSwitch's business only.
    emc = _by(exp["A-emc"], "emc_enabled")
    check("A-emc.traditional_needs_the_cache",
          emc[False]["traditional_mpps"], "<",
          0.75 * emc[True]["traditional_mpps"])
    check("A-emc.bypass_untouched",
          abs(emc[False]["ours_mpps"] - emc[True]["ours_mpps"]), "<",
          0.1 * emc[True]["ours_mpps"])

    # A-sens: at every calibration the bypass wins on the short chain
    # and wins by more on the long one.
    per_scale = len(doc["config"]["sens_lengths"])
    short = _column(exp["A-sens"][0::per_scale], "speedup")
    long = _column(exp["A-sens"][per_scale - 1::per_scale], "speedup")
    check("A-sens.bypass_wins_every_calibration", min(short), ">", 1.2)
    check("A-sens.gap_grows_every_calibration",
          min(b / a for a, b in zip(short, long)), ">", 1.0)

    # A-frame: a small-packet phenomenon; large frames sit on the NIC cap.
    rows = exp["A-frame"]
    small, large = rows[0], rows[-1]
    check("A-frame.bypass_wins_small_frames", small["speedup"], ">", 1.3)
    for side in ("traditional", "ours"):
        check("A-frame.%s_at_line_rate_large_frames" % side,
              large["%s_mpps" % side], ">",
              0.9 * large["line_rate_cap_mpps"])
    check("A-frame.converge_at_large_frames", large["speedup"], "<", 1.15)
    check("A-frame.speedup_largest_at_smallest_frame",
          small["speedup"], "==", max(_column(rows, "speedup")))

    # A-handover: ordered is in order and lossless; the naive flip
    # reorders real traffic (packets arrive, just late).
    hand = _by(exp["A-handover"], "variant")
    ordered, naive = hand["ordered"], hand["naive"]
    check("A-handover.ordered_zero_inversions",
          ordered["inversions"], "==", 0)
    check("A-handover.ordered_lossless",
          ordered["delivered"], "==", ordered["generated"])
    check("A-handover.naive_reorders", naive["inversions"], ">", 0)
    check("A-handover.naive_lossless",
          naive["delivered"], "==", naive["generated"])

    # A-graph: service semantics identical, service faster.
    graph = _by(exp["A-graph"], "variant")
    vanilla, highway = graph["vanilla"], graph["highway"]
    check("A-graph.three_links_bypassed",
          highway["active_bypasses"], "==", 3)
    check("A-graph.vanilla_no_bypass", vanilla["active_bypasses"], "==", 0)
    check("A-graph.cache_hit_rate_identical",
          abs(highway["cache_hit_rate"] - vanilla["cache_hit_rate"]),
          "<", 0.02)
    check("A-graph.monitor_flows_identical",
          highway["monitor_flows"], "==", vanilla["monitor_flows"])
    check("A-graph.both_classes_delivered",
          min(highway["web_delivered"], highway["other_delivered"]),
          ">", 0)
    check("A-graph.classified_split_stays_on_switch",
          highway["classified_port_switched_packets"], ">", 0)
    check("A-graph.service_faster", highway["throughput_mpps"], ">",
          1.2 * vanilla["throughput_mpps"])

    # A-detscale: the analysis finds the link; a port-pinned add+delete
    # costs two analyses whatever the table width.
    scale = exp["A-detscale"]
    check("A-detscale.link_found_at_every_table_size",
          scale["links_found"], "==", len(scale["table_rules"]))
    check("A-detscale.churn_touches_one_port",
          scale["churn_analyses"], "==", 2 * scale["churns"])
    return checks


# -- schema -------------------------------------------------------------------


def validate(doc):
    """Base schema, every DESIGN §4 experiment present, and a payload
    the checks can be recomputed from — to the very verdicts the
    document carries."""
    problems = validate_document(doc, family=FAMILY)
    missing = missing_keys(doc.get("experiments"), EXPERIMENT_IDS)
    if missing:
        return problems + ["missing experiment %s" % name
                           for name in missing]
    try:
        recomputed = attach_checks({}, run_checks(doc))["checks"]
    except (KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return problems + ["payload unreadable: %r" % exc]
    if recomputed != doc.get("checks"):
        problems.append("checks do not follow from the payload")
    return problems


# -- trends -------------------------------------------------------------------


def trend_metrics(doc):
    """Headline numbers for one ``BENCH_TRENDS.jsonl`` line, named to
    ``scripts/bench_gate.py``'s direction convention."""
    exp = doc["experiments"]
    metrics = {}
    for figure in ("F3a", "F3b"):
        rows, tag = exp[figure], figure.lower()
        for row in rows:
            metrics["%s_speedup_ratio_%dvm" % (tag, row["num_vms"])] \
                = row["speedup"]
        longest = rows[-1]
        metrics["%s_traditional_mpps_%dvm" % (tag, longest["num_vms"])] \
            = longest["traditional_mpps"]
        metrics["%s_bypass_mpps_%dvm" % (tag, longest["num_vms"])] \
            = longest["ours_mpps"]
    # The NIC-cap crossover: the smallest frame at which the line rate,
    # not the vSwitch, bounds both approaches.  Where it falls belongs
    # to the calibration, so the name carries no direction token.
    capped = [row["frame_size"] for row in exp["A-frame"]
              if row["speedup"] < 1.05]
    if capped:
        metrics["nic_cap_crossover_frame_bytes"] = capped[0]
    metrics["small_frame_speedup_ratio"] = exp["A-frame"][0]["speedup"]
    longest = exp["T-lat"][-1]
    metrics["latency_improvement_ratio_%dvm" % longest["num_vms"]] \
        = longest["improvement"]
    metrics["bypass_mean_latency_%dvm_us" % longest["num_vms"]] \
        = longest["ours_mean_us"]
    setup = {row["stage"]: row["ms"] / 1e3 for row in exp["T-setup"]}
    metrics["setup_total_seconds"] = setup[SETUP_TOTAL]
    metrics["setup_hotplug_seconds"] = setup[HOTPLUG_STAGE]
    metrics["teardown_total_seconds"] = setup[TEARDOWN_TOTAL]
    metrics["worst_detect_latency_us"] = exp["A-detect"]["worst_detect_us"]
    metrics["freeze_detection_seconds"] = \
        exp["A-freeze"]["detection_seconds"]
    on, off = exp["A-stats"]
    metrics["accounted_bypass_mpps"] = on["throughput_mpps"]
    metrics["unaccounted_bypass_mpps"] = off["throughput_mpps"]
    graph = _by(exp["A-graph"], "variant")
    metrics["service_speedup_ratio"] = (
        graph["highway"]["throughput_mpps"]
        / graph["vanilla"]["throughput_mpps"])
    metrics["live_packets_lost"] = sum(
        exp[name]["lost"] for name in ("A-fallback", "A-faulted",
                                       "A-freeze"))
    return metrics


# -- rendering: the CLI's tables and the blocks of EXPERIMENTS.md -------------

#: Row-type experiments: the columns their table shows, in order.  The
#: other experiments are one object, shown as ``metric | value`` lines.
COLUMNS = {
    "F3a": ("num_vms", "traditional_mpps", "ours_mpps", "speedup"),
    "F3b": ("num_vms", "traditional_mpps", "ours_mpps",
            "line_rate_cap_mpps"),
    "T-lat": ("num_vms", "traditional_mean_us", "traditional_p99_us",
              "ours_mean_us", "ours_p99_us", "improvement"),
    "T-setup": ("stage", "ms"),
    "A-burst": ("burst_size", "traditional_mpps", "ours_mpps"),
    "A-stats": ("accounting", "throughput_mpps", "delivered",
                "controller_flow_packets"),
    "A-cores": ("n_ovs_cores", "traditional_mpps", "ours_mpps"),
    "A-emc": ("emc_enabled", "traditional_mpps", "ours_mpps"),
    "A-sens": ("cost_scale", "num_vms", "traditional_mpps", "ours_mpps",
               "speedup"),
    "A-frame": ("frame_size", "traditional_mpps", "ours_mpps",
                "line_rate_cap_mpps", "speedup"),
    "A-handover": ("variant", "generated", "delivered", "inversions",
                   "stall_rejects"),
    "A-graph": ("variant", "throughput_mpps", "web_delivered",
                "other_delivered", "cache_hits", "cache_hit_rate",
                "monitor_flows", "active_bypasses"),
}
_UNITS = {"mpps": "Mpps", "us": "µs", "vms": "VMs"}


def _label(key):
    return " ".join(_UNITS.get(word, word) for word in key.split("_"))


def table(name, payload):
    """``(headers, rows)`` of one experiment's payload — the artifact's
    own keys and values, which is all ``python -m repro <figure>`` and
    ``EXPERIMENTS.md`` ever show."""
    if name not in COLUMNS:
        return ["metric", "value"], [[_label(key), _show(value)]
                                     for key, value in sorted(payload.items())]
    columns = COLUMNS[name]
    return ([_label(key) for key in columns],
            [[_show(row[key]) for key in columns] for row in payload])


_BLOCK = re.compile(r"(<!-- BEGIN paper:(?P<name>[\w-]+) -->\n).*?"
                    r"(<!-- END paper:(?P=name) -->)", re.DOTALL)


def render_into(text, doc):
    """``text`` with the body of every ``<!-- BEGIN paper:<id> -->`` …
    ``<!-- END paper:<id> -->`` block replaced by that experiment's
    table, in Markdown."""
    def block(match):
        headers, rows = table(match.group("name"),
                              doc["experiments"][match.group("name")])
        lines = [headers, ["---"] * len(headers)] + rows
        return (match.group(1)
                + "".join("| %s |\n" % " | ".join(line) for line in lines)
                + match.group(3))

    return _BLOCK.sub(block, text)


# -- driver -------------------------------------------------------------------


def run_bench(quick, seed=None):
    config = sizing(quick)
    doc = new_doc(FAMILY, GENERATOR, quick, resolve_seed(seed), config)
    ablation = config["ablation_duration_s"]
    live_rate = config["live_rate_pps"]
    # Thunks, so each experiment can announce itself before it runs
    # (the full sizing takes minutes).
    plan = {
        "F3a": lambda: throughput_sweep(
            "num_vms", config["f3a_lengths"],
            duration=config["fig3_duration_s"]),
        "F3b": lambda: nic_sweep(
            "num_vms", config["f3b_lengths"],
            duration=config["f3b_duration_s"]),
        "T-lat": lambda: latency_sweep(
            config["latency_lengths"], config["latency_duration_s"],
            config["latency_rate_pps"]),
        "T-setup": setup_time,
        "A-detect": lambda: detector_churn(config["detect_cycles"]),
        "A-fallback": lambda: dynamic_fallback(live_rate),
        "A-faulted": lambda: faulted_establishment(live_rate),
        "A-freeze": lambda: consumer_freeze(config["freeze_rate_pps"],
                                            config["freeze_s"]),
        "A-burst": lambda: throughput_sweep(
            "burst_size", config["burst_sizes"], num_vms=3,
            duration=ablation),
        "A-stats": lambda: stats_accounting(config["stats_duration_s"]),
        "A-cores": lambda: throughput_sweep(
            "n_ovs_cores", config["ovs_cores"], num_vms=4,
            duration=ablation),
        # 64 distinct flows: each burst shatters into near-singleton
        # flow batches, so the per-packet lookup tier dominates the hop
        # cost and the ablation measures the cache rather than batch
        # amortization.
        "A-emc": lambda: throughput_sweep(
            "emc_enabled", [True, False], num_vms=3, duration=ablation,
            flows=64),
        "A-sens": lambda: cost_sensitivity(
            config["cost_scales"], config["sens_lengths"], ablation),
        "A-frame": lambda: nic_sweep(
            "frame_size", config["frame_sizes"], num_vms=2,
            duration=config["frame_duration_s"]),
        "A-handover": lambda: [
            handover(config["handover_rate_pps"], ordered)
            for ordered in (True, False)],
        "A-graph": lambda: service_graph(config["graph_duration_s"],
                                         config["graph_rate_pps"]),
        "A-detscale": lambda: detector_scaling(
            config["detscale_rules"],
            doc["meta"].setdefault("host_clock", {})),
    }
    doc["experiments"] = {}
    for index, name in enumerate(EXPERIMENT_IDS, 1):
        print("[%d/%d] %s..." % (index, len(EXPERIMENT_IDS), name),
              file=sys.stderr)
        doc["experiments"][name] = plan[name]()
    return attach_checks(doc, run_checks(doc))
