"""Stateful fast-path benchmark family: OpenState/XFSM in the tiers.

Three workloads, one question each:

* ``stateful_churn`` — where should the perimeter-firewall decision
  run?  The guest answer needs a firewall VNF in the chain (3 VMs:
  source, :class:`~repro.apps.conntrack.StatefulFirewallApp`, sink);
  the XFSM answer compiles the same policy onto the inter-VM adjacency,
  so the middlebox VM disappears entirely (2 VMs) — hop elimination is
  the tier's claim, not just a cheaper per-packet executor.  Measured:
  the 3-VM no-policy control, the guest VNF, the XFSM adjacency
  (datapath tier), and the XFSM adjacency accelerated onto bypass
  channels.  The headline number is busy cycles per delivered packet
  over switch PMDs *and* guest app cores together — the fair total.
* ``syn_flood`` — the boundedness claim: a SYN flood from outside a
  stateful perimeter must not write a single state entry (the drop edge
  never persists), while legitimate bidirectional traffic flows.  Run
  against both the guest tracker and the XFSM table.
* ``bypass_state_conservation`` — the hard correctness claim: a bypass
  channel carrying the stateful firewall is degraded mid-traffic by a
  frozen consumer, falls back losslessly to the switch path (same state
  table, executor handover only), and is re-admitted — with zero
  packets misclassified across the whole cycle.

``--no-xfsm`` (``run_bench(..., xfsm=False)``) ablates the XFSM tier:
the XFSM variants then run stateless, which turns the protection
checks into leak-demonstration checks — the ablation's evidence.
"""

import sys

from repro.apps.conntrack import StatefulFirewallApp
from repro.bench.schema import validate_document
from repro.bench.workloads import (
    attach_checks,
    missing_keys,
    new_doc,
    resolve_seed,
)
from repro.core.bypass import RetryPolicy
from repro.core.watchdog import WatchdogPolicy
from repro.experiments import ChainExperiment
from repro.faults import PMD_RX_POLL, FaultMode, FaultPlan
from repro.obs.cycles import seconds_to_cycles
from repro.orchestration import NfvNode
from repro.packet.builder import make_tcp_packet
from repro.packet.headers import Tcp
from repro.sim.engine import Environment
from repro.state.programs import firewall_program
from repro.traffic.generator import SourceApp
from repro.traffic.profiles import (
    TrafficProfile,
    _template,
    syn_flood_profile,
    uniform_profile,
)
from repro.traffic.sink import SinkApp

FAMILY = "state"
SCHEMA = "repro-bench-state/1"
GENERATOR = "python -m repro.bench --family state"
DEFAULT_OUT = "BENCH_state.json"
DEFAULT_SEED = 11
HONORS = ("xfsm",)

# Fast detection + fast re-admission (mirrors the runtime-health test
# sizing) so the conservation choreography fits in < 1 s of sim time.
FAST_WATCHDOG = WatchdogPolicy(poll_interval=0.005, stall_polls=3,
                               heartbeat_polls=6)
FAST_READMIT = RetryPolicy(quarantine_backoff=0.15,
                           quarantine_backoff_factor=1.0,
                           max_quarantine_backoff=0.15)


class ProtoSink(SinkApp):
    """A sink that counts TCP and non-TCP deliveries separately, so an
    attack (TCP) leaking past a perimeter is distinguishable from the
    legitimate (UDP) traffic sharing the port."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("record_latency", False)
        super().__init__(*args, **kwargs)
        self.tcp_received = 0
        self.udp_received = 0

    def iteration(self):
        mbufs = self.port.rx_burst(self.burst_size)
        if not mbufs:
            return 0.0
        self.received += len(mbufs)
        for mbuf in mbufs:
            packet = mbuf.packet
            if packet is not None and packet.get(Tcp) is not None:
                self.tcp_received += 1
            else:
                self.udp_received += 1
            mbuf.free()
        return (self.costs.burst_overhead
                + len(mbufs) * self.costs.ring_op)


# -- workload 1: stateful_churn ----------------------------------------------


def _pmd_xfsm_counters(node):
    evaluated = drops = 0
    cost_seconds = 0.0
    for handle in node.vms.values():
        for pmd in handle.pmds.values():
            n = getattr(pmd, "xfsm_evaluated", 0)
            evaluated += n
            drops += getattr(pmd, "xfsm_drops", 0)
            cost_seconds += n * getattr(pmd, "xfsm_exec_cost", 0.0)
    return evaluated, drops, cost_seconds


def stateful_chain(stateful, bypass, duration, rate_pps, flows=32,
                   num_vms=3):
    """One memory chain, forward traffic only (no policy drops),
    measured over the whole run: busy cycles of the switch PMDs plus
    the guest app cores, per delivered packet."""
    experiment = ChainExperiment(
        num_vms=num_vms, bypass=bypass, memory_only=True,
        duration=duration, warmup_fraction=0.0, flows=flows,
        source_rate_pps=rate_pps, reverse_traffic=False,
        stateful=stateful,
    )
    result = experiment.run(drain=0.01)
    node = experiment.node
    datapath = node.switch.datapath
    report = node.switch.pmd_cycle_report()
    busy = sum(loop.busy_time for loop in report.loops)
    busy += sum(app.loop.busy_time for app in experiment.apps
                if app.loop is not None)
    delivered = result.delivered_total
    pmd_evaluated, _pmd_drops, pmd_xfsm_seconds = _pmd_xfsm_counters(node)
    # On a fully bypassed chain the switch PMDs never touch a packet,
    # so their busy time is honestly zero — but the stateful work rode
    # the channel producers (tx_extra_cost on loops this sum excludes
    # by design, source/sink cores are out of scope in every variant).
    # Charge the XFSM evaluations explicitly so the bypass variant
    # reports the policy work it actually did instead of a
    # free-looking 0 cycles/packet.
    busy += pmd_xfsm_seconds
    occupancy = capacity = 0
    if experiment.xfsm_program is not None:
        occupancy = len(experiment.xfsm_program.table)
        capacity = experiment.xfsm_program.table.capacity
    elif experiment.guest_firewall is not None:
        occupancy = len(experiment.guest_firewall.tracker)
        capacity = experiment.guest_firewall.tracker.max_connections
    return {
        "stateful": stateful,
        "bypass": bypass,
        "num_vms": num_vms,
        "flows": flows,
        "offered": result.offered_total,
        "delivered": delivered,
        "lost": result.lost_total,
        "policy_dropped": result.policy_dropped,
        "throughput_mpps": round(result.throughput_mpps, 4),
        "cycles_per_delivered": round(
            seconds_to_cycles(busy) / delivered, 2) if delivered else 0.0,
        "active_bypasses": result.active_bypasses,
        "datapath_xfsm_evaluated": datapath.xfsm_evaluated,
        "pmd_xfsm_evaluated": pmd_evaluated,
        "state_occupancy": occupancy,
        "state_capacity": capacity,
    }


# -- workload 2: syn_flood ----------------------------------------------------


def _start_endpoint(env, pmd, name, profile, rate_pps):
    source = SourceApp("%s.src" % name, pmd, profile=profile,
                       rate_pps=rate_pps)
    sink = ProtoSink("%s.sink" % name, pmd)
    source.start(env)
    sink.start(env)
    return source, sink


def syn_flood_guest(duration, legit_flows, legit_pps, attack_pps):
    """The guest baseline: a 3-VM chain with the StatefulFirewallApp in
    the middle, SYN-flooded from the outside endpoint."""
    env = Environment()
    node = NfvNode(env=env)
    node.create_vm("vmin", ["a0"])
    node.create_vm("vmfw", ["b0", "b1"])
    node.create_vm("vmout", ["c0"])
    node.switch.start()
    for src, dst in (("a0", "b0"), ("b0", "a0"),
                     ("b1", "c0"), ("c0", "b1")):
        node.install_p2p_rule(src, dst)
    firewall = StatefulFirewallApp(
        "vmfw.app",
        inside_port=node.vms["vmfw"].pmd("b0"),
        outside_port=node.vms["vmfw"].pmd("b1"),
        clock=lambda: env.now,
    )
    firewall.start(env)
    node.settle_control_plane()
    inside = _start_endpoint(
        env, node.vms["vmin"].pmd("a0"), "in",
        uniform_profile(flows=legit_flows), legit_pps)
    outside = _start_endpoint(
        env, node.vms["vmout"].pmd("c0"), "out",
        syn_flood_profile(legit_flows=legit_flows), attack_pps)
    env.run(until=env.now + duration)
    for endpoint in (inside, outside):
        endpoint[0].stop()
    env.run(until=env.now + 0.01)
    return _flood_row("guest", True, legit_flows, inside, outside,
                      occupancy=len(firewall.tracker),
                      capacity=firewall.tracker.max_connections,
                      blocked=firewall.blocked)


def syn_flood_xfsm(duration, legit_flows, legit_pps, attack_pps,
                   xfsm=True):
    """The XFSM tier under the same flood: a 2-VM adjacency whose rules
    delegate to the firewall program (or, with ``xfsm=False``, plain
    p-2-p rules — the leak demonstration)."""
    env = Environment()
    node = NfvNode(env=env)
    node.create_vm("vmin", ["in0"])
    node.create_vm("vmout", ["out0"])
    node.switch.start()
    program = None
    if xfsm:
        program = firewall_program(name="fw_flood")
        node.register_xfsm(program)
        node.install_xfsm_rule("in0", "out0", program.name,
                               from_inside=True)
        node.install_xfsm_rule("out0", "in0", program.name,
                               from_inside=False)
    else:
        node.install_p2p_rule("in0", "out0")
        node.install_p2p_rule("out0", "in0")
    node.settle_control_plane()
    inside = _start_endpoint(
        env, node.vms["vmin"].pmd("in0"), "in",
        uniform_profile(flows=legit_flows), legit_pps)
    outside = _start_endpoint(
        env, node.vms["vmout"].pmd("out0"), "out",
        syn_flood_profile(legit_flows=legit_flows), attack_pps)
    env.run(until=env.now + duration)
    for endpoint in (inside, outside):
        endpoint[0].stop()
    env.run(until=env.now + 0.01)
    datapath = node.switch.datapath
    _pmd_evaluated, pmd_drops, _cost = _pmd_xfsm_counters(node)
    blocked = datapath.xfsm_drops + datapath.xfsm_unknown_drops + pmd_drops
    return _flood_row("xfsm", xfsm, legit_flows, inside, outside,
                      occupancy=len(program.table) if program else 0,
                      capacity=program.table.capacity if program else 0,
                      blocked=blocked)


def _flood_row(mode, protected, legit_flows, inside, outside,
               occupancy, capacity, blocked):
    inside_source, inside_sink = inside
    outside_source, outside_sink = outside
    return {
        "mode": mode,
        "protected": protected,
        "legit_flows": legit_flows,
        "inside_offered": inside_source.generated,
        "outside_offered": outside_source.generated,
        # Forward legit traffic (inside UDP) lands at the outside sink;
        # anything TCP at the inside sink is flood that leaked through.
        "legit_delivered_forward": outside_sink.udp_received,
        "legit_delivered_reverse": inside_sink.udp_received,
        "attack_leaked": inside_sink.tcp_received,
        "policy_blocked": blocked,
        "state_occupancy": occupancy,
        "state_capacity": capacity,
    }


# -- workload 3: bypass_state_conservation ------------------------------------


def _reply_and_stranger_profile(flows):
    """Outside traffic for the conservation run: UDP replies that join
    the inside-originated flows (must pass) interleaved with TCP
    strangers that match nothing (must every one be dropped)."""
    templates = list(uniform_profile(flows=flows).templates)
    for flow in range(flows):
        templates.append(_template(make_tcp_packet(
            src_port=7000 + flow, dst_port=81, flags=Tcp.SYN,
        )))
    return TrafficProfile(name="replies+strangers",
                          templates=tuple(templates))


def bypass_state_conservation(seed, flows=4, xfsm=True):
    """Establish -> degrade (frozen consumer) -> re-admit, with the
    stateful firewall riding the channel the whole way."""
    env = Environment()
    node = NfvNode(env=env, watchdog_policy=FAST_WATCHDOG,
                   retry_policy=FAST_READMIT)
    node.create_vm("vmin", ["in0"])
    node.create_vm("vmout", ["out0"])
    node.switch.start()
    program = None
    if xfsm:
        program = firewall_program(name="fw_conserve")
        node.register_xfsm(program)
        node.install_xfsm_rule("in0", "out0", program.name,
                               from_inside=True)
        node.install_xfsm_rule("out0", "in0", program.name,
                               from_inside=False)
    else:
        node.install_p2p_rule("in0", "out0")
        node.install_p2p_rule("out0", "in0")
    inside = _start_endpoint(
        env, node.vms["vmin"].pmd("in0"), "in",
        uniform_profile(flows=flows), 1e4)
    outside = _start_endpoint(
        env, node.vms["vmout"].pmd("out0"), "out",
        _reply_and_stranger_profile(flows), 4e3)
    env.run(until=0.3)
    bypasses_before = node.active_bypasses
    occupancy_before = len(program.table) if program else 0
    # Freeze the next consumer poll for 80 ms — far past the watchdog's
    # stall budget; the carrying link degrades, falls back, re-admits.
    plan = FaultPlan(seed=seed)
    plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,),
                delay=0.08)
    node.install_fault_plan(plan)
    env.run(until=0.8)
    for endpoint in (inside, outside):
        endpoint[0].stop()
    env.run(until=0.95)
    res = node.manager.resilience
    datapath = node.switch.datapath
    pmd_evaluated, _drops, _cost = _pmd_xfsm_counters(node)
    inside_source, inside_sink = inside
    outside_source, outside_sink = outside
    delivered = outside_sink.received + inside_sink.received
    return {
        "protected": xfsm,
        "seed": seed,
        "flows": flows,
        "bypasses_before": bypasses_before,
        "bypasses_after": node.active_bypasses,
        "links_degraded": res.links_degraded,
        "readmissions": res.degraded_readmissions,
        "packets_salvaged": res.packets_salvaged,
        "packets_lost_to_failures": node.manager.packets_lost_to_failures,
        "inside_offered": inside_source.generated,
        "inside_delivered": outside_sink.received,
        "reverse_delivered_udp": inside_sink.udp_received,
        "stranger_leaked": inside_sink.tcp_received,
        "state_handovers": node.manager.xfsm_state_migrations,
        "state_occupancy_before": occupancy_before,
        "state_occupancy_after": len(program.table) if program else 0,
        "datapath_xfsm_evaluated": datapath.xfsm_evaluated,
        "pmd_xfsm_evaluated": pmd_evaluated,
        "watchdog_state_swept": node.manager.watchdog.state_entries_swept,
        "delivered_total": delivered,
    }


# -- checks -------------------------------------------------------------------


def run_checks(doc):
    churn = doc["workloads"]["stateful_churn"]
    flood = doc["workloads"]["syn_flood"]
    conserve = doc["workloads"]["bypass_state_conservation"]
    protected = doc["config"]["xfsm_enabled"]
    checks = [
        ("xfsm_cheaper_than_guest",
         churn["xfsm"]["cycles_per_delivered"]
         < churn["guest_app"]["cycles_per_delivered"],
         "%.2f (%d VMs) < %.2f (%d VMs) cycles/pkt"
         % (churn["xfsm"]["cycles_per_delivered"],
            churn["xfsm"]["num_vms"],
            churn["guest_app"]["cycles_per_delivered"],
            churn["guest_app"]["num_vms"])),
        ("guest_policy_costs_cycles",
         churn["guest_app"]["cycles_per_delivered"]
         > churn["switch_path"]["cycles_per_delivered"],
         "%.2f > %.2f cycles/pkt"
         % (churn["guest_app"]["cycles_per_delivered"],
            churn["switch_path"]["cycles_per_delivered"])),
    ]
    for name, row in sorted(churn.items()):
        checks.append((
            "zero_loss_%s" % name, row["lost"] == 0,
            "%d offered, %d delivered, %d policy-dropped"
            % (row["offered"], row["delivered"], row["policy_dropped"])))
    expected_links = 2 * (churn["xfsm_bypass"]["num_vms"] - 1)
    if protected:
        checks.append((
            "bypass_carries_program",
            churn["xfsm_bypass"]["active_bypasses"] == expected_links
            and churn["xfsm_bypass"]["pmd_xfsm_evaluated"] > 0
            and churn["xfsm_bypass"]["datapath_xfsm_evaluated"] == 0,
            "%d/%d links active, %d PMD evals, %d datapath evals"
            % (churn["xfsm_bypass"]["active_bypasses"], expected_links,
               churn["xfsm_bypass"]["pmd_xfsm_evaluated"],
               churn["xfsm_bypass"]["datapath_xfsm_evaluated"])))
        checks.append((
            "bypass_cheaper_than_datapath",
            0 < churn["xfsm_bypass"]["cycles_per_delivered"]
            < churn["xfsm"]["cycles_per_delivered"],
            "%.2f (channel) < %.2f (datapath) cycles/pkt"
            % (churn["xfsm_bypass"]["cycles_per_delivered"],
               churn["xfsm"]["cycles_per_delivered"])))
    else:
        checks.append((
            "bypass_established_ablated",
            churn["xfsm_bypass"]["active_bypasses"] == expected_links,
            "%d/%d links active (XFSM ablated)"
            % (churn["xfsm_bypass"]["active_bypasses"],
               expected_links)))
    checks.append((
        "flood_writes_no_state_guest",
        flood["guest"]["state_occupancy"]
        <= flood["guest"]["legit_flows"]
        and flood["guest"]["attack_leaked"] == 0,
        "%d entries for %d legit flows, %d SYNs leaked"
        % (flood["guest"]["state_occupancy"],
           flood["guest"]["legit_flows"],
           flood["guest"]["attack_leaked"])))
    if protected:
        checks.append((
            "flood_writes_no_state_xfsm",
            flood["xfsm"]["state_occupancy"]
            <= flood["xfsm"]["legit_flows"]
            and flood["xfsm"]["attack_leaked"] == 0,
            "%d entries for %d legit flows, %d SYNs leaked"
            % (flood["xfsm"]["state_occupancy"],
               flood["xfsm"]["legit_flows"],
               flood["xfsm"]["attack_leaked"])))
    else:
        checks.append((
            "flood_leaks_without_xfsm",
            flood["xfsm"]["attack_leaked"] > 0,
            "%d SYNs delivered with the tier ablated"
            % flood["xfsm"]["attack_leaked"]))
    checks.extend([
        ("conservation_degrade_and_readmit",
         conserve["links_degraded"] >= 1
         and conserve["readmissions"] >= 1
         and conserve["bypasses_after"] == conserve["bypasses_before"],
         "%d degraded, %d re-admitted, %d/%d links active"
         % (conserve["links_degraded"], conserve["readmissions"],
            conserve["bypasses_after"], conserve["bypasses_before"])),
        ("conservation_zero_loss",
         conserve["packets_lost_to_failures"] == 0
         and conserve["inside_delivered"] == conserve["inside_offered"],
         "%d/%d inside frames delivered, %d lost to failures"
         % (conserve["inside_delivered"], conserve["inside_offered"],
            conserve["packets_lost_to_failures"])),
    ])
    if protected:
        checks.extend([
            ("conservation_zero_misclassified",
             conserve["stranger_leaked"] == 0
             and conserve["reverse_delivered_udp"] > 0,
             "%d strangers leaked, %d replies passed"
             % (conserve["stranger_leaked"],
                conserve["reverse_delivered_udp"])),
            ("conservation_state_survives_handover",
             conserve["state_handovers"] >= 1
             and conserve["state_occupancy_after"]
             == conserve["state_occupancy_before"] == conserve["flows"],
             "%d handover(s), occupancy %d -> %d for %d flows"
             % (conserve["state_handovers"],
                conserve["state_occupancy_before"],
                conserve["state_occupancy_after"], conserve["flows"])),
            ("conservation_both_tiers_executed",
             conserve["datapath_xfsm_evaluated"] > 0
             and conserve["pmd_xfsm_evaluated"] > 0,
             "%d datapath + %d PMD evaluations of one program"
             % (conserve["datapath_xfsm_evaluated"],
                conserve["pmd_xfsm_evaluated"])),
        ])
    else:
        checks.append((
            "strangers_leak_without_xfsm",
            conserve["stranger_leaked"] > 0,
            "%d strangers delivered with the tier ablated"
            % conserve["stranger_leaked"]))
    return checks


# -- schema -------------------------------------------------------------------

REQUIRED_CHURN_KEYS = {
    "stateful", "bypass", "num_vms", "flows", "offered", "delivered",
    "lost",
    "policy_dropped", "throughput_mpps", "cycles_per_delivered",
    "active_bypasses", "datapath_xfsm_evaluated", "pmd_xfsm_evaluated",
    "state_occupancy", "state_capacity",
}
REQUIRED_FLOOD_KEYS = {
    "mode", "protected", "legit_flows", "inside_offered",
    "outside_offered", "legit_delivered_forward",
    "legit_delivered_reverse", "attack_leaked", "policy_blocked",
    "state_occupancy", "state_capacity",
}
REQUIRED_CONSERVE_KEYS = {
    "protected", "seed", "flows", "bypasses_before", "bypasses_after",
    "links_degraded", "readmissions", "packets_salvaged",
    "packets_lost_to_failures", "inside_offered", "inside_delivered",
    "reverse_delivered_udp", "stranger_leaked", "state_handovers",
    "state_occupancy_before", "state_occupancy_after",
    "datapath_xfsm_evaluated", "pmd_xfsm_evaluated",
    "watchdog_state_swept", "delivered_total",
}

CHURN_VARIANTS = ("switch_path", "guest_app", "xfsm", "xfsm_bypass")


def validate(doc):
    """Structural schema check; returns a list of problems (empty = ok)."""
    problems = validate_document(doc, family=FAMILY)
    workloads = doc.get("workloads", {})
    for name in ("stateful_churn", "syn_flood",
                 "bypass_state_conservation"):
        if name not in workloads:
            problems.append("missing workload %s" % name)
    churn = workloads.get("stateful_churn", {})
    for variant in CHURN_VARIANTS:
        missing = missing_keys(churn.get(variant), REQUIRED_CHURN_KEYS)
        if missing:
            problems.append("stateful_churn.%s missing %s"
                            % (variant, missing))
    flood = workloads.get("syn_flood", {})
    for variant in ("guest", "xfsm"):
        missing = missing_keys(flood.get(variant), REQUIRED_FLOOD_KEYS)
        if missing:
            problems.append("syn_flood.%s missing %s" % (variant, missing))
    missing = missing_keys(workloads.get("bypass_state_conservation"),
                           REQUIRED_CONSERVE_KEYS)
    if missing:
        problems.append("bypass_state_conservation missing %s" % missing)
    if "xfsm_enabled" not in doc.get("config", {}):
        problems.append("config missing xfsm_enabled")
    return problems


# -- trends -------------------------------------------------------------------


def trend_metrics(doc):
    """Headline numbers for one ``BENCH_TRENDS.jsonl`` line."""
    churn = doc["workloads"]["stateful_churn"]
    flood = doc["workloads"]["syn_flood"]
    conserve = doc["workloads"]["bypass_state_conservation"]
    offered = max(1, conserve["inside_offered"])
    return {
        "stateful_switch_cycles_per_packet":
            churn["switch_path"]["cycles_per_delivered"],
        "stateful_guest_cycles_per_packet":
            churn["guest_app"]["cycles_per_delivered"],
        "stateful_xfsm_cycles_per_packet":
            churn["xfsm"]["cycles_per_delivered"],
        "stateful_xfsm_bypass_cycles_per_packet":
            churn["xfsm_bypass"]["cycles_per_delivered"],
        "synflood_state_occupancy": flood["xfsm"]["state_occupancy"],
        "synflood_attack_leaked": flood["xfsm"]["attack_leaked"],
        "conservation_loss_fraction":
            (offered - conserve["inside_delivered"]) / offered,
        "state_handovers": conserve["state_handovers"],
    }


# -- driver -------------------------------------------------------------------


def run_bench(quick, seed=None, xfsm=True):
    seed = resolve_seed(seed, DEFAULT_SEED)
    chain_duration = 0.004 if quick else 0.012
    flood_duration = 0.004 if quick else 0.01
    doc = new_doc(FAMILY, GENERATOR, quick, seed, {
        "quick": quick,
        "xfsm_enabled": xfsm,
        "chain_duration_s": chain_duration,
        "flood_duration_s": flood_duration,
    })
    doc["workloads"] = {}
    workloads = doc["workloads"]

    rate = 2.5e5
    xfsm_mode = "xfsm" if xfsm else "none"
    print("[1/3] stateful churn: switch path vs guest app vs XFSM "
          "(xfsm_enabled=%s)..." % xfsm, file=sys.stderr)
    workloads["stateful_churn"] = {
        "switch_path": stateful_chain("none", False, chain_duration, rate),
        "guest_app": stateful_chain("guest", False, chain_duration, rate),
        # The policy moves into the network, so the firewall VNF leaves
        # the chain: 2 VMs enforce what took 3.
        "xfsm": stateful_chain(xfsm_mode, False, chain_duration, rate,
                               num_vms=2),
        "xfsm_bypass": stateful_chain(xfsm_mode, True, chain_duration,
                                      rate, num_vms=2),
    }

    print("[2/3] SYN flood boundedness, guest tracker vs XFSM table...",
          file=sys.stderr)
    workloads["syn_flood"] = {
        "guest": syn_flood_guest(flood_duration, legit_flows=8,
                                 legit_pps=1e5, attack_pps=2e5),
        "xfsm": syn_flood_xfsm(flood_duration, legit_flows=8,
                               legit_pps=1e5, attack_pps=2e5, xfsm=xfsm),
    }

    print("[3/3] bypass state conservation: establish -> degrade -> "
          "re-admit...", file=sys.stderr)
    workloads["bypass_state_conservation"] = \
        bypass_state_conservation(seed, xfsm=xfsm)

    return attach_checks(doc, run_checks(doc))
