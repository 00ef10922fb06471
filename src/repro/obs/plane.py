"""The unified observability plane: one object per host (or per run).

:class:`Observability` bundles the metrics registry, the coverage
counters, the sampled path tracer, the per-PMD cycle report and the
periodic snapshotter, and knows how to subscribe every existing
subsystem — without changing how those subsystems count.  All
registrations are *lazy collectors*: the wrapped object keeps mutating
its plain attributes and is read only when something scrapes.
"""

from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.obs.cycles import (
    CYCLES_PER_SECOND,
    PmdCycleReport,
    StageAccounting,
    seconds_to_cycles,
)
from repro.obs.export import Snapshotter, prometheus_text
from repro.obs.registry import MetricsRegistry, Sample
from repro.obs.trace import PathTracer
from repro.sim.pollloop import PollLoop


class Observability:
    """Registry + tracer + cycle report + snapshotter for one host."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        trace_sample_interval: Optional[int] = None,
    ) -> None:
        self.clock = clock or (lambda: 0.0)
        self.registry = MetricsRegistry()
        self.tracer = PathTracer(
            clock=self.clock,
            sample_interval=trace_sample_interval,
        )
        self.snapshotter = Snapshotter(self.registry, self.clock)
        self._snapshot_loop = None
        # Poll loops registered directly (guest apps, sources, sinks)
        # and vswitchds whose PMD loops are discovered at scrape time
        # (they only exist after start()).
        self._loops: List[Tuple[Any, Optional[StageAccounting]]] = []
        self._switches: List[Any] = []
        # Guest PMDs keyed by (vm, port): a repaired VM re-registers the
        # same key and the existing collector reads the replacement —
        # no duplicate sample families, no stale-PMD exports.
        self._guest_pmds: dict = {}
        self.registry.register_object(
            "repro_trace", self.tracer,
            ("packets_seen", "traces_started", "traces_finished"),
            help="path tracer sampling progress",
        )

    # -- subsystem registration ----------------------------------------------

    def register_vswitchd(self, switch) -> None:
        """Track a vSwitchd: datapath counters, EMC, per-PMD cycles."""
        self._switches.append(switch)
        name = switch.name
        datapath = switch.datapath
        self.registry.register_object(
            "repro_datapath", datapath,
            ("packets_processed", "emc_hits", "smc_hits",
             "megaflow_hits",
             "classifier_hits", "pipeline_drops", "action_drops",
             "unknown_port_drops", "packets_mirrored", "flow_batches",
             "packets_batched"),
            labels={"switch": name},
            help="vSwitch fast-path lookup and forwarding counters",
        )

        def collect_upcalls() -> Iterable[Sample]:
            # miss_upcalls lived in the register_object tuple above
            # until the reason split; exported per-reason now.
            for reason, value in (("no_match", datapath.upcalls_no_match),
                                  ("action", datapath.upcalls_action)):
                yield Sample(
                    "repro_datapath_miss_upcalls_total",
                    {"switch": name, "reason": reason},
                    float(value), "counter",
                    "upcalls raised by the fast path, by reason",
                )

        self.registry.register_collector(collect_upcalls)
        self.registry.register_object(
            "repro_emc", datapath.emc,
            ("hits", "misses", "stale_hits", "insertions",
             "insertions_skipped", "evictions", "stale_evictions",
             "precise_evictions"),
            labels={"switch": name},
            help="exact-match cache statistics",
        )
        self.registry.register_object(
            "repro_smc", datapath.smc,
            ("hits", "misses", "insertions", "replacements"),
            labels={"switch": name},
            help="signature-match cache statistics",
        )
        self.registry.register_object(
            "repro_megaflow", datapath.megaflow,
            ("hits", "misses", "insertions", "refreshes", "evictions",
             "stale_evictions", "invalidations", "stale_lookups"),
            labels={"switch": name},
            help="megaflow (wildcard) cache statistics",
        )
        self.registry.register_object(
            "repro_flowplan", datapath.plans,
            ("entries", "compiles", "flushes"),
            labels={"switch": name},
            help="flow plans compiled per resolved traversal",
        )
        self.registry.register_object(
            "repro_rekey", datapath.rekeys,
            ("entries", "hits", "misses"),
            labels={"switch": name},
            help="flow keys re-keyed per (flow, in_port)",
        )
        # Precise-invalidation coverage events flow through the shared
        # coverage counters (control path only: flowmod frequency).
        datapath.coverage = self.registry.coverage

        def collect_batch_fill() -> Iterable[Sample]:
            for fill, count in sorted(datapath.batch_fill_counts.items()):
                yield Sample(
                    "repro_datapath_batch_fill_total",
                    {"switch": name, "fill": str(fill)},
                    float(count), "counter",
                    "flow batches by packets-per-batch (vectorized path)",
                )

        self.registry.register_collector(collect_batch_fill)

        def collect_loops() -> Iterable[Sample]:
            for loop, stages in self._switch_loop_pairs(switch):
                yield from _loop_samples(loop, stages)
            env = getattr(switch, "env", None)
            if env is not None:
                yield Sample(
                    "repro_engine_events_total", {"switch": name},
                    float(env.events_processed), "counter",
                    "events delivered by the engine that drives the "
                    "switch (deterministic host-cost proxy)",
                )

        self.registry.register_collector(collect_loops)

        scheduler = getattr(switch, "scheduler", None)
        if scheduler is not None:
            self._register_sched(switch, scheduler, name)
        self._register_overload(switch, name)
        self._register_state(switch, name)

    def _register_state(self, switch, name: str) -> None:
        """Stateful fast-path tier (XFSM programs + their state tables).

        Programs register with the datapath at runtime, so everything is
        discovered at scrape time — an empty registry exports nothing.
        """
        datapath = switch.datapath

        def collect_state() -> Iterable[Sample]:
            for counter in ("xfsm_evaluated", "xfsm_drops",
                            "xfsm_unknown_drops"):
                yield Sample("repro_state_%s_total" % counter,
                             {"switch": name},
                             float(getattr(datapath, counter)), "counter",
                             "datapath XFSM execution counters")
            for program_name in sorted(datapath.xfsm_programs):
                program = datapath.xfsm_programs[program_name]
                labels = {"switch": name, "program": program_name}
                table = program.table
                yield Sample("repro_state_table_occupancy", labels,
                             float(table.occupancy), "gauge",
                             "state-table entries currently held")
                yield Sample("repro_state_table_capacity", labels,
                             float(table.capacity), "gauge",
                             "state-table entry bound")
                for counter in ("lookups", "hits", "misses", "inserts",
                                "updates", "evictions_idle",
                                "evictions_capacity", "invalidations",
                                "deletes"):
                    yield Sample("repro_state_table_%s_total" % counter,
                                 labels,
                                 float(getattr(table, counter)), "counter",
                                 "per-program state-table counters")
                for counter, value in program.counters().items():
                    yield Sample("repro_state_program_%s_total" % counter,
                                 labels, float(value), "counter",
                                 "per-program XFSM verdict counters")

        self.registry.register_collector(collect_state)

    def _register_overload(self, switch, name: str) -> None:
        """Overload-control, policer and controller-channel metrics."""
        labels = {"switch": name}
        datapath = switch.datapath
        coverage = self.registry.coverage
        queue = getattr(switch, "upcall_queue", None)
        failmode = getattr(switch, "failmode", None)
        monitor = getattr(switch, "overload", None)
        for hooked in (queue, failmode, monitor):
            if hooked is not None:
                hooked.coverage = coverage

        def collect_policers() -> Iterable[Sample]:
            # Policers are created/removed at runtime; discovered lazily.
            for ofport in sorted(datapath.policers):
                policer = datapath.policers[ofport]
                port_labels = dict(labels)
                port_labels["ofport"] = str(ofport)
                yield Sample("repro_policer_admitted_total", port_labels,
                             float(policer.admitted), "counter",
                             "packets admitted by the ingress policer")
                yield Sample("repro_policer_dropped_total", port_labels,
                             float(policer.dropped), "counter",
                             "packets dropped by the ingress policer")
                yield Sample("repro_policer_rate_pps", port_labels,
                             float(policer.rate_pps), "gauge",
                             "configured policing rate")
                yield Sample("repro_policer_tokens", port_labels,
                             float(policer.bucket.tokens), "gauge",
                             "tokens currently in the policing bucket")

        self.registry.register_collector(collect_policers)

        def collect_overload() -> Iterable[Sample]:
            if queue is not None:
                yield Sample("repro_overload_upcall_depth", dict(labels),
                             float(queue.depth), "gauge",
                             "upcalls currently queued")
                yield Sample("repro_overload_upcall_high_watermark",
                             dict(labels),
                             float(queue.high_watermark), "gauge",
                             "deepest the upcall queue has been")
                yield Sample("repro_overload_upcall_dispatched_total",
                             dict(labels),
                             float(queue.dispatched), "counter",
                             "upcalls served by the slow path")
                for klass, value in (
                        ("miss", queue.admitted_miss),
                        ("control", queue.admitted_control)):
                    class_labels = dict(labels)
                    class_labels["class"] = klass
                    yield Sample(
                        "repro_overload_upcall_admitted_total",
                        class_labels, float(value), "counter",
                        "upcalls admitted into the bounded queue",
                    )
                for why, value in sorted(queue.shed.items()):
                    shed_labels = dict(labels)
                    shed_labels["reason"] = why
                    yield Sample(
                        "repro_overload_upcall_shed_total", shed_labels,
                        float(value), "counter",
                        "upcalls shed at admission, by reason",
                    )
            for ofport, level in sorted(datapath.rx_shed.items()):
                port_labels = dict(labels)
                port_labels["ofport"] = str(ofport)
                yield Sample("repro_overload_rx_shed_level", port_labels,
                             level, "gauge",
                             "active RX shed fraction for one port")
            for ofport, drops in sorted(datapath.rx_early_drops.items()):
                port_labels = dict(labels)
                port_labels["ofport"] = str(ofport)
                yield Sample("repro_overload_rx_early_drops_total",
                             port_labels, float(drops), "counter",
                             "packets shed at RX before classification")
            if failmode is not None:
                mode_labels = dict(labels)
                mode_labels["mode"] = failmode.mode.value
                yield Sample("repro_overload_failmode_connected",
                             mode_labels,
                             1.0 if failmode.state == "connected" else 0.0,
                             "gauge", "controller connectivity as seen "
                             "by the fail-mode manager")
                for counter in ("outages", "reconnect_attempts",
                                "reconnect_failures", "reconnects",
                                "packet_ins_buffered",
                                "packet_ins_replayed", "packet_ins_shed",
                                "fallback_flows_removed",
                                "frozen_expiry_skips"):
                    yield Sample(
                        "repro_overload_failmode_%s_total" % counter,
                        dict(labels),
                        float(getattr(failmode, counter)), "counter",
                        "fail-mode manager lifecycle counters",
                    )
                yield Sample("repro_overload_failmode_pending_packet_ins",
                             dict(labels),
                             float(failmode.pending_packet_ins), "gauge",
                             "packet-ins buffered for replay (secure)")
                fallback = failmode.fallback
                for counter in ("packets_forwarded", "floods",
                                "flows_installed"):
                    yield Sample(
                        "repro_overload_fallback_%s_total" % counter,
                        dict(labels),
                        float(getattr(fallback, counter)), "counter",
                        "standalone learning-fallback activity",
                    )
            if monitor is not None:
                for counter in ("checks_run", "overloaded_checks",
                                "shed_increases", "shed_decreases",
                                "deferred_to_rebalance"):
                    yield Sample(
                        "repro_overload_monitor_%s_total" % counter,
                        dict(labels),
                        float(getattr(monitor, counter)), "counter",
                        "overload monitor decisions",
                    )
            connection = getattr(switch.bridge, "connection", None)
            if connection is not None:
                yield Sample("repro_controller_pending_for_switch",
                             dict(labels),
                             float(connection.pending_for_switch),
                             "gauge", "messages queued toward the switch")
                yield Sample("repro_controller_pending_for_controller",
                             dict(labels),
                             float(connection.pending_for_controller),
                             "gauge",
                             "messages queued toward the controller")
                yield Sample("repro_controller_connected", dict(labels),
                             1.0 if connection.connected else 0.0,
                             "gauge", "OpenFlow channel is up")
                for counter in ("dropped_to_switch",
                                "dropped_to_controller",
                                "dropped_disconnected",
                                "faults_dropped"):
                    yield Sample(
                        "repro_controller_%s_total" % counter,
                        dict(labels),
                        float(getattr(connection, counter)), "counter",
                        "OpenFlow channel drops (bounded queues, "
                        "outages, injected faults)",
                    )

        self.registry.register_collector(collect_overload)

    def _register_sched(self, switch, scheduler, name: str) -> None:
        """rxq scheduler + auto-LB metrics and coverage for one switch."""
        labels = {"switch": name}
        coverage = self.registry.coverage
        scheduler.on_apply.append(
            lambda plan: coverage("sched_rebalance_applied"))
        scheduler.on_move.append(
            lambda port, src, dst: coverage("sched_port_moved"))

        def collect_sched() -> Iterable[Sample]:
            tracker = scheduler.tracker
            yield Sample("repro_sched_rebalances_total", dict(labels),
                         float(scheduler.rebalances), "counter",
                         "rebalance plans applied")
            yield Sample("repro_sched_port_moves_total", dict(labels),
                         float(scheduler.port_moves), "counter",
                         "individual port moves applied")
            yield Sample("repro_sched_intervals_total", dict(labels),
                         float(tracker.intervals), "counter",
                         "load-tracker measurement intervals closed")
            for core, load in enumerate(
                    tracker.core_loads(scheduler.n_cores)):
                core_labels = dict(labels)
                core_labels["core"] = str(core)
                yield Sample(
                    "repro_sched_core_load_cycles", core_labels,
                    float(seconds_to_cycles(load)), "gauge",
                    "EWMA per-interval cycles attributed to one core",
                )
                yield Sample(
                    "repro_sched_core_ports", core_labels,
                    float(len(scheduler.core_ports[core])), "gauge",
                    "ports currently assigned to one core",
                )
            for (ofport, core), load in tracker.pairs():
                pair_labels = dict(labels)
                pair_labels["ofport"] = str(ofport)
                pair_labels["core"] = str(core)
                yield Sample(
                    "repro_sched_port_load_cycles", pair_labels,
                    float(seconds_to_cycles(load)), "gauge",
                    "EWMA per-interval cycles for one (port, core) pair",
                )
            auto_lb = getattr(switch, "auto_lb", None)
            if auto_lb is None:
                return
            yield Sample("repro_sched_autolb_checks_total", dict(labels),
                         float(auto_lb.checks_run), "counter",
                         "auto-LB check passes")
            yield Sample("repro_sched_autolb_applied_total",
                         dict(labels),
                         float(auto_lb.rebalances_applied), "counter",
                         "auto-LB rebalances applied")
            for reason in ("warmup", "no_overload", "no_moves",
                           "small_improvement"):
                skip_labels = dict(labels)
                skip_labels["reason"] = reason
                yield Sample(
                    "repro_sched_autolb_skipped_total", skip_labels,
                    float(getattr(auto_lb, "skipped_" + reason)),
                    "counter", "auto-LB checks skipped by reason",
                )
            yield Sample(
                "repro_sched_autolb_overload_overrides_total",
                dict(labels), float(auto_lb.overload_overrides),
                "counter",
                "no-overload skips overridden by active RX shedding",
            )
            plan = scheduler.last_plan
            if plan is not None:
                yield Sample(
                    "repro_sched_last_improvement", dict(labels),
                    plan.improvement, "gauge",
                    "variance improvement of the last applied plan",
                )

        self.registry.register_collector(collect_sched)

    def register_poll_loop(self, loop,
                           stages: Optional[StageAccounting] = None) -> None:
        """Track one non-switch poll loop (guest app, source, sink)."""
        self._loops.append((loop, stages))
        self.registry.register_collector(
            lambda: _loop_samples(loop, stages)
        )

    def register_ring(self, ring, role: str) -> None:
        """Export a ring's lifetime stats (enqueue/partial/integrity)."""
        self.registry.register_object(
            "repro_ring", ring,
            ("enqueued", "dequeued", "enqueue_failures",
             "partial_enqueues", "dequeue_failures",
             "corruptions_injected"),
            labels={"ring": ring.name, "role": role},
            help="rte_ring lifetime statistics",
        )

    def register_dpdkr_port(self, rings) -> None:
        """Both rings of one dpdkr port (the normal channel)."""
        self.register_ring(rings.to_switch, role="normal_tx")
        self.register_ring(rings.to_guest, role="normal_rx")

    def register_guest_pmd(self, pmd, vm_name: str, port_name: str) -> None:
        """Per-channel RX/TX split of one dual-channel guest PMD.

        Keyed on (vm, port): registering again — the chain repairer
        re-creating a crashed VM on the same ports — swaps the tracked
        PMD under the existing collector instead of stacking duplicates.
        """
        key = (vm_name, port_name)
        first = key not in self._guest_pmds
        self._guest_pmds[key] = pmd
        if not first:
            return
        labels = {"vm": vm_name, "port": port_name}
        attributes = (
            "tx_via_bypass", "tx_via_normal", "rx_via_bypass",
            "rx_via_normal", "tx_stall_rejects", "rx_integrity_drops",
            "bypass_congestion_events",
        )

        def collect() -> Iterable[Sample]:
            current = self._guest_pmds[key]
            for attr in attributes:
                yield Sample("repro_pmd_channel_%s" % attr, dict(labels),
                             float(getattr(current, attr)), "counter",
                             "guest PMD per-channel packet counters")

        self.registry.register_collector(collect)

    def register_conntrack(self, tracker, vm_name: str) -> None:
        """Track a guest ConnectionTracker (lazy: the tracker keeps
        mutating its plain counters and is read only at scrape time)."""
        labels = {"vm": vm_name}

        def collect() -> Iterable[Sample]:
            yield Sample("repro_conntrack_connections", dict(labels),
                         float(len(tracker)), "gauge",
                         "connections currently tracked")
            yield Sample("repro_conntrack_capacity", dict(labels),
                         float(tracker.max_connections), "gauge",
                         "connection-table bound")
            for counter in ("created_total", "evicted_idle",
                            "evicted_on_lookup", "rejected_full"):
                yield Sample("repro_conntrack_%s" % counter
                             + ("" if counter.endswith("total")
                                else "_total"),
                             dict(labels),
                             float(getattr(tracker, counter)), "counter",
                             "connection tracker lifecycle counters")

        self.registry.register_collector(collect)

    def register_mempool(self, pool) -> None:
        """Track a Mempool: occupancy, lifecycle counters, and the
        ownership ledger's per-holder in-flight gauge."""
        labels = {"pool": pool.name}

        def collect() -> Iterable[Sample]:
            yield Sample("repro_mempool_size", dict(labels),
                         float(pool.size), "gauge", "pool capacity")
            yield Sample("repro_mempool_available", dict(labels),
                         float(pool.available), "gauge",
                         "mbufs currently free")
            yield Sample("repro_mempool_in_use", dict(labels),
                         float(pool.in_use), "gauge",
                         "mbufs currently allocated")
            for counter in ("alloc_count", "free_count_total",
                            "alloc_failures", "double_free_detected",
                            "reclaim_sweeps", "reclaimed_total",
                            "leaked_found_total", "leaked_permanent"):
                yield Sample("repro_mempool_%s_total" % counter,
                             dict(labels),
                             float(getattr(pool, counter)), "counter",
                             "mempool lifecycle counters")
            for holder, count in sorted(pool.holders().items()):
                holder_labels = dict(labels)
                holder_labels["holder"] = holder
                yield Sample("repro_mempool_held", holder_labels,
                             float(count), "gauge",
                             "mbufs charged to one ledger holder")

        self.registry.register_collector(collect)

    def register_resilience(self, counters) -> None:
        """Every ResilienceCounters field, one labeled sample each."""

        def collect() -> Iterable[Sample]:
            for field in dataclass_fields(counters):
                yield Sample(
                    "repro_resilience_total",
                    {"counter": field.name},
                    float(getattr(counters, field.name)),
                    "counter",
                    "bypass control-plane self-healing counters",
                )

        self.registry.register_collector(collect)

    def register_manager(self, manager) -> None:
        """Track a BypassManager: resilience, watchdog, channel stats
        blocks (discovered lazily — links come and go), and coverage
        counters for every lifecycle transition."""
        self.register_resilience(manager.resilience)

        def collect() -> Iterable[Sample]:
            yield Sample("repro_watchdog_checks_total", {},
                         float(manager.watchdog.checks_run), "counter",
                         "watchdog check passes")
            yield Sample("repro_watchdog_state_swept_total", {},
                         float(manager.watchdog.state_entries_swept),
                         "counter",
                         "idle state entries swept off bypass channels")
            yield Sample("repro_state_channels_provisioned_total", {},
                         float(manager.xfsm_channels_provisioned),
                         "counter", "bypass channels shipped with an "
                         "XFSM program")
            yield Sample("repro_state_migrations_total", {},
                         float(manager.xfsm_state_migrations),
                         "counter", "stateful channels degraded with "
                         "state conserved onto the switch path")
            yield Sample("repro_bypass_active_links", {},
                         float(len(manager.active_links)), "gauge",
                         "bypass links currently tracked")
            yield Sample("repro_bypass_quarantined_links", {},
                         float(len(manager.quarantined_links)), "gauge",
                         "links in quarantine")
            yield Sample("repro_bypass_packets_lost_total", {},
                         float(manager.packets_lost_to_failures),
                         "counter", "packets lost to failures")
            for stats in manager.stats_blocks:
                labels = {"channel": stats.name}
                for attr in ("tx_packets", "tx_bytes", "rx_dequeued",
                             "rx_integrity_errors"):
                    yield Sample("repro_bypass_%s_total" % attr, labels,
                                 float(getattr(stats, attr)), "counter",
                                 "bypass channel shared-memory counters")
                yield Sample("repro_bypass_rx_epoch", labels,
                             float(stats.rx_epoch), "gauge",
                             "consumer heartbeat epoch")

        self.registry.register_collector(collect)
        coverage = self.registry.coverage
        manager.on_link_active.append(
            lambda bl: coverage("bypass_link_active"))
        manager.on_link_removed.append(
            lambda bl: coverage("bypass_link_removed"))
        manager.on_link_degraded.append(
            lambda bl, verdict: coverage(
                "bypass_degraded_%s" % verdict.value))
        manager.on_link_readmitted.append(
            lambda bl: coverage("bypass_link_readmitted"))
        manager.on_readmission_deferred.append(
            lambda key: coverage("bypass_readmission_deferred"))

    # -- per-PMD cycle accounting ----------------------------------------------

    def _switch_loop_pairs(self, switch):
        stages = getattr(switch, "_core_stages", [])
        loops = getattr(switch, "_pmd_loops", [])
        for index, loop in enumerate(loops):
            yield loop, (stages[index] if index < len(stages) else None)

    def pmd_cycle_report(self) -> PmdCycleReport:
        """Fresh ``pmd/stats-show`` view over every tracked loop."""
        report = PmdCycleReport()
        for switch in self._switches:
            for loop, stages in self._switch_loop_pairs(switch):
                report.track(loop, stages)
        for loop, stages in self._loops:
            report.track(loop, stages)
        return report

    # -- snapshotting -------------------------------------------------------------

    def start_snapshotting(self, env, period: float = 0.001):
        """Run the snapshotter on a housekeeping PollLoop (like the
        bypass watchdog); returns the loop."""
        if self._snapshot_loop is not None:
            raise RuntimeError("snapshotter already running")
        self._snapshot_loop = PollLoop(
            env, "obs.snapshot", self.snapshotter.iteration, period=period,
        ).start()
        return self._snapshot_loop

    def snapshot_now(self) -> None:
        """Take one snapshot immediately (run end, appctl)."""
        self.snapshotter.iteration()

    # -- reporting -----------------------------------------------------------------

    def report(self, trace_limit: int = 10) -> str:
        """The full end-of-run observability report (CLI ``--obs-report``)."""
        sections = [
            ("pmd/stats-show", self.pmd_cycle_report().render()),
            ("coverage/show", self.registry.coverage_report()),
            ("trace/dump", self.tracer.render(limit=trace_limit)),
            ("metrics/dump", prometheus_text(self.registry).rstrip("\n")),
        ]
        blocks = []
        for title, body in sections:
            rule = "=" * len(title)
            blocks.append("%s\n%s\n%s\n%s" % (rule, title, rule, body))
        return "\n\n".join(blocks)

    def __repr__(self) -> str:
        return "<Observability switches=%d loops=%d tracing=%s>" % (
            len(self._switches), len(self._loops),
            self.tracer.sample_interval,
        )


def _loop_samples(loop, stages: Optional[StageAccounting]
                  ) -> Iterable[Sample]:
    labels = {"loop": loop.name}
    yield Sample("repro_pollloop_busy_seconds", dict(labels),
                 loop.busy_time, "counter",
                 "simulated seconds the loop did useful work")
    yield Sample("repro_pollloop_idle_seconds", dict(labels),
                 loop.idle_time, "counter",
                 "simulated seconds the loop polled empty")
    yield Sample("repro_pollloop_iterations_total", dict(labels),
                 float(loop.iterations), "counter", "loop iterations")
    yield Sample("repro_pollloop_idle_iterations_total", dict(labels),
                 float(loop.idle_iterations), "counter",
                 "loop iterations that found nothing to do")
    yield Sample("repro_pollloop_parks_total", dict(labels),
                 float(loop.parks), "counter",
                 "times the loop left the event queue to wait for work")
    yield Sample("repro_pollloop_replayed_polls_total", dict(labels),
                 float(loop.replayed_polls), "counter",
                 "idle iterations accounted by replay, not dispatched")
    yield Sample("repro_pollloop_busy_cycles", dict(labels),
                 float(seconds_to_cycles(loop.busy_time)), "counter",
                 "busy cycles at %.1f GHz" % (CYCLES_PER_SECOND / 1e9))
    yield Sample("repro_pollloop_idle_cycles", dict(labels),
                 float(seconds_to_cycles(loop.idle_time)), "counter",
                 "idle cycles at %.1f GHz" % (CYCLES_PER_SECOND / 1e9))
    yield Sample("repro_pollloop_utilization", dict(labels),
                 loop.utilization, "gauge",
                 "busy fraction of elapsed loop time")
    if stages is not None:
        for stage, cycles, packets in stages.rows():
            stage_labels = dict(labels)
            stage_labels["stage"] = stage
            yield Sample("repro_pmd_stage_cycles", stage_labels,
                         float(cycles), "counter",
                         "cycles attributed to one datapath stage")
            if packets:
                yield Sample("repro_pmd_stage_packets_total",
                             stage_labels, float(packets), "counter",
                             "packets attributed to one datapath stage")
