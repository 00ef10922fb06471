"""Tests for the unified observability plane and its operator surface:
registration coverage, metrics/dump completeness, appctl commands, cycle
reconciliation and the CLI artifact dump."""

from dataclasses import fields as dataclass_fields

import pytest

from repro.bench.harness import Rfc2544Harness
from repro.cli import main as cli_main
from repro.experiments.chain import ChainExperiment
from repro.mem import Mempool
from repro.obs import MetricsRegistry, Observability
from repro.obs.cycles import seconds_to_cycles
from repro.obs.plane import OPERATOR_VIEWS
from repro.obs.export import (
    parse_jsonl_snapshots,
    prometheus_text,
    validate_prometheus_text,
)
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp
from repro.traffic.sink import SinkApp
from repro.vswitch.appctl import AppCtl
from tests.helpers import capacity_runner, metric_shape_problems


def run_bypass_chain(**kwargs):
    kwargs.setdefault("num_vms", 3)
    kwargs.setdefault("bypass", True)
    kwargs.setdefault("memory_only", True)
    kwargs.setdefault("duration", 0.002)
    experiment = ChainExperiment(**kwargs)
    result = experiment.run()
    return experiment, result


@pytest.fixture(scope="module")
def chains():
    """A vanilla and a bypass 3-VM chain, run once for the module."""
    return {bypass: run_bypass_chain(bypass=bypass)[0]
            for bypass in (False, True)}


def two_vm_node():
    node = NfvNode()
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    node.settle_control_plane()
    return node


def sample_names(text):
    return [line.split("{")[0].split()[0] for line in text.splitlines()
            if line and not line.startswith("#")]


class TestScrapeShape:
    """What a scraper may rely on, checked on real scrapes: the
    registry takes whatever its collectors yield."""

    def test_every_name_is_one_group(self, chains):
        for registry in (two_vm_node().obs.registry,
                         chains[True].obs.registry):
            text = prometheus_text(registry)
            names = sample_names(text)
            groups = [name for index, name in enumerate(names)
                      if index == 0 or names[index - 1] != name]
            assert len(groups) == len(set(groups))
            assert text.count("# TYPE ") == len(set(names))
            validate_prometheus_text(text)

    def test_one_kind_one_label_set_no_duplicate_series(self, chains):
        harnesses = MetricsRegistry()
        for scenario in ("a", "b"):
            harness = Rfc2544Harness(capacity_runner(1e6),
                                     registry=harnesses,
                                     scenario=scenario)
            harness.zero_loss_search(1e5, 1e7)
        for registry in (chains[False].obs.registry,
                         chains[True].obs.registry, harnesses):
            samples = registry.collect()
            assert len({sample.name for sample in samples}) > 5
            assert metric_shape_problems(samples) == []

    def test_a_counter_name_ends_in_total_once(self):
        node = two_vm_node()
        pool = Mempool("tracked", size=8)
        node.track_mempool(pool)
        pool.put(pool.get())
        samples = node.obs.registry.collect()
        assert [sample.name for sample in samples
                if sample.name.endswith("_total_total")] == []
        assert [sample.name for sample in samples
                if sample.name.endswith("_total")
                and sample.kind != "counter"] == []
        assert node.obs.registry.sample_value(
            "repro_mempool_free_count_total", {"pool": "tracked"}) == 1


class TestResilienceExport:
    def test_every_resilience_field_reachable_via_metrics_dump(self):
        # The acceptance criterion: each ResilienceCounters field shows
        # up in the appctl metrics/dump output, labeled by field name.
        node = two_vm_node()
        appctl = AppCtl(node.switch, node.manager, obs=node.obs)
        text = appctl.run("metrics/dump")
        for field in dataclass_fields(node.manager.resilience):
            assert 'repro_resilience_total{counter="%s"}' % field.name \
                in text, field.name
        # And the values are live, not copies.
        node.manager.resilience.retries += 5
        assert node.obs.registry.sample_value(
            "repro_resilience_total", {"counter": "retries"}) == 5

    def test_lifecycle_coverage_counters(self):
        experiment, _result = run_bypass_chain()
        registry = experiment.obs.registry
        assert registry.coverage_counters()["bypass_link_active"] == 4
        shown = AppCtl(experiment.node.switch, obs=experiment.obs).run(
            "coverage/show")
        assert 'coverage_total{event="bypass_link_active"} 4' in shown


class TestFastPathExport:
    def test_smc_and_batch_fill_metrics_exported(self):
        # A vanilla chain pushes everything through the vectorized fast
        # path, so the SMC family and the fill histogram must be live.
        experiment, _result = run_bypass_chain(num_vms=2, bypass=False)
        text = prometheus_text(experiment.obs.registry)
        assert "repro_datapath_smc_hits" in text
        assert "repro_datapath_flow_batches" in text
        assert "repro_smc_hits" in text
        assert "repro_emc_precise_evictions" in text
        assert 'repro_datapath_batch_fill_total{' in text
        datapath = experiment.node.switch.datapath
        assert datapath.flow_batches > 0
        assert experiment.obs.registry.sample_value(
            "repro_datapath_flow_batches",
            {"switch": experiment.node.switch.name},
        ) == datapath.flow_batches


    def test_plan_and_rekey_memos_scale_with_flows_not_packets(self):
        # The deterministic claim behind "resolve once, replay per
        # packet": on a steady EMC-hit chain a plan is compiled once per
        # distinct traversal and a template key re-keyed once per
        # (flow, ingress port), however many packets follow.
        flows = 6
        seen = []
        for duration in (0.002, 0.004):
            experiment, _result = run_bypass_chain(
                bypass=False, flows=flows, duration=duration)
            switch = experiment.node.switch
            datapath = switch.datapath
            plans, rekeys = datapath.plans, datapath.rekeys
            rules_hit = [entry for entry in switch.bridge.table.entries()
                         if entry.packet_count]
            rx_ports = [port for port in datapath.ports.values()
                        if port.rx_packets]
            assert plans.compiles == plans.entries == len(rules_hit) == 4
            assert plans.flushes == 0
            assert rekeys.misses == rekeys.entries == flows * len(rx_ports)
            assert rekeys.hits + rekeys.misses == datapath.packets_processed
            seen.append((plans.compiles, rekeys.misses,
                         datapath.packets_processed))
        assert seen[0][:2] == seen[1][:2]
        assert seen[1][2] > 1.5 * seen[0][2]
        # Same numbers on both operator surfaces.
        labels = {"switch": switch.name}
        registry = experiment.obs.registry
        for family, memo, attrs in (
                ("repro_flowplan", plans,
                 ("entries", "compiles", "flushes")),
                ("repro_rekey", rekeys, ("entries", "hits", "misses"))):
            for attr in attrs:
                assert registry.sample_value(
                    "%s_%s" % (family, attr), labels) == getattr(memo, attr)
        shown = AppCtl(switch, obs=experiment.obs).run("dpif/fastpath-show")
        for family, memo, attrs in (
                ("repro_flowplan", plans,
                 ("entries", "compiles", "flushes")),
                ("repro_rekey", rekeys, ("entries", "hits", "misses"))):
            for attr in attrs:
                assert ('%s_%s{switch="%s"} %d\n' % (
                    family, attr, switch.name, getattr(memo, attr))
                    in shown)
        assert plans.entries == plans.compiles == 4 and not plans.flushes


class TestAppctlObservability:
    def test_commands_require_wiring(self):
        node = NfvNode()
        appctl = AppCtl(node.switch)  # no obs passed
        assert {"pmd/stats-show", "coverage/show"} <= set(OPERATOR_VIEWS)
        for command in ("metrics/dump", "trace/dump") + tuple(OPERATOR_VIEWS):
            assert appctl.run(command) == "observability: not wired"

    def test_full_surface_after_a_run(self):
        experiment, _result = run_bypass_chain(trace_sample=64)
        node = experiment.node
        appctl = AppCtl(node.switch, node.manager, obs=node.obs)
        stats = appctl.run("pmd/stats-show")
        assert 'repro_pollloop_busy_cycles{loop="ovs.pmd0"}' in stats
        assert 'repro_pollloop_idle_cycles{loop="vm2.app"}' in stats
        assert 'repro_pmd_stage_cycles{loop="vm2.app",stage="rx_bypass"}' \
            in stats
        coverage = appctl.run("coverage/show")
        assert 'coverage_total{event="bypass_link_active"}' in coverage
        metrics = appctl.run("metrics/dump")
        validate_prometheus_text(metrics + "\n")
        traces = appctl.run("trace/dump", "2")
        assert "showing 2" in traces
        # The cache statistics answer under one name only.
        assert "repro_datapath_emc_hits" in appctl.run("dpif/fastpath-show")
        assert appctl.run("pmd-stats-show").startswith("unknown command")


class TestCycleReconciliation:
    def test_stage_tables_reconcile_with_poll_loops(self):
        experiment, result = run_bypass_chain(trace_sample=64)
        report = experiment.obs.pmd_cycle_report()
        # Stage attribution sums to what each loop ran.
        assert report.reconciles()
        # Both switch PMD cores and the guest app loops are tracked.
        names = [loop.name for loop in report.loops]
        assert any("pmd" in name for name in names)
        assert any("vm2.app" in name for name in names)
        # busy + idle cycles match the loops' own time accounting.
        for loop in report.loops:
            busy = seconds_to_cycles(loop.busy_time)
            idle = seconds_to_cycles(loop.idle_time)
            assert busy + idle == seconds_to_cycles(
                loop.busy_time + loop.idle_time
            ) or abs((busy + idle)
                     - seconds_to_cycles(loop.busy_time + loop.idle_time)
                     ) <= 1  # independent rounding
        assert result.throughput_mpps > 0

    def test_vanilla_stage_tables_sum_to_busy_time(self, chains):
        report = chains[False].obs.pmd_cycle_report()
        worked = {loop.name for loop, stages in report.loop_rows()
                  if stages is not None and loop.busy_time > 0}
        assert {"ovs.pmd0", "ovs.pmd1", "vm2.app"} <= worked
        assert report.reconciles()

    def test_stage_tables_close_across_a_handover(self):
        # A sub-saturation stream across an ordered teardown and
        # re-establishment: the switch cores park between bursts and
        # catch up on the skipped polls, the likeliest place for busy
        # time to leak out of the stage tables.
        env = Environment()
        node = NfvNode(env=env)
        for vm, port in (("vm1", "src0"), ("vm2", "dst0"), ("vm3", "div0")):
            node.create_vm(vm, [port])
        node.switch.start()
        node.install_p2p_rule("src0", "dst0")
        node.settle_control_plane(extra_time=0.12)
        source = SourceApp("src", node.vms["vm1"].pmd("src0"),
                           rate_pps=0.1e6)
        for app in (SinkApp("sink", node.vms["vm2"].pmd("dst0")),
                    SinkApp("sink.divert", node.vms["vm3"].pmd("div0")),
                    source):
            app.start(env)
        divert = Match(in_port=node.ofport("src0"), eth_type=0x0800,
                       ip_proto=6, l4_dst=80)
        node.controller.install_flow(
            divert, [OutputAction(node.ofport("div0"))], priority=0x9000)
        env.run(until=env.now + 0.07)
        assert node.active_bypasses == 0
        node.controller.delete_flow(divert, strict=True, priority=0x9000)
        env.run(until=env.now + 0.105)
        assert node.active_bypasses == 1
        source.stop()
        env.run(until=env.now + 0.0025)
        report = node.obs.pmd_cycle_report()
        assert any(loop.busy_time > 0 and loop.replayed_polls > 0
                   for loop in report.loops)
        assert report.reconciles()

    def test_guest_stage_split_shows_bypass_rx(self):
        experiment, _result = run_bypass_chain()
        # The middle VM's forwarder receives exclusively via bypass.
        app = experiment.apps[0]
        assert app.stages.packets.get("rx_bypass", 0) > 0
        assert app.stages.packets.get("rx_normal", 0) == 0

    def test_vanilla_switch_stages_cover_the_pipeline(self):
        experiment, _result = run_bypass_chain(num_vms=2, bypass=False)
        switch = experiment.node.switch
        merged = {}
        for stages in switch._core_stages:
            for stage, seconds in stages.seconds.items():
                merged[stage] = merged.get(stage, 0.0) + seconds
        assert merged.get("rx_normal", 0.0) > 0
        assert merged.get("emc_lookup", 0.0) > 0
        assert merged.get("tx", 0.0) > 0


class TestSnapshotting:
    def test_periodic_snapshots_ride_the_housekeeping_loop(self):
        experiment, _result = run_bypass_chain(snapshot_period=0.0005)
        snapshotter = experiment.obs.snapshotter
        assert len(snapshotter.snapshots) >= 3
        times = [snap["time"] for snap in snapshotter.snapshots]
        assert times == sorted(times)
        parsed = parse_jsonl_snapshots(snapshotter.to_jsonl())
        assert len(parsed) == len(snapshotter.snapshots)
        # Counters only move forward across snapshots.
        def processed(snap):
            for metric in snap["metrics"]:
                if metric["name"] == "repro_datapath_packets_processed":
                    return metric["value"]
            return 0.0
        assert processed(parsed[-1]) >= processed(parsed[0])

    def test_double_start_rejected(self):
        env = Environment()
        obs = Observability(clock=lambda: env.now)
        obs.start_snapshotting(env, period=0.001)
        with pytest.raises(RuntimeError):
            obs.start_snapshotting(env, period=0.001)


class TestReportAndArtifacts:
    def test_report_contains_every_section(self):
        experiment, _result = run_bypass_chain(trace_sample=64)
        report = experiment.obs.report()
        for section in ("trace/dump", "metrics/dump"):
            assert "\n%s\n" % section in report
        assert report.endswith(experiment.obs.dump())

    def test_cli_writes_parseable_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        code = cli_main([
            "fig3a", "--lengths", "2", "--duration", "0.001",
            "--trace-sample", "64", "--snapshot-period", "0.0005",
            "--obs-out", str(out_dir),
        ])
        assert code == 0
        capsys.readouterr()
        validate_prometheus_text((out_dir / "metrics.prom").read_text())
        snaps = parse_jsonl_snapshots(
            (out_dir / "snapshots.jsonl").read_text())
        assert snaps
        traces = (out_dir / "traces.jsonl").read_text().splitlines()
        assert traces
        assert "metrics/dump" in (out_dir / "report.txt").read_text()

    def test_default_run_pays_no_tracing_cost(self):
        # With obs at defaults (no sampling) the tracer never arms.
        experiment, result = run_bypass_chain()
        tracer = experiment.obs.tracer
        assert not tracer.enabled
        assert tracer.packets_seen == 0
        assert tracer.traces_started == 0
        assert result.throughput_mpps > 0
        # The registry still scrapes cleanly.
        validate_prometheus_text(prometheus_text(experiment.obs.registry))
