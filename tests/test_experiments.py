"""Integration tests for the experiment harnesses.

These are the same code paths the benchmarks run, at short durations:
they pin the paper's qualitative results so a regression in the data
path or the cost model fails fast.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from repro.bench.harness import ChainLoadRunner
from repro.experiments import ChainExperiment, SetupTimeExperiment
from repro.orchestration import NfvNode
from repro.vswitch.vswitchd import VSwitchd


@pytest.fixture(scope="module")
def memory_pair():
    """One vanilla + one bypass run of a 3-VM memory-only chain."""
    vanilla = ChainExperiment(num_vms=3, bypass=False, memory_only=True,
                              duration=0.004).run()
    bypass = ChainExperiment(num_vms=3, bypass=True, memory_only=True,
                             duration=0.004).run()
    return vanilla, bypass


class TestMemoryChain:
    def test_bypass_outperforms_vanilla(self, memory_pair):
        vanilla, bypass = memory_pair
        assert bypass.throughput_mpps > 1.5 * vanilla.throughput_mpps

    def test_bypass_latency_lower(self, memory_pair):
        vanilla, bypass = memory_pair
        assert bypass.mean_latency < vanilla.mean_latency

    def test_bypass_count(self, memory_pair):
        vanilla, bypass = memory_pair
        assert vanilla.active_bypasses == 0
        assert bypass.active_bypasses == 4  # 2 adjacencies x 2 directions

    def test_traffic_is_bidirectional(self, memory_pair):
        _vanilla, bypass = memory_pair
        assert bypass.forward_delivered > 0
        assert bypass.reverse_delivered > 0

    def test_setup_times_recorded(self, memory_pair):
        _vanilla, bypass = memory_pair
        assert len(bypass.setup_times) == 4
        for setup in bypass.setup_times:
            assert 0.05 < setup < 0.3

    def test_vanilla_loads_ovs(self, memory_pair):
        vanilla, bypass = memory_pair
        assert max(vanilla.ovs_utilization) > 0.5
        # With every inter-VM hop bypassed, OVS is essentially idle.
        assert max(bypass.ovs_utilization) < 0.2

    def test_throughput_decays_with_vanilla_chain_length(self):
        short = ChainExperiment(num_vms=2, bypass=False,
                                duration=0.003).run()
        long = ChainExperiment(num_vms=5, bypass=False,
                               duration=0.003).run()
        assert long.throughput_mpps < 0.7 * short.throughput_mpps

    def test_bypass_roughly_flat_with_chain_length(self):
        # N=2 has no forwarding VM at all (source and sink are the whole
        # chain), so flatness is asserted from N=3 up.
        short = ChainExperiment(num_vms=3, bypass=True,
                                duration=0.003).run()
        long = ChainExperiment(num_vms=6, bypass=True,
                               duration=0.003).run()
        assert long.throughput_mpps > 0.8 * short.throughput_mpps

    def test_too_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainExperiment(num_vms=1, memory_only=True)


class TestNicChain:
    def test_single_vm_identical_both_modes(self):
        vanilla = ChainExperiment(num_vms=1, bypass=False,
                                  memory_only=False, duration=0.003).run()
        bypass = ChainExperiment(num_vms=1, bypass=True,
                                 memory_only=False, duration=0.003).run()
        # With one VM there are no VM-to-VM links to accelerate.
        assert bypass.active_bypasses == 0
        assert bypass.throughput_mpps == pytest.approx(
            vanilla.throughput_mpps, rel=0.15
        )

    def test_bypass_wins_with_chain(self):
        vanilla = ChainExperiment(num_vms=3, bypass=False,
                                  memory_only=False, duration=0.003).run()
        bypass = ChainExperiment(num_vms=3, bypass=True,
                                 memory_only=False, duration=0.003).run()
        assert bypass.active_bypasses == 4
        assert bypass.throughput_mpps > 1.3 * vanilla.throughput_mpps

    def test_capped_by_line_rate(self):
        from repro.sim.nic import line_rate_pps

        result = ChainExperiment(num_vms=2, bypass=True,
                                 memory_only=False, duration=0.003).run()
        cap = 2 * line_rate_pps(64) / 1e6  # both directions
        assert result.throughput_mpps <= cap * 1.01

    def test_custom_profile_reaches_the_wire_sources(self):
        from repro.traffic import uniform_profile

        profile = uniform_profile(256, flows=2, name="custom")
        experiment = ChainExperiment(num_vms=1, memory_only=False,
                                     duration=0.0005, profile=profile)
        experiment.run()
        assert len(experiment.sources) == 2
        assert all(source.profile is profile
                   for source in experiment.sources)


class TestSetupTime:
    def test_order_of_100ms(self):
        result = SetupTimeExperiment().run()
        assert 0.05 < result.total < 0.2
        stages = dict(result.stages())
        assert stages["ivshmem hot-plug (parallel x2)"] > stages[
            "OVS->agent RPC"
        ]
        assert result.teardown_total is not None
        assert 0.0 < result.teardown_total < 0.2

    def test_breakdown_sums_to_total(self):
        result = SetupTimeExperiment(measure_teardown=False).run()
        summed = sum(value for _name, value in result.stages())
        assert summed == pytest.approx(result.total, rel=0.01)


def named_parameters(cls):
    return [
        name for name, parameter
        in inspect.signature(cls.__init__).parameters.items()
        if name != "self" and parameter.kind is not parameter.VAR_KEYWORD
    ]


class TestOneSpellingPerKnob:
    """DESIGN.md §5 decision 10: a keyword is declared by the class
    that reads it; a layer that only passes it on does not name it."""

    def test_switch_options_are_declared_by_the_switch_alone(self):
        switch = set(named_parameters(VSwitchd))
        assert not switch & {"auto_lb", "bounded_upcalls", "overload"}
        # What the node shares with the switch it reads itself (env and
        # costs also wire the hypervisor and the agent) or defaults
        # differently (two PMD cores, the paper's testbed).
        assert switch & set(named_parameters(NfvNode)) == {
            "env", "costs", "n_pmd_cores"}
        assert switch & set(named_parameters(ChainExperiment)) == {"costs"}
        assert named_parameters(ChainLoadRunner) == ["drain"]

    def test_knob_counts_do_not_creep_back(self):
        assert len(named_parameters(VSwitchd)) <= 12
        assert len(named_parameters(NfvNode)) <= 9
        assert len(named_parameters(ChainExperiment)) <= 23

    @pytest.mark.parametrize("path, count", [
        # PR 22: the options no call site anywhere set became constants
        # or plain attributes (83 -> 60 over these seventeen classes).
        ("repro.apps.conntrack.StatefulFirewallApp", 6),
        ("repro.core.watchdog.WatchdogPolicy", 3),
        ("repro.dpdk.eal.Eal", 2),
        ("repro.obs.plane.Observability", 2),
        ("repro.openflow.controller.ControllerConnection", 2),
        ("repro.openflow.controller.SimpleController", 1),
        ("repro.orchestration.repair.RepairPolicy", 5),
        ("repro.overload.failmode.FailModeManager", 5),
        ("repro.overload.failmode.FailModePolicy", 3),
        ("repro.sched.autolb.AutoLbPolicy", 3),
        ("repro.sched.scheduler.PmdScheduler", 2),
        ("repro.sim.nic.Nic", 4),
        ("repro.state.table.StateTable", 4),
        ("repro.traffic.generator.WireSource", 7),
        ("repro.traffic.sink.WireSink", 2),
        ("repro.vswitch.bridge.Bridge", 4),
        ("repro.vswitch.datapath.Datapath", 5),
    ])
    def test_an_option_nobody_sets_is_not_an_option(self, path, count):
        module, name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), name)
        assert len(named_parameters(cls)) <= count, named_parameters(cls)

    def test_each_switch_option_is_named_by_one_constructor_in_src(self):
        options = {"rxq_assign", "auto_lb_policy", "upcall_policy",
                   "fail_mode", "failmode_policy", "overload_policy"}
        declared = {option: [] for option in options}
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "__init__"):
                    for arg in node.args.args + node.args.kwonlyargs:
                        if arg.arg in options:
                            declared[arg.arg].append(
                                path.relative_to(src).as_posix())
        assert declared == {
            option: ["repro/vswitch/vswitchd.py"] for option in options
        }
