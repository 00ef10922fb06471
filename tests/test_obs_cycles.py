"""Tests for per-PMD cycle accounting (repro.obs.cycles)."""

import pytest

from repro.obs.cycles import (
    CYCLES_PER_SECOND,
    PmdCycleReport,
    STAGES,
    StageAccounting,
    seconds_to_cycles,
)


class FakeLoop:
    def __init__(self, name, busy, idle, iterations=10, idle_iterations=4,
                 replayed_polls=3):
        self.name = name
        self.busy_time = busy
        self.idle_time = idle
        self.iterations = iterations
        self.idle_iterations = idle_iterations
        self.replayed_polls = replayed_polls

    @property
    def utilization(self):
        total = self.busy_time + self.idle_time
        return self.busy_time / total if total else 0.0


class TestStageAccounting:
    def test_add_accumulates_seconds_and_packets(self):
        stages = StageAccounting()
        stages.add("rx_normal", 1e-6, packets=32)
        stages.add("rx_normal", 1e-6, packets=32)
        stages.add("tx", 5e-7)
        assert stages.seconds["rx_normal"] == 2e-6
        assert stages.packets["rx_normal"] == 64
        assert stages.total_seconds == pytest.approx(2.5e-6)

    def test_zero_cost_entries_are_not_stored(self):
        stages = StageAccounting()
        stages.add("tx", 0.0, packets=0)
        assert not stages.seconds and not stages.packets

    def test_rows_follow_canonical_order(self):
        stages = StageAccounting()
        stages.add("tx", 1e-6)
        stages.add("rx_normal", 1e-6)
        stages.add("custom_stage", 1e-6)
        names = [row[0] for row in stages.rows()]
        # Canonical names first (in STAGES order), extras after.
        assert names == ["rx_normal", "tx", "custom_stage"]
        assert names.index("rx_normal") < names.index("tx")

    def test_rx_shed_is_a_canonical_stage(self):
        # The one stage the datapath emits that STAGES did not know: it
        # sorted as an extra.  Appended, so no row of pmd/stats-show moves.
        assert STAGES[-2:] == ("housekeeping", "rx_shed")
        stages = StageAccounting()
        stages.add("zz_custom", 1e-6)
        stages.add("aa_custom", 1e-6)
        stages.add("rx_shed", 1e-6, packets=3)
        stages.add("housekeeping", 1e-6)
        assert stages.stages_in_order() == [
            "housekeeping", "rx_shed", "aa_custom", "zz_custom"]

    def test_rows_convert_to_cycles(self):
        stages = StageAccounting()
        stages.add("emc_lookup", 1e-6, packets=10)
        ((_stage, cycles, packets),) = stages.rows()
        assert cycles == seconds_to_cycles(1e-6)
        assert cycles == int(round(1e-6 * CYCLES_PER_SECOND))
        assert packets == 10

    def test_reset(self):
        stages = StageAccounting()
        stages.add("tx", 1e-6, packets=1)
        stages.reset()
        assert stages.total_seconds == 0.0
        assert stages.rows() == []

    def test_rx_split_stages_exist(self):
        # The split the paper cares about must stay in the canonical set.
        assert "rx_normal" in STAGES
        assert "rx_bypass" in STAGES


class TestPmdCycleReport:
    def test_render_shows_busy_idle_percentages(self):
        report = PmdCycleReport()
        report.track(FakeLoop("pmd-0", busy=3e-3, idle=1e-3))
        text = report.render()
        assert "pmd thread pmd-0:" in text
        assert "iterations: 10 (4 idle, 3 replayed)" in text
        assert "busy cycles: %d (75.0%%)" % seconds_to_cycles(3e-3) in text
        assert "idle cycles: %d (25.0%%)" % seconds_to_cycles(1e-3) in text

    def test_render_stage_table_and_per_packet(self):
        stages = StageAccounting()
        stages.add("rx_normal", 1e-6, packets=100)
        stages.add("tx", 1e-6, packets=100)
        report = PmdCycleReport()
        report.track(FakeLoop("pmd-0", busy=3e-6, idle=0.0), stages)
        text = report.render()
        assert "avg cycles per packet" in text
        assert "rx normal" in text
        assert "c/p" in text

    def test_reconciles_when_stage_total_within_busy(self):
        stages = StageAccounting()
        stages.add("rx_normal", 1e-6)
        report = PmdCycleReport()
        report.track(FakeLoop("ok", busy=2e-6, idle=0.0), stages)
        assert report.reconciles()

    def test_reconcile_fails_on_overclaimed_stages(self):
        stages = StageAccounting()
        stages.add("rx_normal", 5e-6)  # claims more than the loop ran
        report = PmdCycleReport()
        report.track(FakeLoop("bad", busy=1e-6, idle=0.0), stages)
        assert not report.reconciles()

    def test_empty_report(self):
        assert PmdCycleReport().render() == "no pmd threads tracked"
        assert PmdCycleReport().reconciles()
