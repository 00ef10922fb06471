"""Per-PMD poll-loop cycle accounting (OVS ``pmd-stats-show``).

Software-switch benchmarking practice (Zhang et al., "Performance
Benchmarking of State-of-the-Art Software Switches for NFV") is clear
that end-to-end Mpps alone cannot explain *why* a datapath is fast or
slow — you need busy vs idle cycles and a per-stage cost breakdown on
every polling core.  The simulation already knows exact per-stage costs
(they are what the :class:`~repro.sim.costmodel.CostModel` charges), so
this module only has to *attribute* them instead of sampling TSCs.

Seconds are converted at the calibrated testbed frequency (the paper's
E5-2690 v2 runs at 3 GHz) so the numbers read like real ``pmd-stats-show``
output, and everything is driven by the simulated clock — reruns are
bit-identical.
"""

from typing import Dict, Iterable, List, Optional, Tuple

# The paper's testbed CPU: Xeon E5-2690 v2 @ 3.0 GHz.
CYCLES_PER_SECOND = 3.0e9

# Canonical stage names, in display order.  "rx_normal" vs "rx_bypass"
# is the split that matters to this paper: cycles spent serving the
# shared-switch channel vs the private highway.
STAGES = (
    "rx_normal",
    "rx_bypass",
    "emc_lookup",
    "smc_lookup",
    "megaflow_lookup",
    "classifier_lookup",
    "miss_upcall",
    "xfsm_exec",
    "actions",
    "tx",
    "housekeeping",
)


def seconds_to_cycles(seconds: float) -> int:
    return int(round(seconds * CYCLES_PER_SECOND))


class StageAccounting:
    """Per-stage (seconds, packets) attribution for one polling core.

    The hot path calls :meth:`add` with the simulated cost it just
    charged; everything else (cycles, percentages, per-packet averages)
    is derived at render time.  Unknown stage names are accepted — the
    canonical set in :data:`STAGES` just controls display order.
    """

    __slots__ = ("seconds", "packets")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.packets: Dict[str, int] = {}

    def add(self, stage: str, seconds: float, packets: int = 0) -> None:
        if seconds:
            self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        if packets:
            self.packets[stage] = self.packets.get(stage, 0) + packets

    def reset(self) -> None:
        self.seconds.clear()
        self.packets.clear()

    def subtract(self, other: "StageAccounting") -> None:
        """Remove another table's attribution from this one, clamped at
        zero.  The vSwitch scheduler uses this to keep per-core tables
        honest when a port moves cores or leaves: the departing port's
        own table is subtracted from the core it accumulated on, so the
        core table always decomposes the work done for ports it still
        owns (plus core-local stages like tx/flush)."""
        for stage, seconds in other.seconds.items():
            remaining = self.seconds.get(stage, 0.0) - seconds
            if remaining > 1e-18:
                self.seconds[stage] = remaining
            else:
                self.seconds.pop(stage, None)
        for stage, packets in other.packets.items():
            remaining = self.packets.get(stage, 0) - packets
            if remaining > 0:
                self.packets[stage] = remaining
            else:
                self.packets.pop(stage, None)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def stages_in_order(self) -> List[str]:
        known = [s for s in STAGES if s in self.seconds or s in self.packets]
        extra = sorted((set(self.seconds) | set(self.packets))
                       - set(STAGES))
        return known + [s for s in extra if s not in known]

    def rows(self) -> List[Tuple[str, int, int]]:
        """``(stage, cycles, packets)`` rows in display order."""
        return [
            (stage, seconds_to_cycles(self.seconds.get(stage, 0.0)),
             self.packets.get(stage, 0))
            for stage in self.stages_in_order()
        ]

    def __repr__(self) -> str:
        return "<StageAccounting stages=%d total=%.3gs>" % (
            len(self.seconds), self.total_seconds
        )


class StageTee:
    """Fans one ``add()`` stream out to several stage tables.

    The datapath only ever calls ``stages.add(...)``; handing it a tee
    lets one port poll be attributed simultaneously to the core's
    aggregate table (``pmd/stats-show``) and the port's own table (the
    scheduler's reattribution unit) without the hot path knowing.
    """

    __slots__ = ("targets",)

    def __init__(self, *targets) -> None:
        self.targets = [target for target in targets if target is not None]

    def add(self, stage: str, seconds: float, packets: int = 0) -> None:
        for target in self.targets:
            target.add(stage, seconds, packets)

    def __repr__(self) -> str:
        return "<StageTee targets=%d>" % len(self.targets)


class PmdCycleReport:
    """The ``pmd/stats-show`` view over a set of poll loops.

    Each registered entry pairs a :class:`~repro.sim.pollloop.PollLoop`
    (busy/idle authority) with an optional :class:`StageAccounting`
    (where the busy time went).  Totals always reconcile: busy cycles
    are converted from the loop's own ``busy_time``, never re-derived
    from the stage table.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[object, Optional[StageAccounting]]] = []

    def track(self, loop, stages: Optional[StageAccounting] = None) -> None:
        self._entries.append((loop, stages))

    @property
    def loops(self) -> List[object]:
        return [loop for loop, _stages in self._entries]

    def loop_rows(self) -> Iterable[Tuple[object, Optional[StageAccounting]]]:
        return list(self._entries)

    def render(self) -> str:
        lines: List[str] = []
        for loop, stages in self._entries:
            busy_cycles = seconds_to_cycles(loop.busy_time)
            idle_cycles = seconds_to_cycles(loop.idle_time)
            total = busy_cycles + idle_cycles
            busy_pct = 100.0 * busy_cycles / total if total else 0.0
            lines.append("pmd thread %s:" % loop.name)
            lines.append("  iterations: %d (%d idle, %d replayed)"
                         % (loop.iterations, loop.idle_iterations,
                            loop.replayed_polls))
            lines.append("  busy cycles: %d (%.1f%%)"
                         % (busy_cycles, busy_pct))
            lines.append("  idle cycles: %d (%.1f%%)"
                         % (idle_cycles, 100.0 - busy_pct if total else 0.0))
            if stages is None:
                continue
            packets = stages.packets.get("rx_normal", 0) + \
                stages.packets.get("rx_bypass", 0)
            if packets:
                lines.append("  avg cycles per packet: %.1f (%d pkts)"
                             % (busy_cycles / packets, packets))
            for stage, cycles, stage_packets in stages.rows():
                suffix = (" (%d pkts, %.1f c/p)"
                          % (stage_packets, cycles / stage_packets)
                          if stage_packets else "")
                lines.append("    %-18s %12d cycles%s"
                             % (stage.replace("_", " "), cycles, suffix))
        if not lines:
            return "no pmd threads tracked"
        return "\n".join(lines)

    def reconciles(self, tolerance: float = 1e-9) -> bool:
        """True when every stage table stays within its loop's busy time
        (stage costs are a decomposition, never an independent tally)."""
        for loop, stages in self._entries:
            if stages is None:
                continue
            if stages.total_seconds > loop.busy_time + tolerance:
                return False
        return True

    def __repr__(self) -> str:
        return "<PmdCycleReport loops=%d>" % len(self._entries)
