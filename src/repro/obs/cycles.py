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
    "rx_shed",
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
        # ``table[stage] += x`` and not ``table.get(stage, 0.0) + x``:
        # a stage is new to a table once per reset, and this runs five
        # times per burst.
        if seconds:
            table = self.seconds
            try:
                table[stage] += seconds
            except KeyError:
                table[stage] = 0.0 + seconds
        if packets:
            table = self.packets
            try:
                table[stage] += packets
            except KeyError:
                table[stage] = packets

    def reset(self) -> None:
        """Zero the table in place: a :class:`StageTee` holds on to the
        two dicts."""
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
    """Attributes one ``add()`` stream to two stage tables at once.

    The datapath only ever calls ``stages.add(...)``; handing it a tee
    lets one port poll be attributed simultaneously to the core's
    aggregate table (``pmd/stats-show``) and the port's own table (the
    scheduler's reattribution unit) without the hot path knowing.

    One ``add`` is one call: the tee resolves the four dicts of its two
    tables when it is built (and again on :meth:`retarget`) and does
    :meth:`StageAccounting.add`'s arithmetic on each itself — the same
    floats reach every table in the same order.  The tables' ``reset``
    and ``subtract`` work in place, so the dicts stay the ones bound.
    """

    __slots__ = ("core", "port", "_tables")

    def __init__(self, core: StageAccounting, port: StageAccounting) -> None:
        self.port = port
        self.retarget(core)

    def retarget(self, core: StageAccounting) -> None:
        """Attribute to ``core`` from now on (the port moved cores)."""
        self.core = core
        self._tables = (core.seconds, self.port.seconds,
                        core.packets, self.port.packets)

    def add(self, stage: str, seconds: float, packets: int = 0) -> None:
        core_seconds, port_seconds, core_packets, port_packets = self._tables
        if seconds:
            try:
                core_seconds[stage] += seconds
            except KeyError:
                core_seconds[stage] = 0.0 + seconds
            try:
                port_seconds[stage] += seconds
            except KeyError:
                port_seconds[stage] = 0.0 + seconds
        if packets:
            try:
                core_packets[stage] += packets
            except KeyError:
                core_packets[stage] = packets
            try:
                port_packets[stage] += packets
            except KeyError:
                port_packets[stage] = packets

    def __repr__(self) -> str:
        return "<StageTee core=%r port=%r>" % (self.core, self.port)


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
