"""The dict-and-fan-out stage accounting, kept as the oracle
``repro.obs.cycles.StageAccounting`` / ``StageTee`` are checked against.

Until a stage attribution became one call, ``add`` read each table with
``dict.get`` and a tee looped over a list of targets, calling ``add`` on
each.  Both classes are here as they stood then (only the canonical
stage list is imported, so display order is judged by the same
``STAGES``); ``tests/test_property_stages.py`` drives them in lock-step
with the real ones and compares every observable with ``==``.
"""

from typing import Dict, List, Tuple

from repro.obs.cycles import STAGES, seconds_to_cycles


class ReferenceStageAccounting:
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

    def subtract(self, other: "ReferenceStageAccounting") -> None:
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
        return [
            (stage, seconds_to_cycles(self.seconds.get(stage, 0.0)),
             self.packets.get(stage, 0))
            for stage in self.stages_in_order()
        ]


class ReferenceStageTee:
    __slots__ = ("targets",)

    def __init__(self, *targets) -> None:
        self.targets = [target for target in targets if target is not None]

    def add(self, stage: str, seconds: float, packets: int = 0) -> None:
        for target in self.targets:
            target.add(stage, seconds, packets)
