"""Event timeline: structured tracing of control-plane transitions.

Experiments and operators want a narrative — "rule installed, link
detected, channel active 101 ms later, revoked, drained, removed".  An
:class:`EventTimeline` collects ``(time, name, attributes)`` records,
can be wired to the detector/manager callbacks in one call, and renders
as aligned text.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class TimelineEvent:
    time: float
    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        details = " ".join(
            "%s=%s" % (key, value)
            for key, value in self.attributes.items()
        )
        return "%10.3f ms  %-22s %s" % (self.time * 1e3, self.name,
                                        details)


class EventTimeline:
    """A bounded event trace with a clock and text rendering.

    The buffer is a ring keeping the MOST RECENT ``max_events`` records:
    a long-running experiment that overflows loses its oldest history,
    not the transitions that just happened (which are invariably the
    ones being debugged).  ``dropped`` counts the discarded prefix and
    :meth:`render` announces it.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_events: int = 100000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.clock = clock or (lambda: 0.0)
        self.max_events = max_events
        self.events: "deque[TimelineEvent]" = deque(maxlen=max_events)
        self.dropped = 0

    def record(self, name: str, **attributes) -> None:
        if len(self.events) == self.max_events:
            self.dropped += 1  # deque evicts the oldest on append
        self.events.append(
            TimelineEvent(self.clock(), name, attributes)
        )

    def filter(self, name: str) -> List[TimelineEvent]:
        return [event for event in self.events if event.name == name]

    def spans(self, start_name: str, end_name: str,
              key: str) -> List[float]:
        """Durations between paired start/end events matched on a key
        attribute (e.g. link establishment times)."""
        open_starts: Dict[Any, float] = {}
        durations: List[float] = []
        for event in self.events:
            tag = event.attributes.get(key)
            if event.name == start_name:
                open_starts[tag] = event.time
            elif event.name == end_name and tag in open_starts:
                durations.append(event.time - open_starts.pop(tag))
        return durations

    def render(self) -> str:
        lines = []
        if self.dropped:
            lines.append("... %d earlier events dropped" % self.dropped)
        lines.extend(event.render() for event in self.events)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


def attach_sched_tracing(timeline: EventTimeline, scheduler) -> None:
    """Subscribe a timeline to a PmdScheduler's rebalance activity.

    Records one ``sched-rebalance`` event per applied plan (with the
    variance-improvement estimate) and one ``sched-port-moved`` per
    individual move, so an experiment's narrative shows exactly when
    the layout changed during live traffic.
    """
    scheduler.on_move.append(
        lambda port, src_core, dst_core: timeline.record(
            "sched-port-moved", port=port.name, src=src_core,
            dst=dst_core,
        )
    )
    scheduler.on_apply.append(
        lambda plan: timeline.record(
            "sched-rebalance", moves=len(plan.moves),
            improvement="%.2f" % plan.improvement,
        )
    )


def attach_highway_tracing(timeline: EventTimeline, detector,
                           manager) -> None:
    """Subscribe a timeline to the detector and bypass manager."""
    detector.on_created.append(
        lambda link: timeline.record(
            "p2p-detected", src=link.src_ofport, dst=link.dst_ofport,
            flow=link.flow_id,
        )
    )
    detector.on_removed.append(
        lambda link: timeline.record(
            "p2p-revoked", src=link.src_ofport, dst=link.dst_ofport,
        )
    )
    manager.on_link_active.append(
        lambda bl: timeline.record(
            "bypass-active", src=bl.link.src_ofport,
            dst=bl.link.dst_ofport, zone=bl.zone_name,
        )
    )
    manager.on_link_removed.append(
        lambda bl: timeline.record(
            "bypass-removed", src=bl.link.src_ofport,
            dst=bl.link.dst_ofport,
            # stats is None when provisioning itself failed (injected
            # memzone faults): the link carried nothing.
            carried=bl.stats.tx_packets if bl.stats is not None else 0,
        )
    )
    manager.on_link_degraded.append(
        lambda bl, verdict: timeline.record(
            "bypass-degraded", src=bl.link.src_ofport,
            dst=bl.link.dst_ofport, verdict=verdict.value,
        )
    )
    manager.on_readmission_deferred.append(
        lambda src_ofport: timeline.record(
            "bypass-readmission-deferred", src=src_ofport,
        )
    )
    manager.on_link_readmitted.append(
        lambda bl: timeline.record(
            "bypass-readmitted", src=bl.link.src_ofport,
            dst=bl.link.dst_ofport,
        )
    )


def attach_lifecycle_tracing(timeline: EventTimeline, repairer=None,
                             hypervisor=None) -> None:
    """Subscribe a timeline to the crash/repair lifecycle.

    Records one ``vm-crashed`` event per abrupt VM death (from the
    hypervisor) and one event per chain-repairer transition (nf-down,
    nf-repair-started, nf-repaired, nf-repair-failed, nf-demoted,
    nf-removed).  Either source is optional.
    """
    if hypervisor is not None:
        hypervisor.on_crash.append(
            lambda name: timeline.record("vm-crashed", vm=name)
        )
    if repairer is not None:
        repairer.on_event.append(
            lambda event, nf: timeline.record(event, nf=nf)
        )
