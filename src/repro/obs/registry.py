"""The central metrics registry: one place every subsystem reports into.

Modeled on the Prometheus client data model (named, labeled samples of
a counter or gauge type) plus OVS's *coverage counters*
(``coverage/show``) — cheap named event tallies that answer "did this
code path ever run, and how often lately".

There is one way in: a **collector** — a callback registered with
:meth:`MetricsRegistry.register_collector` that reads the *existing*
attributes of the object it wraps lazily at scrape time.  The hot paths
keep mutating their plain ints (EMC hits, ring failure counts,
:class:`~repro.metrics.resilience.ResilienceCounters`, ...) and pay
nothing for being observable.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Sample:
    """One exported time-series point; ``kind`` is the Prometheus
    metric type (``counter`` / ``gauge``)."""

    name: str
    labels: Dict[str, str]
    value: float
    kind: str = "gauge"
    help: str = ""


class MetricsRegistry:
    """Owns every collector; the scrape surface for the exporters."""

    def __init__(self) -> None:
        self._collectors: List[Callable[[], Iterable[Sample]]] = []
        self._coverage: Dict[str, int] = {}

    # -- collectors -----------------------------------------------------------

    def register_collector(
        self, collector: Callable[[], Iterable[Sample]]
    ) -> None:
        """Add a scrape-time callback yielding :class:`Sample` objects.

        The callback runs on every :meth:`collect`; it should read live
        attributes of the object it wraps, so the wrapped hot path never
        learns it is being watched.
        """
        self._collectors.append(collector)

    # -- coverage counters (OVS coverage/show) ---------------------------------

    def coverage(self, name: str, amount: int = 1) -> None:
        """Bump the named coverage counter (create on first use)."""
        self._coverage[name] = self._coverage.get(name, 0) + amount

    def coverage_counters(self) -> Dict[str, int]:
        return dict(self._coverage)

    # -- scraping ----------------------------------------------------------------

    def collect(self) -> List[Sample]:
        """Every current sample: collectors in registration order, then
        coverage counters (as ``coverage_total{event=...}``)."""
        samples: List[Sample] = []
        for collector in self._collectors:
            samples.extend(collector())
        for name in sorted(self._coverage):
            samples.append(Sample(
                "coverage_total", {"event": name},
                float(self._coverage[name]), "counter",
                "coverage counter occurrences",
            ))
        return samples

    def sample_value(self, name: str,
                     labels: Optional[Dict[str, str]] = None) -> float:
        """Test helper: the value of one sample (raises if absent)."""
        wanted = {k: str(v) for k, v in (labels or {}).items()}
        for sample in self.collect():
            if sample.name == name and sample.labels == wanted:
                return sample.value
        raise KeyError("no sample %r with labels %r" % (name, wanted))

    def __repr__(self) -> str:
        return "<MetricsRegistry collectors=%d coverage=%d>" % (
            len(self._collectors), len(self._coverage)
        )
