"""RFC2544-style measurement harness.

The methodology of "Performance Benchmarking of State-of-the-Art
Software Switches for NFV": for one device-under-test configuration,

* **throughput at zero loss** — binary-search the highest offered load
  the DUT forwards without dropping a single frame (RFC 2544 §26.1,
  with a configurable loss tolerance for the lossy variants);
* **latency percentiles** — p50/p95/p99/p99.9 from the latency
  reservoirs (:class:`~repro.metrics.latency.LatencyRecorder`), never
  just a mean;
* **offered-vs-loss curves** — the loss fraction at each point of an
  offered-load sweep, the shape Fig. 3 summarises.

The harness is generic over a *runner*: any callable mapping an
offered load (pps) to an :class:`OfferedPoint`.  The production runner
is :class:`ChainLoadRunner`, which builds a fresh, deterministic
:class:`~repro.experiments.chain.ChainExperiment` per measurement and
uses its drain-mode conservation totals (every offered frame is either
delivered or genuinely lost — no in-flight ambiguity).  Tests inject
synthetic runners.

Every measurement also lands in a ``repro_bench_*`` metric family on
the harness's registry, so benchmark progress scrapes exactly like any
other part of the observability plane.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.chain import ChainExperiment
from repro.metrics.latency import LatencyRecorder
from repro.obs.registry import MetricsRegistry

#: The quantiles every latency summary reports.
LATENCY_QUANTILES = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
)


def latency_summary_us(recorders: Sequence[Optional[LatencyRecorder]]
                       ) -> Dict[str, float]:
    """Merge recorders and report microsecond latency percentiles."""
    merged = LatencyRecorder()
    for recorder in recorders:
        if recorder is not None:
            merged.merge(recorder)
    if not merged.count:
        return {"count": 0}
    fractions = [fraction for _name, fraction in LATENCY_QUANTILES]
    quantiles = merged.percentiles(fractions)
    out = {
        "count": merged.count,
        "mean_us": round(merged.mean * 1e6, 3),
        "min_us": round(merged.min_value * 1e6, 3),
        "max_us": round(merged.max_value * 1e6, 3),
    }
    for (name, _fraction), value in zip(LATENCY_QUANTILES, quantiles):
        out["%s_us" % name] = round(value * 1e6, 3)
    return out


@dataclass(frozen=True)
class OfferedPoint:
    """One measurement: what happened at one offered load."""

    offered_pps: float
    duration: float                  # measurement window, simulated s
    sent: int                        # offered frames (incl. TX rejects)
    delivered: int
    throughput_mpps: float           # window throughput, both directions
    latency_us: Dict[str, float] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        return max(0, self.sent - self.delivered)

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "offered_pps": round(self.offered_pps, 1),
            "duration_s": self.duration,
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "loss_fraction": round(self.loss_fraction, 6),
            "throughput_mpps": round(self.throughput_mpps, 4),
            "latency_us": self.latency_us,
        }


@dataclass
class SearchResult:
    """Outcome of one zero-loss binary search."""

    zero_loss_pps: float             # highest passing offered load
    converged: bool                  # bracket narrowed below resolution
    iterations: int
    lo_pps: float                    # last passing load (== zero_loss)
    hi_pps: float                    # lowest failing load seen
    points: List[OfferedPoint] = field(default_factory=list)

    @property
    def zero_loss_mpps(self) -> float:
        return self.zero_loss_pps / 1e6

    def as_dict(self) -> Dict[str, object]:
        return {
            "zero_loss_pps": round(self.zero_loss_pps, 1),
            "zero_loss_mpps": round(self.zero_loss_mpps, 4),
            "converged": self.converged,
            "iterations": self.iterations,
            "lo_pps": round(self.lo_pps, 1),
            "hi_pps": round(self.hi_pps, 1),
            "points": [point.as_dict() for point in self.points],
        }


class Rfc2544Harness:
    """Drives a runner through searches and sweeps, recording metrics.

    ``loss_tolerance`` is the acceptable loss fraction for a "passing"
    trial (0.0 = strict RFC 2544 zero loss); ``resolution`` is the
    relative bracket width at which the search stops.
    """

    def __init__(
        self,
        runner: Callable[[float], OfferedPoint],
        loss_tolerance: float = 0.0,
        resolution: float = 0.05,
        max_iterations: int = 12,
        registry: Optional[MetricsRegistry] = None,
        scenario: str = "adhoc",
    ) -> None:
        if not 0.0 <= loss_tolerance < 1.0:
            raise ValueError("loss_tolerance must be in [0, 1)")
        if not 0.0 < resolution < 1.0:
            raise ValueError("resolution must be in (0, 1)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.runner = runner
        self.loss_tolerance = loss_tolerance
        self.resolution = resolution
        self.max_iterations = max_iterations
        self.scenario = scenario
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.measurements = 0
        reg = self.registry
        self._m_measurements = reg.counter(
            "repro_bench_measurements_total",
            "Offered-load trials run by the RFC2544 harness",
            labels=("scenario",),
        )
        self._m_offered = reg.gauge(
            "repro_bench_offered_pps",
            "Offered load of the most recent trial",
            labels=("scenario",),
        )
        self._m_delivered = reg.gauge(
            "repro_bench_delivered_pps",
            "Delivery rate of the most recent trial",
            labels=("scenario",),
        )
        self._m_loss = reg.gauge(
            "repro_bench_loss_fraction",
            "Loss fraction of the most recent trial",
            labels=("scenario",),
        )
        self._m_latency = reg.gauge(
            "repro_bench_latency_us",
            "Latency quantiles of the most recent trial",
            labels=("scenario", "quantile"),
        )
        self._m_zero_loss = reg.gauge(
            "repro_bench_zero_loss_pps",
            "Result of the most recent zero-loss search",
            labels=("scenario",),
        )
        self._m_iterations = reg.gauge(
            "repro_bench_search_iterations",
            "Trials the most recent zero-loss search needed",
            labels=("scenario",),
        )

    # -- single trial ---------------------------------------------------------

    def measure(self, offered_pps: float) -> OfferedPoint:
        if offered_pps <= 0:
            raise ValueError("offered_pps must be positive")
        point = self.runner(offered_pps)
        self.measurements += 1
        scenario = self.scenario
        self._m_measurements.labels(scenario).inc()
        self._m_offered.labels(scenario).set(point.offered_pps)
        self._m_delivered.labels(scenario).set(
            point.throughput_mpps * 1e6)
        self._m_loss.labels(scenario).set(point.loss_fraction)
        for name, _fraction in LATENCY_QUANTILES:
            value = point.latency_us.get("%s_us" % name)
            if value is not None:
                self._m_latency.labels(scenario, name).set(value)
        return point

    def passes(self, point: OfferedPoint) -> bool:
        return point.loss_fraction <= self.loss_tolerance

    # -- RFC 2544 §26.1 -------------------------------------------------------

    def zero_loss_search(self, min_pps: float,
                         max_pps: float) -> SearchResult:
        """Binary-search the highest offered load with acceptable loss.

        The bracket invariant: ``lo`` always passed, ``hi`` always
        failed.  If even ``max_pps`` passes, the DUT's capacity exceeds
        the search range and ``max_pps`` is returned (converged); if
        even ``min_pps`` fails, the result is 0 (not converged).
        """
        if not 0 < min_pps < max_pps:
            raise ValueError("need 0 < min_pps < max_pps")
        points: List[OfferedPoint] = []

        def trial(pps: float) -> OfferedPoint:
            point = self.measure(pps)
            points.append(point)
            return point

        top = trial(max_pps)
        if self.passes(top):
            result = SearchResult(
                zero_loss_pps=max_pps, converged=True,
                iterations=len(points), lo_pps=max_pps,
                hi_pps=max_pps, points=points,
            )
            return self._finish_search(result)
        bottom = trial(min_pps)
        if not self.passes(bottom):
            result = SearchResult(
                zero_loss_pps=0.0, converged=False,
                iterations=len(points), lo_pps=0.0, hi_pps=min_pps,
                points=points,
            )
            return self._finish_search(result)
        lo, hi = min_pps, max_pps
        while (hi - lo) > self.resolution * hi \
                and len(points) < self.max_iterations:
            mid = (lo + hi) / 2.0
            if self.passes(trial(mid)):
                lo = mid
            else:
                hi = mid
        result = SearchResult(
            zero_loss_pps=lo,
            converged=(hi - lo) <= self.resolution * hi,
            iterations=len(points), lo_pps=lo, hi_pps=hi,
            points=points,
        )
        return self._finish_search(result)

    def _finish_search(self, result: SearchResult) -> SearchResult:
        self._m_zero_loss.labels(self.scenario).set(result.zero_loss_pps)
        self._m_iterations.labels(self.scenario).set(result.iterations)
        return result

    # -- offered-vs-loss curve ------------------------------------------------

    def loss_curve(self, offered_loads: Sequence[float]
                   ) -> List[OfferedPoint]:
        """Measure each offered load, ascending, for a loss curve."""
        return [self.measure(pps) for pps in sorted(offered_loads)]


class ChainLoadRunner:
    """Maps offered load to an :class:`OfferedPoint` via a fresh
    memory-only :class:`~repro.experiments.chain.ChainExperiment`.

    The offered load is split evenly over the chain's two directions;
    loss comes from the experiment's drained conservation totals, so a
    frame counts as lost only when it truly never reached a sink.
    """

    def __init__(self, drain: Optional[float] = None,
                 **experiment_kwargs) -> None:
        """``drain`` defaults to the experiment's duration (at least
        1 ms); everything else is the experiment's own keyword."""
        self.drain = drain
        self.experiment_kwargs = experiment_kwargs
        self.last_experiment = None

    def __call__(self, offered_pps: float) -> OfferedPoint:
        experiment = ChainExperiment(
            memory_only=True,
            source_rate_pps=offered_pps / 2.0,
            **self.experiment_kwargs,
        )
        drain = self.drain if self.drain is not None else max(
            experiment.duration, 0.001)
        result = experiment.run(drain=drain)
        self.last_experiment = experiment
        return OfferedPoint(
            offered_pps=offered_pps,
            duration=result.duration,
            sent=result.offered_total,
            delivered=result.delivered_total,
            throughput_mpps=result.throughput_mpps,
            latency_us=latency_summary_us(
                [result.latency_forward, result.latency_reverse]
            ),
        )
