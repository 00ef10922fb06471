"""Latency sampling with a bounded reservoir.

Sinks stamp per-packet latency (drain time minus injection time); keeping
every sample of a multi-million-packet run would dominate memory, so the
recorder keeps a uniform reservoir (Vitter's algorithm R) plus exact
min/max/mean over the full population.
"""

import random
from typing import List, Optional, Sequence


class LatencyRecorder:
    """Streaming latency statistics with reservoir sampling."""

    def __init__(self, reservoir_size: int = 4096,
                 seed: Optional[int] = 0xC0FFEE) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir size must be positive")
        self.reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._reservoir: List[float] = []
        # The reservoir only grows, to reservoir_size: once full it
        # stays full, and record() stops measuring it.
        self._full = False
        self._sorted: Optional[List[float]] = None
        self.count = 0
        self.total = 0.0
        # Internal extrema; the public min_value/max_value properties
        # report 0.0 on an empty recorder instead of the inf sentinel.
        self._min = float("inf")
        self._max = 0.0
        # count.bit_length() as of the last draw, valid while count
        # stays below _bits_until (the next power of two).
        self._bits = 0
        self._bits_until = 0

    @property
    def min_value(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max_value(self) -> float:
        return self._max if self.count else 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if not self._full:
            reservoir = self._reservoir
            reservoir.append(value)
            self._sorted = None
            self._full = len(reservoir) == self.reservoir_size
            return
        # randrange(count), spelt out (CPython's rejection sampling over
        # getrandbits): the same slots from the same seed at a third of
        # the calls, once per packet.  The bit length changes only at a
        # power of two.
        count = self.count
        if count >= self._bits_until:
            self._bits = count.bit_length()
            self._bits_until = 1 << self._bits
        bits = self._bits
        getrandbits = self._rng.getrandbits
        slot = getrandbits(bits)
        while slot >= count:
            slot = getrandbits(bits)
        if slot < self.reservoir_size:
            self._reservoir[slot] = value
            self._sorted = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ordered(self) -> List[float]:
        """The reservoir, sorted once and cached until the next record."""
        if self._sorted is None:
            self._sorted = sorted(self._reservoir)
        return self._sorted

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from the reservoir (0 <= fraction <= 1).

        Linear interpolation between the two neighbouring ranks (the
        "type 7" estimator) instead of nearest-rank: a smooth,
        deterministic function of the samples, so p99.9 of a small
        reservoir no longer snaps to whichever extreme sample happens
        to hold the last slot.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not self._reservoir:
            return 0.0
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = fraction * (len(ordered) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        weight = rank - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * weight

    def percentiles(self, fractions: Sequence[float]) -> List[float]:
        """Batch accessor: one sort, many quantiles."""
        return [self.percentile(fraction) for fraction in fractions]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's population into this one.

        Merging an empty recorder is a strict no-op — it must not
        disturb the extrema (an empty source has no minimum to
        contribute, only its init sentinel).
        """
        if other.count == 0:
            return
        total = self.total
        for value in other._reservoir:
            self.record(value)
        # Population stats beyond the sampled values: the other's
        # count and total are exact, its reservoir only a sample.
        self.count += other.count - len(other._reservoir)
        self.total = total + other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def summary(self) -> str:
        """One-line human summary; ``-`` marks an empty recorder."""
        if not self.count:
            return "latency: - (no samples)"
        return ("latency: n=%d mean=%.2fus min=%.2fus p50=%.2fus "
                "p99=%.2fus max=%.2fus"
                % (self.count, self.mean * 1e6, self.min_value * 1e6,
                   self.p50 * 1e6, self.p99 * 1e6, self.max_value * 1e6))

    def __repr__(self) -> str:
        if not self.count:
            return "<LatencyRecorder empty>"
        return "<LatencyRecorder n=%d mean=%.3gus p99=%.3gus>" % (
            self.count, self.mean * 1e6, self.p99 * 1e6
        )
