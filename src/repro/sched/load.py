"""Measured rxq load: per-(port, core) processing-cycle EWMAs.

OVS's rxq scheduler does not guess what a queue costs — it samples the
processing cycles each rxq consumed over the last measurement intervals
and smooths them.  The simulation is in a better position still: the
datapath *attributes* the exact simulated cost of every port poll, so
the tracker only has to bucket those costs per (port, core) pair and
fold closed intervals into an EWMA.

The pair granularity matters: after a rebalance the same port has
history on two cores, and the scheduler must see what each core
actually paid (a port that was cheap on a core with a warm EMC may not
be cheap elsewhere).  Loads decay when a pair stops producing samples,
so stale history cannot pin a decision forever.
"""

from typing import Dict, Iterable, List, Tuple


class RxqLoadTracker:
    """Per-(port, core) EWMA of processing seconds per interval.

    The hot path calls :meth:`record` with the cost the datapath just
    charged for one port poll; a housekeeping tick (the auto-LB loop, a
    manual rebalance) calls :meth:`roll` to close the open interval.
    Between rolls nothing is smoothed — :meth:`record` is two dict
    operations.
    """

    # Pairs whose EWMA decays below this are dropped (dead history).
    _EPSILON = 1e-15

    def __init__(self, alpha: float = 0.4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % alpha)
        self.alpha = alpha
        # Open-interval accumulators, keyed by (ofport, core).
        self._current_seconds: Dict[Tuple[int, int], float] = {}
        self._current_packets: Dict[Tuple[int, int], int] = {}
        # Smoothed seconds-per-interval per pair (closed intervals only).
        self._ewma: Dict[Tuple[int, int], float] = {}
        # Raw per-core seconds of the last *closed* interval (the
        # auto-LB's overload signal when poll loops are not running).
        self.last_core_seconds: Dict[int, float] = {}
        self.intervals = 0
        self.samples = 0

    # -- hot path -------------------------------------------------------------

    def record(self, ofport: int, core: int, seconds: float,
               packets: int = 0) -> None:
        """Attribute one port poll's cost to the (port, core) pair."""
        key = (ofport, core)
        try:
            self._current_seconds[key] += seconds
        except KeyError:   # the pair's first sample of the interval
            self._current_seconds[key] = 0.0 + seconds
        if packets:
            try:
                self._current_packets[key] += packets
            except KeyError:
                self._current_packets[key] = packets
        self.samples += 1

    # -- interval management ---------------------------------------------------

    def roll(self) -> None:
        """Close the open interval: fold it into the EWMAs and decay
        every pair that produced no samples."""
        alpha = self.alpha
        core_seconds: Dict[int, float] = {}
        for (ofport, core), seconds in self._current_seconds.items():
            core_seconds[core] = core_seconds.get(core, 0.0) + seconds
        for key in set(self._ewma) | set(self._current_seconds):
            sample = self._current_seconds.get(key, 0.0)
            smoothed = (alpha * sample
                        + (1.0 - alpha) * self._ewma.get(key, 0.0))
            if smoothed < self._EPSILON and not sample:
                self._ewma.pop(key, None)
            else:
                self._ewma[key] = smoothed
        self._current_seconds.clear()
        self._current_packets.clear()
        self.last_core_seconds = core_seconds
        self.intervals += 1

    # -- queries -------------------------------------------------------------

    def pair_load(self, ofport: int, core: int) -> float:
        """Smoothed seconds/interval this core pays for this port."""
        return self._ewma.get((ofport, core), 0.0)

    def port_load(self, ofport: int) -> float:
        """The port's total smoothed load across every core it touched."""
        return sum(load for (port, _core), load in self._ewma.items()
                   if port == ofport)

    def core_load(self, core: int) -> float:
        """Total smoothed load currently attributed to one core."""
        return sum(load for (_port, load_core), load in self._ewma.items()
                   if load_core == core)

    def core_loads(self, n_cores: int) -> List[float]:
        loads = [0.0] * n_cores
        for (_port, core), load in self._ewma.items():
            if 0 <= core < n_cores:
                loads[core] += load
        return loads

    def pairs(self) -> Iterable[Tuple[Tuple[int, int], float]]:
        """``((ofport, core), seconds-per-interval)`` rows, sorted."""
        return sorted(self._ewma.items())

    # -- membership maintenance ---------------------------------------------------

    def forget(self, ofport: int) -> None:
        """Drop every trace of a deleted port."""
        for store in (self._ewma, self._current_seconds,
                      self._current_packets):
            for key in [key for key in store if key[0] == ofport]:
                del store[key]

    def reset_pair(self, ofport: int, core: int) -> None:
        """Drop one (port, core) pair's history (the port moved away:
        the old core no longer pays for it, so the scheduler must not
        keep charging it there)."""
        key = (ofport, core)
        self._ewma.pop(key, None)
        self._current_seconds.pop(key, None)
        self._current_packets.pop(key, None)

    def __repr__(self) -> str:
        return "<RxqLoadTracker pairs=%d intervals=%d>" % (
            len(self._ewma), self.intervals
        )
