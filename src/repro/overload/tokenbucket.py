"""The token bucket the switch rate-limits with: per-port upcall
admission (:mod:`repro.overload.upcall`) and ingress policing
(:mod:`repro.vswitch.policer`).  Imports nothing from ``repro``."""

from typing import Callable


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` depth."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float]) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self._tokens = burst
        self._last_refill = clock()

    def _refill(self) -> None:
        now = self.clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    def admit(self, count: float = 1.0) -> bool:
        """Consume ``count`` tokens if available; False = out of profile."""
        self._refill()
        if self._tokens >= count:
            self._tokens -= count
            return True
        return False

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens
