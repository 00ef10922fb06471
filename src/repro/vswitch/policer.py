"""Ingress policing: token-bucket rate limiting on switch ports.

The OVS feature behind ``ingress_policing_rate``: packets received from
a port beyond the configured rate are dropped at ingress.  The policer
runs in the datapath — which means a bypassed port would evade its own
rate limit entirely.  Like mirrors, policed ports are therefore
ineligible for p-2-p acceleration, and policing an active bypass
revokes it: an operator's rate limit is policy, not an optimization
hint.
"""

from typing import Callable, List

from repro.overload.tokenbucket import TokenBucket
from repro.packet.mbuf import Mbuf


class IngressPolicer:
    """Per-port packet-rate policer applied by the datapath at RX."""

    def __init__(self, ofport: int, rate_pps: float, burst: float,
                 clock: Callable[[], float]) -> None:
        self.ofport = ofport
        self.rate_pps = rate_pps
        self.bucket = TokenBucket(rate_pps, burst, clock)
        self.admitted = 0
        self.dropped = 0

    def filter_burst(self, mbufs: List[Mbuf]) -> List[Mbuf]:
        """Admit in-profile packets; free and count the excess."""
        admitted: List[Mbuf] = []
        for mbuf in mbufs:
            if self.bucket.admit():
                self.admitted += 1
                admitted.append(mbuf)
            else:
                self.dropped += 1
                mbuf.free()
        return admitted

    def __repr__(self) -> str:
        return "<IngressPolicer port=%d %.0fpps admitted=%d dropped=%d>" % (
            self.ofport, self.rate_pps, self.admitted, self.dropped
        )
