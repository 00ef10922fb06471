"""The ethdev API: the port interface guest applications program against.

Transparency at this layer is the paper's core trick: the modified PMD
(:class:`repro.core.pmd.DualChannelPmd`) implements the same interface as
the plain single-channel :class:`repro.dpdk.dpdkr.DpdkrPmd`, so VNF code
cannot tell whether its port currently rides the vSwitch or a bypass.
"""

from dataclasses import dataclass
from typing import List

from repro.packet.mbuf import Mbuf


@dataclass
class DevStats:
    """rte_eth_stats subset."""

    ipackets: int = 0
    opackets: int = 0
    ibytes: int = 0
    obytes: int = 0
    imissed: int = 0   # rx drops (ring full on the far side)
    oerrors: int = 0   # tx failures (ring full)


class EthDev:
    """Abstract port device."""

    # Simulation clock (set by whoever wires the device into an env);
    # only consulted when stamping path-trace spans.
    clock = None

    def _trace_now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    @property
    def tx_extra_cost(self) -> float:
        """Extra per-packet CPU cost the sender pays on this device.

        Zero for plain devices; the dual-channel PMD charges the
        shared-memory statistics update here while a bypass is active.
        """
        return 0.0

    def __init__(self, port_id: int, name: str) -> None:
        self.port_id = port_id
        self.name = name
        self.stats = DevStats()

    def rx_burst(self, max_count: int) -> List[Mbuf]:
        """Receive up to ``max_count`` packets (non-blocking)."""
        raise NotImplementedError

    def tx_burst(self, mbufs: List[Mbuf]) -> int:
        """Transmit; returns ``n``: ``mbufs[:n]`` are the device's (sent,
        or consumed by its policy), ``mbufs[n:]`` stay with the caller,
        untouched."""
        raise NotImplementedError

    def tx_room(self, count: int) -> int:
        """How many of ``count`` packets due now ``tx_burst`` would take.

        A generator asks before it builds a burst.  A device that
        answers less than ``count`` has counted the refusal of the
        difference exactly as ``tx_burst`` would have (``oerrors``, ring
        failure counters), so the caller builds and offers only the
        answer and the books read as if it had offered them all.  The
        default — "all of them" — is for a device that cannot know
        without the packets; what its ``tx_burst`` then refuses the
        caller frees, as ever.
        """
        return count

    def __repr__(self) -> str:
        return "<%s port=%d %r>" % (
            type(self).__name__, self.port_id, self.name
        )
