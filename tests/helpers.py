"""Shared test helpers."""

import os

from repro.packet.builder import make_udp_packet
from repro.packet.mbuf import Mbuf


def mk_mbuf(packet=None, pool=None, **udp_kwargs):
    """An mbuf carrying a freshly-built UDP packet (or ``packet``)."""
    if packet is None:
        packet = make_udp_packet(**udp_kwargs)
    mbuf = pool.get() if pool is not None else Mbuf()
    mbuf.packet = packet
    mbuf.wire_length = packet.wire_length
    return mbuf


def drain(ring, max_count=1024):
    """Dequeue everything currently in ``ring``."""
    return ring.dequeue_burst(max_count)


def sweep_seeded(test):
    """Under the CI fault sweep, draw the examples from its seed."""
    if os.environ.get("REPRO_FAULT_SEED"):
        from hypothesis import seed   # not every CI job installs it

        return seed(int(os.environ["REPRO_FAULT_SEED"]))(test)
    return test
