"""Shared test helpers."""

import os

from repro.apps.conntrack import StatefulFirewallApp
from repro.bench.harness import OfferedPoint
from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings
from repro.mem.memzone import MemzoneRegistry
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


class GuestFirewall:
    """A StatefulFirewallApp on a pair of dpdkr ports, fed one packet
    at a time; ``push`` answers 'was it forwarded?'.  ``capacity`` and
    ``idle_timeout`` size the app's state table."""

    def __init__(self, capacity=65536, idle_timeout=30.0):
        registry = MemzoneRegistry()
        self.inside = DpdkrPmd(0, DpdkrSharedRings(registry, "in"))
        self.outside = DpdkrPmd(1, DpdkrSharedRings(registry, "out"))
        self.now = 0.0
        self.app = StatefulFirewallApp("sfw", self.inside, self.outside,
                                       clock=lambda: self.now)
        self.table = self.app.program.table
        self.table.capacity = capacity
        self.table.idle_timeout = idle_timeout

    def push(self, mbuf, from_inside, now=None):
        if now is not None:
            self.now = now
        rx = self.inside if from_inside else self.outside
        tx = self.outside if from_inside else self.inside
        rx.rings.to_guest.enqueue(mbuf)
        self.app.iteration()
        return len(tx.rings.to_switch.dequeue_burst(8)) == 1


def capacity_runner(capacity_pps, latency_us=None):
    """Deliver everything up to a hard capacity, drop the rest."""

    def run(offered_pps):
        duration = 0.01
        sent = int(offered_pps * duration)
        delivered = int(min(offered_pps, capacity_pps) * duration)
        return OfferedPoint(
            offered_pps=offered_pps, duration=duration, sent=sent,
            delivered=delivered,
            throughput_mpps=delivered / duration / 1e6,
            latency_us=dict(latency_us or {"p50_us": 5.0, "p95_us": 9.0,
                                           "p99_us": 11.0,
                                           "p999_us": 14.0}),
        )

    return run


def drain(ring, max_count=1024):
    """Dequeue everything currently in ``ring``."""
    return ring.dequeue_burst(max_count)


def sweep_seeded(test):
    """Under the CI fault sweep, draw the examples from its seed."""
    if os.environ.get("REPRO_FAULT_SEED"):
        from hypothesis import seed   # not every CI job installs it

        return seed(int(os.environ["REPRO_FAULT_SEED"]))(test)
    return test


def metric_shape_problems(samples):
    """What breaks "one metric name, one type, one label set" in a
    scrape: a name exported as two kinds, a name exported with two sets
    of label keys, or one series (name + label values) exported twice."""
    kinds, label_keys, series, problems = {}, {}, set(), []
    for sample in samples:
        name = sample.name
        kind = kinds.setdefault(name, sample.kind)
        if kind != sample.kind:
            problems.append("%s: kind %s and %s" % (name, kind, sample.kind))
        keys = label_keys.setdefault(name, frozenset(sample.labels))
        if keys != frozenset(sample.labels):
            problems.append("%s: labels %s and %s"
                            % (name, sorted(keys), sorted(sample.labels)))
        one = (name, tuple(sorted(sample.labels.items())))
        if one in series:
            problems.append("%s: series %r twice" % (name, dict(one[1])))
        series.add(one)
    return problems
