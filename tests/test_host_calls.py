"""Host cost that needs no quiet machine: Python-level calls per engine
event on the golden scenario, per delivered packet on a saturated chain
and on a sub-saturation handover, and per packet on the switch's miss
and flowmod path, under committed ceilings.

``scripts/host_calls.py`` counts every Python and builtin call of a run
with ``cProfile``; the simulator is deterministic, so the count repeats
exactly and a change that adds per-burst or per-event churn (a
``dict.get`` per port, a generator per look-ahead, a property chain per
ring operation) moves it whatever the machine is doing.  The golden
scenario is ``tests/test_golden_modelled_clock.py``'s, which also
asserts that it dispatched exactly ``GOLDEN_EVENTS`` engine events; it
runs below saturation, where a source sends every packet it builds, so
the second ceiling holds what it cannot see: work done per packet that
is *delivered* when most of what is offered is refused.  Both resolve
nearly every packet on an EMC hit; the third ceiling holds the path a
hit skips — flow-key extraction, the megaflow tier, EMC insertion and
invalidation under rule churn — on perfbench's ``switch_miss_churn``.
The fourth holds the packet that travels alone: perfbench's
``handover_load``, a 0.5 Mpps stream across an ordered bypass teardown
and re-establishment, where every hop carries a burst of one and every
loop parks between packets, so a fixed cost per burst, park or wake-up
is a cost per packet.
"""

import importlib.util
import os

from perfbench import adapter
from repro.experiments.chain import ChainExperiment

from tests.test_golden_modelled_clock import (
    test_handover_under_load_is_bit_identical as golden_scenario,
)

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                     "host_calls.py")
_spec = importlib.util.spec_from_file_location("host_calls", _PATH)
host_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(host_calls)

GOLDEN_EVENTS = 84820
# 27.16 calls per event (2,303,498 calls), plus 10 %.  Lower it when the
# count falls; raising it needs a reason.  It read 35.37 while parked
# loops re-registered on every ring at every park and the guest PMD
# resolved its TX ring twice a burst.
CEILING_CALLS_PER_EVENT = 29.9
# 20.86 calls per delivered packet (252,370 calls, 12,096 packets: a
# 3-VM vanilla chain, both directions saturated, 1 ms plus warm-up and
# control-plane settle), plus 10 %.  It read 48.65 while the sources
# built 32 mbufs a poll and freed the three in four their full TX ring
# refused, and 24.13 before the TX path was bound per state change.
CEILING_CALLS_PER_DELIVERED_PACKET = 23.0
# 31.74 calls per packet (761,734 calls, 24,000 packets: perfbench's
# switch_miss_churn --quick, seed 1), plus 10 %.  Lower it when the count
# falls; raising it needs a reason.  It read 48.77 while every flow key
# took five header scans and every megaflow hit a pipeline walk, and
# 31.80 before a switch port counted its bytes inline.
CEILING_CALLS_PER_PACKET_ON_THE_MISS_PATH = 34.9
# 66.37 calls per delivered packet (4,778,217 calls, 71,999 packets:
# perfbench's handover_load --quick, seed 1), plus 10 %.  Lower it when
# the count falls; raising it needs a reason.  It read 86.13 while a
# parked loop re-registered on every ring at every park, the guest PMD
# resolved its TX ring twice a burst and the ledger, pacer, allocator
# and latency recorder each cost a call or two more per hop.
CEILING_CALLS_PER_PACKET_SUB_SATURATION = 73.0


def test_calls_per_engine_event_stay_under_the_ceiling():
    calls, _stats = host_calls.count_calls(golden_scenario)
    per_event = calls / GOLDEN_EVENTS
    assert per_event <= CEILING_CALLS_PER_EVENT, (
        "%d calls / %d events = %.2f per event" % (
            calls, GOLDEN_EVENTS, per_event))
    # Not a moving target either way: far below means the counter broke.
    assert per_event > 20


def test_calls_per_delivered_packet_at_saturation_stay_under_the_ceiling():
    experiment = ChainExperiment(num_vms=3, bypass=False, memory_only=True,
                                 duration=0.001)
    experiment.build()
    calls, _stats = host_calls.count_calls(experiment.run)
    delivered = sum(sink.received for sink in experiment.sinks.values())
    assert sum(source.tx_failures for source in experiment.sources) \
        > 2 * delivered, "not saturated: the ceiling would hold nothing"
    per_packet = calls / delivered
    assert per_packet <= CEILING_CALLS_PER_DELIVERED_PACKET, (
        "%d calls / %d delivered = %.2f per packet" % (
            calls, delivered, per_packet))
    assert per_packet > 12


def test_calls_per_packet_on_the_miss_path_stay_under_the_ceiling():
    workload = adapter.WORKLOADS["switch_miss_churn"](1, True)
    calls, _stats = host_calls.measured_phase_calls(workload)
    delivered = workload.collect()["delivered"]
    per_packet = calls / delivered
    assert per_packet <= CEILING_CALLS_PER_PACKET_ON_THE_MISS_PATH, (
        "%d calls / %d delivered = %.2f per packet" % (
            calls, delivered, per_packet))
    assert per_packet > 15


def test_calls_per_packet_below_saturation_stay_under_the_ceiling():
    workload = adapter.WORKLOADS["handover_load"](1, True)
    calls, _stats = host_calls.measured_phase_calls(workload)
    delivered = workload.collect()["delivered"]
    per_packet = calls / delivered
    assert per_packet <= CEILING_CALLS_PER_PACKET_SUB_SATURATION, (
        "%d calls / %d delivered = %.2f per packet" % (
            calls, delivered, per_packet))
    assert per_packet > 30
