"""Property: the XFSM connection programs decide what an independent
tracker decides, and the guest firewall decides what its program does.

The stateful tier's whole promise is that compiling a VNF onto the
datapath (or a bypass channel) changes *where* the policy runs, never
*what* it decides.  Hypothesis drives every implementation with the
same random interleaving of flows, directions, TCP flags/UDP traffic
and idle gaps (including gaps past the idle timeout, so eviction
timing is part of the property):

* ``firewall_program`` vs the reference tracker's perimeter decision
  (``tests/support/reference_conntrack.py``) — same per-packet verdict,
  same tracked-flow population, below capacity; and, in the same loop,
  the real :class:`StatefulFirewallApp` on its dpdkr ports vs the
  program at a drawn table capacity (2 or 65536) — at capacity both
  evict the least recently used flow;
* ``conntrack_program`` vs the reference ``ConnectionTracker`` — same
  state label after every packet, same table occupancy.

Two seeded (non-hypothesis) soaks complete the satellite: the
conservation choreography across bypass establish -> degrade ->
re-admit at three seeds, and a three-seed SYN flood against a
small-capacity table proving bounded occupancy.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet.builder import make_tcp_packet, make_udp_packet
from repro.packet.flowkey import extract_flow_key
from repro.packet.headers import Tcp
from repro.state.programs import conntrack_program, firewall_program
from repro.state.xfsm import event_for

from tests.helpers import GuestFirewall, mk_mbuf, sweep_seeded
from tests.support.reference_conntrack import (
    ConnectionTracker,
    reference_verdict,
)

OUTSIDE_IP = "8.8.8.8"
FLOWS = 4
KINDS = ("syn", "synack", "ack", "fin", "rst", "udp")
FLAGS = {
    "syn": Tcp.SYN,
    "synack": Tcp.SYN | Tcp.ACK,
    "ack": Tcp.ACK,
    "fin": Tcp.FIN | Tcp.ACK,
    "rst": Tcp.RST,
}

# One op: (flow index, direction, packet kind, idle gap before it).
# The 31 s gap exceeds the 30 s idle timeout — eviction interleaving
# is part of the equivalence claim, not a special case.
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, FLOWS - 1),
        st.booleans(),
        st.sampled_from(KINDS),
        st.sampled_from([0.0, 0.01, 0.5, 31.0]),
    ),
    min_size=1,
    max_size=25,
)


def build_mbuf(flow, from_inside, kind):
    inside_ip = "10.0.0.%d" % (flow + 1)
    inside_port, outside_port = 40000 + flow, 80
    if from_inside:
        src_ip, dst_ip = inside_ip, OUTSIDE_IP
        src_port, dst_port = inside_port, outside_port
    else:
        src_ip, dst_ip = OUTSIDE_IP, inside_ip
        src_port, dst_port = outside_port, inside_port
    if kind == "udp":
        packet = make_udp_packet(src_ip=src_ip, dst_ip=dst_ip,
                                 src_port=src_port, dst_port=dst_port)
    else:
        packet = make_tcp_packet(src_ip=src_ip, dst_ip=dst_ip,
                                 src_port=src_port, dst_port=dst_port,
                                 flags=FLAGS[kind])
    return mk_mbuf(packet=packet)


def evaluate(program, mbuf, now, from_inside):
    return program.evaluate(event_for(
        extract_flow_key(mbuf.packet, 0), mbuf, now,
        from_inside=from_inside))


@sweep_seeded
@settings(max_examples=50, deadline=None)
@given(ops_strategy, st.sampled_from([2, 65536]))
def test_firewall_program_equals_guest_firewall(ops, capacity):
    program = firewall_program(capacity=capacity)
    guest = GuestFirewall(capacity=capacity)
    # The reference refuses a new flow when full where the table evicts
    # its least recently used one: it is an oracle only below capacity.
    reference = ConnectionTracker() if capacity > FLOWS else None
    now = 0.0
    for index, (flow, from_inside, kind, gap) in enumerate(ops):
        now += gap
        where = "op %d (%s flow=%d inside=%s capacity=%d)" % (
            index, kind, flow, from_inside, capacity)
        allow = evaluate(program, build_mbuf(flow, from_inside, kind),
                         now, from_inside).allow
        forwarded = guest.push(build_mbuf(flow, from_inside, kind),
                               from_inside, now)
        assert forwarded == allow, "%s: guest %s, program %s" % (
            where, forwarded, allow)
        assert guest.table.occupancy == program.table.occupancy, where
        if reference is not None:
            mbuf = build_mbuf(flow, from_inside, kind)
            expected = reference_verdict(
                reference, extract_flow_key(mbuf.packet, 0), mbuf, now,
                from_inside)
            assert allow == expected, "%s: reference %s, program %s" % (
                where, expected, allow)
            # The two tables agree not just on verdicts but on what
            # they remember.
            assert program.table.occupancy == len(reference), where
    assert guest.app.program.dropped == program.dropped


@sweep_seeded
@settings(max_examples=50, deadline=None)
@given(ops_strategy)
def test_conntrack_program_equals_reference_tracker(ops):
    tracker = ConnectionTracker()
    program = conntrack_program()
    now = 0.0
    for flow, from_inside, kind, gap in ops:
        now += gap
        mbuf_reference = build_mbuf(flow, from_inside, kind)
        connection = tracker.observe(
            extract_flow_key(mbuf_reference.packet, 0), mbuf_reference,
            now, from_inside=from_inside)
        verdict = evaluate(program, build_mbuf(flow, from_inside, kind),
                           now, from_inside)
        assert verdict.allow  # observation only, both sides
        assert connection is not None
        assert verdict.state == connection.state.name
        assert program.table.occupancy == len(tracker)
    assert program.dropped == 0


class TestConservationUnderSeededChurn:
    """The equivalence must survive the executor moving: establish a
    stateful channel, degrade it under load (lossless fallback), let
    it re-admit — at no point may a stranger leak or a legit packet
    be misclassified."""

    @pytest.mark.parametrize("seed", [5, 17, 29])
    def test_no_misclassification_across_bypass_cycle(self, seed):
        from repro.bench.workloads import state as workload

        row = workload.bypass_state_conservation(seed=seed)
        assert row["links_degraded"] >= 1
        assert row["state_handovers"] >= 1
        assert row["stranger_leaked"] == 0
        assert row["reverse_delivered_udp"] > 0
        assert row["inside_delivered"] == row["inside_offered"]
        assert row["state_occupancy_after"] \
            == row["state_occupancy_before"]


class TestSynFloodBoundedness:
    """A flood of unique outside SYNs against a deliberately tiny
    table: drop edges never persist, so occupancy stays bounded by the
    legitimate flow count — not by the attack rate."""

    LEGIT_FLOWS = 8
    CAPACITY = 64

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_occupancy_bounded_by_legit_flows(self, seed):
        rng = random.Random(seed)
        program = firewall_program(name="flood%d" % seed,
                                   capacity=self.CAPACITY)
        now = 0.0

        def push(mbuf, from_inside):
            return program.evaluate(event_for(
                extract_flow_key(mbuf.packet, 0), mbuf, now,
                from_inside=from_inside))

        # Establish the legitimate population first (inside-originated).
        for flow in range(self.LEGIT_FLOWS):
            now += 0.001
            mbuf = mk_mbuf(packet=make_tcp_packet(
                src_ip="10.0.1.%d" % flow, dst_ip=OUTSIDE_IP,
                src_port=41000 + flow, dst_port=443, flags=Tcp.SYN))
            assert push(mbuf, True).allow
        baseline = program.table.occupancy
        assert baseline == self.LEGIT_FLOWS

        # The flood: thousands of distinct outside 5-tuples, randomly
        # interleaved with legitimate keepalives.
        leaked = 0
        for _ in range(2000):
            now += 0.0001
            if rng.random() < 0.05:
                flow = rng.randrange(self.LEGIT_FLOWS)
                keepalive = mk_mbuf(packet=make_tcp_packet(
                    src_ip="10.0.1.%d" % flow, dst_ip=OUTSIDE_IP,
                    src_port=41000 + flow,
                    dst_port=443, flags=Tcp.ACK))
                assert push(keepalive, True).allow
            attack = mk_mbuf(packet=make_tcp_packet(
                src_ip="%d.%d.%d.%d" % (
                    rng.randrange(1, 224), rng.randrange(256),
                    rng.randrange(256), rng.randrange(1, 255)),
                dst_ip="10.0.1.%d" % rng.randrange(self.LEGIT_FLOWS),
                src_port=rng.randrange(1024, 65536),
                dst_port=rng.randrange(1, 1024), flags=Tcp.SYN))
            if push(attack, False).allow:
                leaked += 1
            # The bound holds *throughout* the flood, not just at the
            # end — a transient excursion would still be memory the
            # attacker controls.
            assert program.table.occupancy <= baseline

        assert leaked == 0
        assert program.table.occupancy <= baseline
        assert program.dropped >= 2000
        assert program.table.evictions_capacity == 0
