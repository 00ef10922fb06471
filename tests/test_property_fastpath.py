"""Property: the flow-batched fast path is observationally equivalent
to the scalar per-packet lane it replaced.

Two identical switches — one as shipped, one with the scalar lane of
``tests/support/reference_datapath.py`` installed — are driven with the
same random interleaving of traffic bursts (with duplicate flows per
burst), flowmods between bursts, and set-field rewrites mid-burst, then
compared:

* every output port delivered the same multiset of packets, with the
  same final header contents;
* packets of the *same flow* kept their relative order (different flows
  may legally interleave differently: that is what flow batching does
  in real OVS too);
* per-rule packet/byte accounting agrees;
* aggregate datapath counters (packets processed, upcalls, pipeline
  drops, resolved packets) agree.  The per-tier split (EMC vs SMC vs
  classifier hits) intentionally differs — the SMC tier only exists on
  the batched lane — but the totals must not.

Every harness that forwarded a packet proves which lane carried it:
``flow_batches`` is 0 on the oracle side and positive on the batched
side (``assert_lanes_ran``), so a differential cannot quietly compare
the batched lane with itself.

A second property is the flow-plan differential: the batched lane
replays plans compiled once per traversal, the scalar lane compiles
nothing, and the two must stay indistinguishable while flowmods (add
above, modify in place, strict delete), a goto_table pipeline, an XFSM
delegation, multi-consumer action lists and a ``del_port`` of a plan's
output port land between the bursts — with the EMC on and off.

A third property pins down precise EMC invalidation: a datapath-style
EMC whose listener tombstones only the affected keys never serves a
stale rule, agreeing with the linear table lookup under churn.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.mempool import Mempool
from repro.obs.trace import PathTracer
from repro.openflow.actions import (
    ControllerAction,
    GotoTableAction,
    OutputAction,
    SetFieldAction,
    XfsmAction,
)
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_UDP, Udp
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.state.programs import acl_program
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.emc import ExactMatchCache
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf
from tests.support.reference_datapath import install_scalar_lane

PORT_NAMES = ("p0", "p1", "p2")
FLOW_SRC_PORTS = (1000, 1001, 1002, 1003)
REWRITE_DST = 9999

# One op is one of:
#   ("burst", rx_port_index, [flow_index, ...])   enqueue + step
#   ("add", in_port_index|None, flow_index|None, action_kind,
#    out_port_index, priority)                    install a rule
#   ("del", in_port_index)                        delete rules by in_port
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("burst"),
            st.integers(0, len(PORT_NAMES) - 1),
            st.lists(st.integers(0, len(FLOW_SRC_PORTS) - 1),
                     min_size=1, max_size=8),
        ),
        st.tuples(
            st.just("add"),
            st.sampled_from([None, 0, 1, 2]),
            st.sampled_from([None, 0, 1, 2, 3]),
            st.sampled_from(["out", "setfield", "multi", "drop"]),
            st.integers(0, len(PORT_NAMES) - 1),
            st.sampled_from([10, 20]),
        ),
        st.tuples(st.just("del"), st.integers(0, len(PORT_NAMES) - 1)),
    ),
    min_size=1,
    max_size=14,
)


class Harness:
    """One switch plus the bookkeeping to replay and observe a run."""

    def __init__(self, vectorized: bool) -> None:
        self.switch = VSwitchd(name="br-%s"
                               % ("vec" if vectorized else "scalar"))
        if not vectorized:
            install_scalar_lane(self.switch.datapath)
        self.ports = [self.switch.add_dpdkr_port(name)
                      for name in PORT_NAMES]
        self.entries = []       # parallel across harnesses
        self.mbufs = []         # keep refs so id() stays unique
        self.seq_of = {}        # id(mbuf) -> sequence number
        self.delivered = {name: [] for name in PORT_NAMES}

    def _match(self, in_port_index, flow_index) -> Match:
        constraints = {}
        if in_port_index is not None:
            constraints["in_port"] = self.ports[in_port_index].ofport
        if flow_index is not None:
            constraints["eth_type"] = ETH_TYPE_IPV4
            constraints["ip_proto"] = IP_PROTO_UDP
            constraints["l4_src"] = FLOW_SRC_PORTS[flow_index]
        return Match(**constraints)

    def apply(self, op, seq_base: int) -> None:
        kind = op[0]
        if kind == "add":
            _kind, in_port_index, flow_index, action_kind, out, prio = op
            actions = {
                "out": [OutputAction(self.ports[out].ofport)],
                "setfield": [SetFieldAction("l4_dst", REWRITE_DST),
                             OutputAction(self.ports[out].ofport)],
                "multi": [OutputAction(self.ports[out].ofport),
                          OutputAction(self.ports[(out + 1) % 3].ofport)],
                "drop": [],
            }[action_kind]
            entry = FlowEntry(self._match(in_port_index, flow_index),
                              actions, priority=prio)
            self.entries.append(entry)
            self.switch.bridge.table.add(entry)
        elif kind == "del":
            _kind, in_port_index = op
            self.switch.bridge.table.delete(
                self._match(in_port_index, None))
        else:
            _kind, rx_index, flow_indices = op
            rx = self.ports[rx_index]
            for offset, flow_index in enumerate(flow_indices):
                mbuf = mk_mbuf(src_port=FLOW_SRC_PORTS[flow_index])
                self.mbufs.append(mbuf)
                self.seq_of[id(mbuf)] = seq_base + offset
                rx.rings.to_switch.enqueue(mbuf)
            self.switch.step_dataplane()
            self.collect()

    def collect(self) -> None:
        for port in self.ports:
            for mbuf in port.rings.to_guest.dequeue_burst(1024):
                udp = mbuf.packet.get(Udp)
                self.delivered[port.name].append(
                    (self.seq_of[id(mbuf)], udp.src_port, udp.dst_port)
                )


def assert_lanes_ran(scalar, vector) -> None:
    """If the run forwarded a packet, ``scalar`` carried it on the
    oracle lane and ``vector`` on the batched one."""
    if vector.switch.datapath.packets_processed:
        assert scalar.switch.datapath.flow_batches == 0
        assert vector.switch.datapath.flow_batches > 0


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
def test_vectorized_path_equals_scalar_path(ops):
    scalar = Harness(vectorized=False)
    vector = Harness(vectorized=True)
    seq = 0
    for op in ops:
        scalar.apply(op, seq)
        vector.apply(op, seq)
        if op[0] == "burst":
            seq += len(op[2])

    for name in PORT_NAMES:
        got_scalar = scalar.delivered[name]
        got_vector = vector.delivered[name]
        # Same packets with the same final headers (multiset equality).
        assert sorted(got_scalar) == sorted(got_vector)
        # Per-flow order preserved (flow = original UDP source port;
        # set-field only rewrites the destination).
        for flow in FLOW_SRC_PORTS:
            assert [rec for rec in got_scalar if rec[1] == flow] \
                == [rec for rec in got_vector if rec[1] == flow]

    assert_lanes_ran(scalar, vector)
    dp_scalar = scalar.switch.datapath
    dp_vector = vector.switch.datapath
    assert dp_scalar.packets_processed == dp_vector.packets_processed
    assert dp_scalar.miss_upcalls == dp_vector.miss_upcalls
    assert dp_scalar.pipeline_drops == dp_vector.pipeline_drops
    # Resolved packets agree even though the tier split differs.
    assert (dp_scalar.emc_hits + dp_scalar.classifier_hits
            == dp_vector.emc_hits + dp_vector.classifier_hits)
    assert dp_scalar.smc_hits == 0  # the scalar path has no SMC tier

    # Per-rule accounting: rules were installed in lockstep, so the
    # parallel entry lists line up pairwise.
    assert len(scalar.entries) == len(vector.entries)
    for entry_s, entry_v in zip(scalar.entries, vector.entries):
        assert entry_s.packet_count == entry_v.packet_count
        assert entry_s.byte_count == entry_v.byte_count


# -- flow plans vs. no plans under flowmods ---------------------------------

PLAN_PORT_NAMES = PORT_NAMES + ("p3",)   # p3: output only, may be deleted
ACTION_KINDS = ["out", "setfield", "multi", "setmulti", "ctrl", "drop",
                "goto", "xfsm"]
DENIED_FLOW = FLOW_SRC_PORTS[1]          # what the ACL program drops

plan_ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("burst"),
            st.integers(0, len(PORT_NAMES) - 1),
            st.lists(st.integers(0, len(FLOW_SRC_PORTS) - 1),
                     min_size=1, max_size=8),
        ),
        st.tuples(
            st.just("add"),
            st.sampled_from([None, 0, 1, 2]),
            st.sampled_from([None, 0, 1, 2, 3]),
            st.sampled_from(ACTION_KINDS),
            st.integers(0, len(PLAN_PORT_NAMES) - 1),
            st.sampled_from([10, 20, 30]),
        ),
        # modify the actions of an installed (possibly EMC-resident) rule
        st.tuples(st.just("mod"), st.integers(0, 7),
                  st.sampled_from(ACTION_KINDS),
                  st.integers(0, len(PLAN_PORT_NAMES) - 1)),
        st.tuples(st.just("sdel"), st.integers(0, 7)),
        st.tuples(st.just("delport")),
    ),
    min_size=1,
    max_size=18,
)


class PlanHarness(Harness):
    """The harness above plus a second pipeline table, an XFSM program,
    a real mempool, a clock and a deletable output port."""

    def __init__(self, vectorized: bool, emc_enabled: bool) -> None:
        super().__init__(vectorized)
        datapath = self.switch.datapath
        datapath.emc_enabled = emc_enabled
        self.now = 0.0
        datapath.clock = lambda: self.now
        self.ports.append(self.switch.add_dpdkr_port("p3"))
        self.delivered["p3"] = []
        self.pool = Mempool("pkts", size=256)
        # Table 1 forwards flow 0 and misses (an OF1.3 drop) the rest.
        table1 = FlowTable(table_id=1)
        datapath.attach_table(1, table1)
        self.entries.append(FlowEntry(
            Match(eth_type=ETH_TYPE_IPV4, ip_proto=IP_PROTO_UDP,
                  l4_src=FLOW_SRC_PORTS[0]),
            [OutputAction(self.ports[1].ofport)]))
        table1.add(self.entries[0])
        datapath.register_xfsm(acl_program(
            [Match(eth_type=ETH_TYPE_IPV4, ip_proto=IP_PROTO_UDP,
                   l4_src=DENIED_FLOW)]))

    def _actions(self, kind: str, out: int):
        first = self.ports[out].ofport
        second = self.ports[(out + 1) % len(self.ports)].ofport
        return {
            "out": [OutputAction(first)],
            "setfield": [SetFieldAction("l4_dst", REWRITE_DST),
                         OutputAction(first)],
            "multi": [OutputAction(first), OutputAction(second)],
            "setmulti": [SetFieldAction("l4_dst", REWRITE_DST),
                         OutputAction(first), OutputAction(second)],
            "ctrl": [ControllerAction(), OutputAction(first)],
            "drop": [],
            "goto": [GotoTableAction(1)],
            "xfsm": [XfsmAction("acl"), OutputAction(first)],
        }[kind]

    def apply(self, op, seq_base: int) -> None:
        self.now += 0.25
        kind = op[0]
        table = self.switch.bridge.table
        if kind == "add":
            _kind, in_port_index, flow_index, action_kind, out, prio = op
            entry = FlowEntry(self._match(in_port_index, flow_index),
                              self._actions(action_kind, out),
                              priority=prio)
            self.entries.append(entry)
            table.add(entry)
        elif kind == "mod":
            entry = self.entries[op[1] % len(self.entries)]
            if entry in table.entries():
                table.modify(entry.match, self._actions(op[2], op[3]),
                             strict=True, priority=entry.priority)
        elif kind == "sdel":
            entry = self.entries[op[1] % len(self.entries)]
            table.delete(entry.match, strict=True, priority=entry.priority)
        elif kind == "delport":
            ofport = self.ports[3].ofport
            if ofport in self.switch.datapath.ports:
                self.collect()
                self.switch.del_port(ofport)
        else:
            _kind, rx_index, flow_indices = op
            rx = self.ports[rx_index]
            for offset, flow_index in enumerate(flow_indices):
                mbuf = mk_mbuf(pool=self.pool,
                               src_port=FLOW_SRC_PORTS[flow_index])
                self.seq_of[id(mbuf)] = seq_base + offset
                rx.rings.to_switch.enqueue(mbuf)
            self.switch.step_dataplane()
            self.collect()

    def collect(self) -> None:
        for port in self.ports:
            for mbuf in port.rings.to_guest.dequeue_burst(1024):
                udp = mbuf.packet.get(Udp)
                self.delivered[port.name].append(
                    (self.seq_of[id(mbuf)], udp.src_port, udp.dst_port))
                mbuf.free()


# Not pipeline_drops: it counts packets at *resolution* time, so a
# cache hit (EMC in both lanes, megaflow in the batched one) skips it —
# the lanes already disagreed on it before there were plans.
DATAPATH_COUNTERS = (
    "packets_processed", "upcalls_no_match", "upcalls_action",
    "action_drops", "unknown_port_drops",
    "xfsm_evaluated", "xfsm_drops", "xfsm_unknown_drops",
)


# Every kind of change once, each between bursts that hit a compiled
# plan before it and must see the new behaviour after it.
EVERY_CHANGE_ONCE = [
    ("add", None, None, "out", 1, 10),
    ("burst", 0, [0, 1, 0, 2]), ("burst", 0, [0, 1]),
    ("mod", 1, "out", 2),                      # EMC-resident entry
    ("burst", 0, [0, 1, 0]),
    ("add", None, 0, "multi", 0, 20),          # outranks it for flow 0
    ("burst", 0, [0, 1, 0]),
    ("sdel", 2),
    ("burst", 0, [0, 1]),
    ("add", 0, 2, "goto", 0, 30), ("add", 0, 0, "goto", 0, 30),
    ("burst", 0, [0, 2, 0, 3]),
    ("add", 2, None, "xfsm", 0, 20),
    ("burst", 2, [0, 1, 1, 2]),
    ("add", 1, None, "setmulti", 2, 20), ("add", 1, 3, "ctrl", 3, 30),
    ("burst", 1, [0, 3, 0, 3]),
    ("mod", 1, "out", 3),
    ("burst", 0, [1, 1]),
    ("delport",),
    ("burst", 0, [1, 3]), ("burst", 1, [0, 3]),
]


@pytest.mark.parametrize("emc_enabled", [True, False])
@settings(max_examples=60, deadline=None)
@given(plan_ops_strategy)
@example(EVERY_CHANGE_ONCE)
def test_flow_plans_track_every_table_and_port_change(emc_enabled, ops):
    scalar = PlanHarness(vectorized=False, emc_enabled=emc_enabled)
    vector = PlanHarness(vectorized=True, emc_enabled=emc_enabled)
    seq = 0
    for op in ops:
        scalar.apply(op, seq)
        vector.apply(op, seq)
        if op[0] == "burst":
            seq += len(op[2])

    for name in PLAN_PORT_NAMES:
        got_scalar = scalar.delivered[name]
        got_vector = vector.delivered[name]
        assert sorted(got_scalar) == sorted(got_vector)
        for flow in FLOW_SRC_PORTS:
            assert [rec for rec in got_scalar if rec[1] == flow] \
                == [rec for rec in got_vector if rec[1] == flow]

    assert_lanes_ran(scalar, vector)
    dp_scalar = scalar.switch.datapath
    dp_vector = vector.switch.datapath
    for counter in DATAPATH_COUNTERS:
        assert getattr(dp_scalar, counter) == getattr(dp_vector, counter), \
            counter
    assert (dp_scalar.emc_hits + dp_scalar.classifier_hits
            == dp_vector.emc_hits + dp_vector.classifier_hits)
    # The oracle lane compiles and memoises nothing.
    assert dp_scalar.plans.compiles == 0
    assert (dp_scalar.rekeys.hits, dp_scalar.rekeys.misses) == (0, 0)

    assert len(scalar.entries) == len(vector.entries)
    for entry_s, entry_v in zip(scalar.entries, vector.entries):
        assert (entry_s.packet_count, entry_s.byte_count,
                entry_s.last_used) \
            == (entry_v.packet_count, entry_v.byte_count,
                entry_v.last_used)

    for harness in (scalar, vector):
        assert harness.pool.in_use == 0
        assert harness.pool.double_free_detected == 0


# -- the one-packet burst vs. the scalar lane, feature by feature --------------
#
# A burst of one skips the batch grouping, a datapath with no policer,
# shed level, mirror or traced mbuf skips those features' code, and one
# output port is one list hand-off.  Each of those choices is made from
# what the burst looks like, so each is driven here from both sides:
# bursts of 1, 2, 3 and 32 packets, with nothing configured and with
# each slow feature in turn.  Every packet of a burst is its own flow,
# the SMC and megaflow tiers are off and the oracle is told to price a
# scalar dispatch like one batch's dispatch, so a flow batch is one
# packet and the two lanes must agree on *everything*: delivery order,
# counters, the cost each iteration returns and the stage tables, with
# ``==`` on the floats.

LANE_BURSTS = (1, 2, 3, 32, 1, 3, 32, 2)   # each size cold, then cached
LANE_FLOWS = tuple(range(2000, 2032))
LANE_DENIED = LANE_FLOWS[1]
LANE_FEATURES = ("nothing", "policer", "fractional_shed", "ingress_mirror",
                 "egress_mirror", "traced_mbuf", "output_down",
                 "output_deleted", "setfield_multi", "xfsm")
LANE_COUNTERS = DATAPATH_COUNTERS + (
    "emc_hits", "classifier_hits", "pipeline_drops", "packets_mirrored",
    "rx_early_drops")
RING_COUNTERS = ("enqueued", "dequeued", "enqueue_failures",
                 "partial_enqueues", "dequeue_failures")
PORT_COUNTERS = ("rx_packets", "rx_bytes", "tx_packets", "tx_bytes",
                 "tx_dropped")


class LaneHarness:
    """p0 -> p1 (p2 takes mirror and multi-output copies) with one slow
    feature configured, in one lane."""

    def __init__(self, vectorized: bool, feature: str) -> None:
        self.switch = switch = VSwitchd(name="lane")
        self.datapath = datapath = switch.datapath
        if not vectorized:
            install_scalar_lane(
                datapath, dispatch=DEFAULT_COST_MODEL.ovs_batch_action)
        datapath.smc_enabled = datapath.megaflow_enabled = False
        self.feature = feature
        self.ports = [switch.add_dpdkr_port(name) for name in PORT_NAMES]
        self.pool = Mempool("lane", size=256)
        self.tracer = PathTracer(sample_interval=1)
        self.delivered = {name: [] for name in PORT_NAMES}
        self.costs_returned = []
        self.hops = []
        self.seq = 0
        p0, p1, p2 = (port.ofport for port in self.ports)
        actions = [OutputAction(p1)]
        if feature == "setfield_multi":
            actions = [SetFieldAction("l4_dst", REWRITE_DST),
                       OutputAction(p1), OutputAction(p2)]
        elif feature == "xfsm":
            datapath.register_xfsm(acl_program(
                [Match(eth_type=ETH_TYPE_IPV4, ip_proto=IP_PROTO_UDP,
                       l4_src=LANE_DENIED)]))
            actions = [XfsmAction("acl"), OutputAction(p1)]
        switch.bridge.table.add(FlowEntry(Match(in_port=p0), actions))
        if feature == "policer":
            # No clock: the bucket never refills, 40 packets pass.
            switch.set_ingress_policing("p0", rate_pps=1000.0, burst=40.0)
        elif feature == "fractional_shed":
            datapath.rx_shed[p0] = 0.3
        elif feature == "ingress_mirror":
            switch.add_mirror("m", output="p2", select_src=["p0"])
        elif feature == "egress_mirror":
            switch.add_mirror("m", output="p2", select_dst=["p1"])
        elif feature == "output_down":
            self.ports[1].up = False

    def burst(self, size: int, index: int) -> None:
        if self.feature == "output_deleted" and index == 4:
            # Plans and EMC entries for p1 exist by now.
            self.switch.del_port(self.ports[1].ofport)
        rx = self.ports[0].rings.to_switch
        for offset in range(size):
            mbuf = mk_mbuf(pool=self.pool, src_port=LANE_FLOWS[offset])
            mbuf.seq = self.seq
            self.seq += 1
            if self.feature == "traced_mbuf" and offset == size // 2:
                self.tracer.ingress(mbuf)
                self.hops.append(mbuf.trace)
            rx.enqueue(mbuf)
        self.costs_returned.append(self.switch.step_dataplane())
        for port in self.ports:
            for mbuf in port.rings.to_guest.dequeue_burst(1024):
                udp = mbuf.packet.get(Udp)
                self.delivered[port.name].append(
                    (mbuf.seq, udp.src_port, udp.dst_port))
                mbuf.free()

    def observe(self):
        switch, datapath = self.switch, self.datapath
        rings = [ring for port in self.ports
                 for ring in (port.rings.to_switch, port.rings.to_guest)]
        return {
            "delivered": self.delivered,
            "cost": self.costs_returned,
            "datapath": {name: getattr(datapath, name)
                         for name in LANE_COUNTERS},
            "ports": [[getattr(port, name) for name in PORT_COUNTERS]
                      for port in self.ports],
            "rings": [[getattr(ring, name) for name in RING_COUNTERS]
                      for ring in rings],
            "stages": [(dict(table.seconds), dict(table.packets))
                       for table in (switch._core_stages
                                     + list(switch._port_stages.values()))],
            "policed": [(policer.admitted, policer.dropped)
                        for policer in datapath.policers.values()],
            "traced": [[hop if hop in ("ingress", "switch-rx", "switch-tx")
                        else "lookup" for hop in trace.hops()]
                       for trace in self.hops],
            "pool": (self.pool.in_use, self.pool.double_free_detected),
        }


@pytest.mark.parametrize("feature", LANE_FEATURES)
def test_a_burst_of_one_flow_batches_equals_the_scalar_lane(feature):
    scalar = LaneHarness(vectorized=False, feature=feature)
    vector = LaneHarness(vectorized=True, feature=feature)
    for index, size in enumerate(LANE_BURSTS):
        scalar.burst(size, index)
        vector.burst(size, index)
        assert vector.observe() == scalar.observe(), (feature, index, size)
    assert_lanes_ran(scalar, vector)
    # The scenario did what its name says, in both lanes alike.
    seen = vector.observe()
    assert seen["pool"] == (0, 0)
    assert sum(seen["cost"]) > 0.0
    delivered = {name: len(got) for name, got in seen["delivered"].items()}
    offered = sum(LANE_BURSTS)
    expected = {
        "nothing": {"p1": offered},
        "policer": {"p1": 40},
        "ingress_mirror": {"p1": offered, "p2": offered},
        "egress_mirror": {"p1": offered, "p2": offered},
        "traced_mbuf": {"p1": offered},
        "output_down": {},
        "setfield_multi": {"p1": offered, "p2": offered},
    }.get(feature)
    if expected is not None:
        assert delivered == dict({"p0": 0, "p1": 0, "p2": 0}, **expected)
    if feature == "fractional_shed":
        assert 0 < delivered["p1"] < offered
        assert seen["datapath"]["rx_early_drops"]
    elif feature == "output_deleted":
        assert 0 < delivered["p1"] < offered
        assert seen["datapath"]["unknown_port_drops"] > 0
    elif feature == "xfsm":
        assert seen["datapath"]["xfsm_drops"] == sum(
            1 for size in LANE_BURSTS if size > 1)
    elif feature == "traced_mbuf":
        assert all(trace == ["ingress", "switch-rx", "lookup", "switch-tx"]
                   for trace in seen["traced"])
    elif feature == "output_down":
        assert seen["ports"][1][PORT_COUNTERS.index("tx_dropped")] == offered


# -- precise invalidation property -----------------------------------------

PORTS = [1, 2, 3]
L4S = [1000, 2000]


def make_key(in_port, l4_dst):
    return FlowKey(
        in_port=in_port, eth_src=2, eth_dst=3, eth_type=ETH_TYPE_IPV4,
        vlan_vid=0, ip_src=0x0A000001, ip_dst=0x0A000002,
        ip_proto=IP_PROTO_UDP, ip_tos=0, l4_src=1, l4_dst=l4_dst,
    )


ALL_KEYS = [make_key(p, d) for p in PORTS for d in L4S]


@st.composite
def match_strategy(draw):
    constraints = {}
    if draw(st.booleans()):
        constraints["in_port"] = draw(st.sampled_from(PORTS))
    if draw(st.booleans()):
        constraints["eth_type"] = ETH_TYPE_IPV4
        if draw(st.booleans()):
            constraints["ip_proto"] = IP_PROTO_UDP
            if draw(st.booleans()):
                constraints["l4_dst"] = draw(st.sampled_from(L4S))
    return Match(**constraints)


churn = st.lists(
    st.one_of(
        st.tuples(st.just("add"), match_strategy(), st.integers(0, 5)),
        st.tuples(st.just("del"), match_strategy(), st.integers(0, 5)),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(churn)
def test_precise_invalidation_never_serves_stale(ops):
    """Datapath-style EMC with *precise* (tombstone) invalidation always
    agrees with the table's linear lookup, like the generation-wipe
    variant in test_property_classifier.py — but evicting only the keys
    each flowmod touches."""
    table = FlowTable()
    classifier = TupleSpaceClassifier(table)
    emc = ExactMatchCache(capacity=8, insert_inv_prob=1)

    def on_change(kind, entry):
        if kind == "added":
            emc.invalidate_matching(entry.match)
        else:
            emc.invalidate_entry(entry)

    table.add_listener(on_change)
    for op, match, priority in ops:
        if op == "add":
            table.add(FlowEntry(match, [OutputAction(9)],
                                priority=priority))
        else:
            table.delete(match, strict=True, priority=priority)
        for key in ALL_KEYS:
            cached = emc.lookup(key)
            if cached is None:
                entry = classifier.lookup(key)
                if entry is not None:
                    emc.insert(key, (entry,))
            else:
                entry = cached[0]
            assert entry is table.lookup(key)
