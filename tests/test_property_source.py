"""Property: the ask-first source is the build-then-free source.

``SourceApp.iteration`` asks its port how many of the packets due it
will take (``EthDev.tx_room``) and builds only those;
``tests/support/reference_source.py`` keeps the iteration it replaced,
which built them all and freed what ``tx_burst`` refused.  Hypothesis
drives one of each through the same script — ring occupancy, every TX
state of the dual-channel PMD (NORMAL, PENDING_BYPASS, BYPASS,
killed), a stateful (XFSM) channel, a pool run nearly dry, paced and
saturating — and after every step the two worlds must read the same:
the packets delivered, the cost charged, every counter a refusal moves,
the pacer's credit.  The new source may differ in one thing only: what
the port refused was never allocated.

The same script checks the PMD's bound TX path: whatever the control
plane did between two bursts, the ring it bound and ``tx_extra_cost``
are what ``reference_source.resolve_tx`` works out per burst.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pmd import DualChannelPmd, TxState
from repro.core.stats import BypassStatsBlock
from repro.dpdk.dpdkr import DpdkrSharedRings
from repro.mem.memzone import MemzoneRegistry
from repro.mem.ring import Ring
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.state.programs import acl_program
from repro.state.xfsm import ChannelProgram
from repro.traffic import SourceApp, uniform_profile

from tests.helpers import sweep_seeded
from tests.support.reference_source import BuildThenFreeSource, resolve_tx

# Swapped under a running source: the template cursor must survive a
# shorter profile on both sides alike.
PROFILES = {flows: uniform_profile(64, flows=flows) for flows in (2, 3)}
DENIED_SRC_PORT = 1001   # uniform_profile's second flow


class _DenySrcPort:
    def matches(self, key):
        return key.l4_src == DENIED_SRC_PORT


class World:
    """One source on one dual-channel port, driven by hand: nothing
    polls but ``poll()``, nothing drains but ``drain()``."""

    def __init__(self, source_cls, rate_pps):
        self.pmd = DualChannelPmd(0, DpdkrSharedRings(
            MemzoneRegistry(), "p0", ring_size=64))
        # Priced as GuestPmdManager.create_pmd prices it.
        self.pmd.stats_update_cost = DEFAULT_COST_MODEL.bypass_stats_update
        self.pmd.xfsm_exec_cost = DEFAULT_COST_MODEL.ovs_xfsm_exec
        self.bypass = Ring("bypass", 64)
        self.stats = BypassStatsBlock("bypass", 1, 2)
        self.channel = ChannelProgram(acl_program([_DenySrcPort()]))
        self.clock = SimpleNamespace(now=0.0)
        self.source = source_cls(
            "src", self.pmd, profile=PROFILES[3], pool_size=96,
            rate_pps=rate_pps)
        self.source._env = self.clock
        self.held = []
        self.held_allocs = 0
        self.delivered = []
        self.costs = []
        self.lied = False   # a poll's port could not answer truthfully

    def poll(self, dt):
        self.clock.now += dt
        self.costs.append(self.source.iteration())
        pmd = self.pmd
        if pmd.tx_state is TxState.BYPASS and pmd.bypass_xfsm is not None:
            self.lied = True

    def drain(self, ring, count):
        for mbuf in ring.dequeue_burst(count):
            self.delivered.append(
                (mbuf.seq, mbuf.userdata, mbuf.ts_injected,
                 mbuf.wire_length))
            mbuf.free()

    def control(self, op, arg):
        pmd = self.pmd
        if op == "attach":
            if pmd.bypass_tx_ring is None:
                pmd.attach_bypass_tx(self.bypass, self.stats, 7,
                                     self.channel if arg else None)
        elif op == "detach":
            if pmd.bypass_tx_ring is not None:
                pmd.detach_bypass_tx()
        elif op == "kill":
            pmd.killed = arg
        elif op == "account":
            pmd.accounting_enabled = arg
        elif op == "hold":
            pool = self.source.pool
            taken = pool.get_bulk(min(arg, pool.available))
            self.held.extend(taken)
            self.held_allocs += len(taken)
        elif op == "release":
            self.source.pool.free_burst(self.held)
            self.held = []
        elif op == "profile":
            self.source.profile = PROFILES[arg]

    def step(self, control, drain_normal, drain_bypass, dt):
        """One round: maybe a control-plane event, the consumers take
        what they take, time passes, the source polls."""
        if control is not None:
            self.control(*control)
        self.drain(self.pmd.rings.to_switch, drain_normal)
        self.drain(self.bypass, drain_bypass)
        self.poll(dt)

    def books(self):
        pmd, source = self.pmd, self.source
        normal = pmd.rings.to_switch
        return {
            "delivered": self.delivered,
            "costs": self.costs,
            "generated": source.generated,
            "tx_failures": source.tx_failures,
            "seq": source._seq,
            "template": source._next_template,
            "credit": source._credit,
            "credit_time": source._last_credit_time,
            "in_use": source.pool.in_use,
            "dev": vars(pmd.stats),
            "tx_state": pmd.tx_state,
            "tx_via": (pmd.tx_via_normal, pmd.tx_via_bypass),
            "xfsm": (pmd.xfsm_evaluated, pmd.xfsm_drops),
            "normal": (len(normal), normal.enqueue_failures,
                       normal.partial_enqueues),
            "bypass": (len(self.bypass), self.bypass.enqueue_failures,
                       self.bypass.partial_enqueues),
            "accounted": (self.stats.tx_packets, self.stats.tx_bytes),
        }


controls = st.one_of(
    st.none(), st.none(), st.none(), st.none(),
    st.tuples(st.just("attach"), st.booleans()),
    st.tuples(st.just("detach"), st.none()),
    st.tuples(st.just("kill"), st.sampled_from([True, False, False])),
    st.tuples(st.just("account"), st.booleans()),
    st.tuples(st.just("hold"), st.integers(60, 96)),
    st.tuples(st.just("release"), st.none()),
    st.tuples(st.just("profile"), st.sampled_from([2, 3])),
)
steps = st.tuples(
    controls,
    st.sampled_from([0, 0, 0, 5, 31, 64]),   # drained: the normal ring
    st.sampled_from([0, 0, 0, 5, 31, 64]),   # ... and the bypass ring
    st.sampled_from([0.0, 1e-6, 1e-6, 4e-6, 2e-5]),
)


@sweep_seeded
@settings(max_examples=250, deadline=None)
@given(st.sampled_from([None, 4e6, 3e5]),
       st.lists(steps, min_size=1, max_size=50))
# A full ring, the template cursor at the end of three flows, and the
# profile swapped for a two-flow one before a poll that builds nothing.
@example(None, [(None, 0, 0, 0.0)] * 3 + [(("profile", 2), 0, 0, 0.0)])
def test_ask_first_source_matches_build_then_free(rate_pps, script):
    reference = World(BuildThenFreeSource, rate_pps)
    asking = World(SourceApp, rate_pps)
    for step in script:
        reference.step(*step)
        asking.step(*step)
        assert asking.books() == reference.books()
    # What separates them: the reference allocated every packet the
    # pacer allowed, the new source only what its port said it would
    # take — which, from a port that can tell, is what it delivered.
    source = reference.source
    assert (source.pool.alloc_count - reference.held_allocs
            == source.generated + source.tx_failures)
    if not asking.lied:
        source = asking.source
        assert (source.pool.alloc_count - asking.held_allocs
                == source.generated)


@sweep_seeded
@settings(max_examples=250, deadline=None)
@given(st.sampled_from([None, 4e6]),
       st.lists(steps, min_size=1, max_size=50))
# Attach onto a queued normal ring (the drain gate holds), detach,
# kill, the accounting ablation, a stateful attach.
@example(None, [(None, 0, 0, 0.0), (("attach", False), 0, 0, 0.0),
                (("account", False), 64, 0, 1e-6),
                (("detach", None), 0, 0, 1e-6),
                (("kill", True), 0, 0, 0.0), (("kill", False), 0, 0, 0.0),
                (("attach", True), 64, 0, 1e-6)])
# The drain gate opens between two bursts: no packet is due at the
# poll after the normal ring drained, so the check makes the flip.
@example(4e6, [(None, 0, 0, 1e-6), (("attach", False), 64, 0, 0.0)])
def test_the_bound_tx_path_is_the_per_burst_resolution(rate_pps, script):
    world = World(SourceApp, rate_pps)
    pmd = world.pmd
    for step in script:
        world.step(*step)
        ring, extra = resolve_tx(pmd)
        assert pmd._tx_ring() is ring   # PENDING_BYPASS may flip here
        # == on floats: the same additions in the same order.
        assert pmd.tx_extra_cost == extra
        if not pmd.killed and pmd.tx_state in (TxState.NORMAL,
                                               TxState.BYPASS):
            assert pmd._tx_bound is ring   # nothing left to resolve
