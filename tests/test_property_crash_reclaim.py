"""Property: crashes under load never leak mbufs.

The acceptance invariant of the crash-lifecycle work: whatever the
crash schedule, once the node quiesces every mbuf is back in its pool
(``in_use == 0``) and nothing was written off (``leaked_permanent ==
0``).  Hypothesis draws the crash times; a 3-NF chain (source →
forwarder → sink) runs under load, the middle NF is killed abruptly at
each drawn instant, and the :class:`ChainRepairer` puts it back.

Also: pure ledger churn (assign/free/reclaim in any order) conserves
buffers without touching the simulator at all.

Both run in lock-step with the bucket ledger the pool used to keep
(``tests/support/reference_ledger.py``): the tag-only ledger must give
the same ``holders()``, ``held_by()`` and ``ReclaimReport`` after every
step, the injected double-free and ``refcnt > 1`` cases included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ForwarderApp
from repro.mem import Mempool
from repro.orchestration import (
    ChainRepairer,
    NfvNode,
    Orchestrator,
    RepairPolicy,
    ServiceGraph,
)
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp

from tests.helpers import sweep_seeded
from tests.support.reference_ledger import ReferenceLedgerMempool

FAST_REPAIR = RepairPolicy(poll_interval=0.002, max_restarts=50,
                           base_backoff=0.002, max_backoff=0.01)

crash_schedules = st.lists(
    st.floats(min_value=0.01, max_value=0.06), min_size=1, max_size=4
)


def assert_ledgers_agree(pool: ReferenceLedgerMempool, owners) -> None:
    """The tag scan and the buckets tell the same story."""
    assert pool.holders() == pool.reference_holders()
    for owner in owners:
        assert pool.held_by(owner) == pool.reference_held_by(owner)
    assert all(predicted == actual for predicted, actual in pool.sweeps)


def source_with_reference_ledger(pmds):
    source = SourceApp("src.app", pmds["p0"], pool_size=256, rate_pps=5e4)
    source.pool = ReferenceLedgerMempool(source.pool.name, size=256)
    return source


def build_chain():
    graph = ServiceGraph("pipeline")
    graph.add_vnf("src", ["p0"], app_factory=source_with_reference_ledger)
    graph.add_vnf("mid", ["p0", "p1"], app_factory=lambda pmds:
                  ForwarderApp("mid.app", pmds["p0"], pmds["p1"]))
    graph.add_vnf("snk", ["p0"], app_factory=lambda pmds: SinkApp(
        "snk.app", pmds["p0"]))
    graph.connect("src.p0", "mid.p0")
    graph.connect("mid.p1", "snk.p0")
    return graph


@sweep_seeded
@settings(max_examples=10, deadline=None)
@given(crash_schedules)
def test_crashes_under_load_conserve_mbufs(delays):
    env = Environment()
    node = NfvNode(env=env)
    orchestrator = Orchestrator(node)
    deployment = orchestrator.deploy(build_chain())
    deployment.start_apps(env)
    source = deployment.apps["src"]
    node.track_mempool(source.pool)
    repairer = ChainRepairer(orchestrator, deployment, FAST_REPAIR)
    repairer.start(env)
    crashes = 0
    owners = ("vm:src", "vm:mid", "vm:snk", "vm:ghost")
    for delay in delays:
        env.run(until=env.now + delay)
        assert_ledgers_agree(source.pool, owners)
        if "mid" in node.hypervisor.vms:
            node.hypervisor.crash_vm("mid")
            crashes += 1
            assert_ledgers_agree(source.pool, owners)
    assert crashes >= 1
    # Let the repairer finish, then quiesce: stop the source, drain.
    env.run(until=env.now + 0.3)
    source.stop()
    env.run(until=env.now + 0.3)
    repairer.stop()
    deployment.stop_apps()
    assert repairer.records["mid"].state == "running"
    assert repairer.repairs_succeeded == crashes
    pool = source.pool
    assert pool.in_use == 0
    assert pool.leaked_permanent == 0
    assert pool.holders() == {}
    assert len(pool.sweeps) >= crashes
    assert_ledgers_agree(pool, owners)


ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.just(0)),
        st.tuples(st.just("assign"), st.integers(0, 3)),
        st.tuples(st.just("free"), st.just(0)),
        st.tuples(st.just("reclaim"), st.integers(0, 3)),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(ledger_ops)
def test_ledger_churn_conserves_buffers(ops):
    pool = Mempool("model", size=16)
    out = []
    for op, arg in ops:
        if op == "get":
            mbuf = pool.try_get()
            if mbuf is not None:
                out.append(mbuf)
        elif op == "assign" and out:
            pool.assign(out[arg % len(out)], "holder:%d" % arg)
        elif op == "free" and out:
            out.pop().free()
        elif op == "reclaim":
            report = pool.reclaim("holder:%d" % arg)
            assert report.leaked == (report.reclaimed
                                     + report.double_free_detected
                                     + report.unreclaimable)
            out = [m for m in out if not m.in_pool]
        # Conservation: free list + tracked in-flight == capacity.
        assert pool.available + len(out) == pool.size
        assert sum(pool.holders().values()) <= len(out)
    assert pool.leaked_permanent == 0


lockstep_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.just(0)),
        st.tuples(st.just("assign"), st.integers(0, 3)),
        st.tuples(st.just("free"), st.integers(0, 7)),
        st.tuples(st.just("reclaim"), st.integers(0, 3)),
        # a second reference somewhere: reclaim must write it off
        st.tuples(st.just("retain"), st.integers(0, 7)),
        # charge a descriptor that is already back in the free list:
        # the double free reclaim must detect
        st.tuples(st.just("stale"), st.integers(0, 3)),
    ),
    max_size=120,
)


@sweep_seeded
@settings(max_examples=200, deadline=None)
@given(lockstep_ops)
def test_tag_ledger_matches_bucket_ledger(ops):
    pool = ReferenceLedgerMempool("model", size=16)
    owners = ["holder:%d" % index for index in range(4)]
    refs = []     # one element per reference this test holds
    freed = []    # descriptors seen going back to the pool
    for op, arg in ops:
        if op == "get":
            mbuf = pool.try_get()
            if mbuf is not None:
                refs.append(mbuf)
        elif op == "assign" and refs:
            pool.assign(refs[arg % len(refs)], owners[arg])
        elif op == "retain" and refs:
            refs.append(refs[arg % len(refs)].retain())
        elif op == "free" and refs:
            mbuf = refs.pop(arg % len(refs))
            mbuf.free()
            if mbuf.in_pool:
                freed.append(mbuf)
        elif op == "stale" and freed:
            pool.assign(freed[arg % len(freed)], owners[arg])
        elif op == "reclaim":
            before = len(pool.sweeps)
            report = pool.reclaim(owners[arg])
            assert len(pool.sweeps) == before + 1
            assert report.leaked == (report.reclaimed
                                     + report.double_free_detected
                                     + report.unreclaimable)
            # Swept descriptors are the pool's again, whoever held them.
            refs = [m for m in refs if not m.in_pool]
        assert_ledgers_agree(pool, owners)
        assert pool.available + len({id(m) for m in refs}) == pool.size
    assert pool.leaked_permanent == sum(
        actual.unreclaimable for _predicted, actual in pool.sweeps)
    assert pool.double_free_detected == sum(
        actual.double_free_detected for _predicted, actual in pool.sweeps)
