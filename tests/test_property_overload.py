"""Property: the bounded upcall path conserves packets under any storm.

Every upcall offered to the queue ends in exactly one of three places —
dispatched to the handler, still queued, or shed with an accounted
reason — and every shed/dispatched mbuf is freed exactly once.  The
second property drives a whole switch with random miss bursts and
checks the same identity end to end, including that the queue depth
never exceeds its cap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overload import BoundedUpcallQueue, UpcallPolicy
from repro.openflow.controller import ControllerConnection
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf

# One op: ("admit", port 1-3, reason) or ("dispatch", budget 1-8).
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(1, 3),
                  st.sampled_from(["no_match", "action",
                                   "revalidation"])),
        st.tuples(st.just("dispatch"), st.integers(1, 8)),
    ),
    max_size=120,
)

policy_strategy = st.builds(
    UpcallPolicy,
    max_queue=st.integers(2, 24),
    control_reserve=st.integers(0, 1),
    port_quota=st.integers(1, 16),
    dispatch_batch=st.integers(1, 8),
)


class TestQueueConservation:
    @settings(max_examples=60, deadline=None)
    @given(policy=policy_strategy, ops=ops_strategy)
    def test_every_upcall_accounted_exactly_once(self, policy, ops):
        queue = BoundedUpcallQueue(policy)
        offered = []
        handled = []

        def handler(mbuf, in_port, reason):
            handled.append(mbuf)
            mbuf.free()

        for op in ops:
            if op[0] == "admit":
                _, port, reason = op
                mbuf = mk_mbuf()
                offered.append(mbuf)
                queue.admit(mbuf, port, reason)
            else:
                queue.dispatch(handler, budget=op[1])
            # Standing invariants, checked at every step.
            assert queue.depth == len(queue._control) + len(queue._miss)
            assert queue.depth <= policy.max_queue
            assert len(offered) == (queue.dispatched + queue.depth
                                    + queue.shed_total)
        # Terminal accounting: drain, then every mbuf is freed and the
        # per-port books agree with the global ones.
        while queue.depth:
            queue.dispatch(handler, budget=64)
        assert len(handled) == queue.dispatched
        assert all(m.refcnt == 0 for m in offered)
        assert sum(queue.port_admitted.values()) == queue.admitted_total
        assert sum(queue.port_shed.values()) == queue.shed_total
        assert queue.high_watermark <= policy.max_queue


burst_strategy = st.lists(
    st.tuples(st.integers(0, 1),          # port index
              st.integers(1, 40)),        # burst length
    min_size=1, max_size=12,
)


class TestDatapathConservation:
    @settings(max_examples=25, deadline=None)
    @given(bursts=burst_strategy,
           max_queue=st.integers(4, 32))
    def test_miss_storm_rx_equals_upcalls_plus_sheds(self, bursts,
                                                     max_queue):
        switch = VSwitchd(
            connection=ControllerConnection(),
            upcall_policy=UpcallPolicy(
                max_queue=max_queue, control_reserve=0,
                port_quota=max_queue, dispatch_batch=4,
            ),
        )
        ports = [switch.add_dpdkr_port("dpdkr0"),
                 switch.add_dpdkr_port("dpdkr1")]
        offered = 0
        for port_index, burst in bursts:
            port = ports[port_index]
            ring = port.rings.to_switch
            sent = ring.enqueue_burst([mk_mbuf() for _ in range(burst)])
            offered += sent
            # A burst can exceed the 32-packet RX poll limit: keep
            # stepping until the port ring is drained.
            while not ring.is_empty:
                switch.step_dataplane()
            assert switch.upcall_queue.depth <= max_queue
        # Drain whatever is still queued (empty iterations dispatch).
        queue = switch.upcall_queue
        for _ in range(max_queue):
            if queue.depth == 0:
                break
            switch.step_dataplane()
        datapath = switch.datapath
        # Every received packet raised exactly one upcall; every upcall
        # was dispatched (as a packet-in) or shed with a reason.
        assert sum(p.rx_packets for p in ports) == offered
        assert datapath.upcalls_no_match == offered
        assert offered == queue.dispatched + queue.shed_total
        assert switch.bridge.packet_ins_sent == queue.dispatched
