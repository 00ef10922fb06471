"""Unit tests for the dual-channel PMD and the guest PMD manager."""

import pytest

from repro.core.pmd import DualChannelPmd, GuestPmdManager
from repro.core.stats import BypassStatsBlock
from repro.dpdk.dpdkr import DpdkrSharedRings, dpdkr_zone_name
from repro.dpdk.ethdev import EthDev
from repro.dpdk.virtio_serial import ControlMessage
from repro.hypervisor.qemu import Hypervisor
from repro.mem import Mempool
from repro.mem.memzone import MemzoneRegistry
from repro.mem.ring import Ring
from repro.sim.engine import Environment
from repro.state.programs import acl_program
from repro.state.xfsm import ChannelProgram

from tests.helpers import mk_mbuf


@pytest.fixture
def registry():
    return MemzoneRegistry()


@pytest.fixture
def pmd(registry):
    rings = DpdkrSharedRings(registry, "dpdkr0")
    return DualChannelPmd(0, rings)


@pytest.fixture
def bypass_ring():
    return Ring("bypass", 64)


@pytest.fixture
def stats_block():
    return BypassStatsBlock("bypass", 1, 2)


class TestNormalChannel:
    def test_tx_goes_to_switch(self, pmd):
        mbuf = mk_mbuf()
        assert pmd.tx_burst([mbuf]) == 1
        assert pmd.rings.to_switch.dequeue() is mbuf
        assert pmd.tx_via_normal == 1

    def test_rx_from_switch(self, pmd):
        mbuf = mk_mbuf()
        pmd.rings.to_guest.enqueue(mbuf)
        assert pmd.rx_burst(32) == [mbuf]
        assert pmd.rx_via_normal == 1
        assert pmd.stats.ipackets == 1


class TestBypassTx:
    def test_tx_prefers_bypass(self, pmd, bypass_ring, stats_block):
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=7)
        mbuf = mk_mbuf(frame_size=64)
        assert pmd.tx_burst([mbuf]) == 1
        assert bypass_ring.dequeue() is mbuf
        assert pmd.rings.to_switch.is_empty
        assert pmd.tx_via_bypass == 1

    def test_bypass_tx_updates_shared_stats(self, pmd, bypass_ring,
                                            stats_block):
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=7)
        pmd.tx_burst([mk_mbuf(frame_size=64), mk_mbuf(frame_size=64)])
        assert stats_block.tx_packets == 2
        assert stats_block.tx_bytes == 128
        assert stats_block.flow_counters(7) == (2, 128)
        assert stats_block.flow_counters(99) == (0, 0)

    def test_detach_restores_normal_path(self, pmd, bypass_ring,
                                         stats_block):
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=7)
        pmd.detach_bypass_tx()
        mbuf = mk_mbuf()
        pmd.tx_burst([mbuf])
        assert pmd.rings.to_switch.dequeue() is mbuf
        assert bypass_ring.is_empty

    def test_double_attach_rejected(self, pmd, bypass_ring, stats_block):
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=7)
        with pytest.raises(RuntimeError):
            pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=8)

    def test_detach_without_attach_rejected(self, pmd):
        with pytest.raises(RuntimeError):
            pmd.detach_bypass_tx()

    def test_congestion_events_above_watermark(self, pmd, stats_block):
        from repro.mem.ring import Ring

        ring = Ring("wm", 16, watermark=8)
        pmd.attach_bypass_tx(ring, stats_block, flow_id=1)
        pmd.tx_burst([mk_mbuf() for _ in range(4)])
        assert pmd.bypass_congestion_events == 0
        pmd.tx_burst([mk_mbuf() for _ in range(6)])  # occupancy 10 >= 8
        assert pmd.bypass_congestion_events == 1

    def test_bypass_full_counts_oerrors(self, pmd, stats_block):
        tiny = Ring("tiny", 4)
        pmd.attach_bypass_tx(tiny, stats_block, flow_id=7)
        mbufs = [mk_mbuf() for _ in range(5)]
        assert pmd.tx_burst(mbufs) == 3
        assert pmd.stats.oerrors == 2


class TestTxStateMachine:
    def test_pending_until_normal_ring_drains(self, pmd, bypass_ring,
                                              stats_block):
        from repro.core.pmd import TxState

        # Packets already queued toward the vSwitch gate the flip.
        stuck = mk_mbuf()
        pmd.tx_burst([stuck])
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=1)
        assert pmd.tx_state == TxState.PENDING_BYPASS
        follow_up = mk_mbuf()
        pmd.tx_burst([follow_up])
        # Still via normal (in order, behind `stuck`).
        assert pmd.tx_state == TxState.PENDING_BYPASS
        assert pmd.rings.to_switch.dequeue_burst(8) == [stuck, follow_up]
        # Ring drained: the next burst flips to the bypass.
        final = mk_mbuf()
        pmd.tx_burst([final])
        assert pmd.tx_state == TxState.BYPASS
        assert bypass_ring.dequeue() is final

    def test_stall_and_resume(self, pmd, bypass_ring, stats_block):
        from repro.core.pmd import TxState

        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=1)
        pmd.tx_burst([mk_mbuf()])  # flips to BYPASS
        pmd.detach_bypass_tx(stall=True)
        assert pmd.tx_state == TxState.STALLED
        refused = mk_mbuf()
        assert pmd.tx_burst([refused]) == 0
        assert pmd.tx_stall_rejects == 1
        pmd.resume_tx()
        delivered = mk_mbuf()
        assert pmd.tx_burst([delivered]) == 1
        assert pmd.rings.to_switch.dequeue() is delivered

    def test_resume_is_noop_when_normal(self, pmd):
        pmd.resume_tx()  # no-op: the naive-handover compatibility path
        from repro.core.pmd import TxState

        assert pmd.tx_state == TxState.NORMAL

    def test_resume_rejected_mid_bypass(self, pmd, bypass_ring,
                                        stats_block):
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=1)
        with pytest.raises(RuntimeError):
            pmd.resume_tx()

    def test_no_stats_cost_while_pending(self, pmd, bypass_ring,
                                         stats_block):
        pmd.tx_burst([mk_mbuf()])  # leaves the normal ring non-empty
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=1)
        assert pmd.tx_extra_cost == 0.0
        pmd.rings.to_switch.drain()
        pmd.tx_burst([mk_mbuf()])
        assert pmd.tx_extra_cost > 0.0


class TestBypassRx:
    def test_rx_merges_normal_first_then_bypass(self, pmd, bypass_ring):
        # Normal channel has priority: its packets predate anything on a
        # bypass ring during a handover (ordered-handover protocol).
        pmd.attach_bypass_rx(bypass_ring)
        direct = mk_mbuf()
        via_switch = mk_mbuf()
        bypass_ring.enqueue(direct)
        pmd.rings.to_guest.enqueue(via_switch)
        received = pmd.rx_burst(32)
        assert received == [via_switch, direct]
        assert pmd.rx_via_bypass == 1
        assert pmd.rx_via_normal == 1

    def test_packet_out_arrives_during_bypass(self, pmd, bypass_ring):
        # The controller's packet-out rides the normal channel even while
        # the bypass is active — the PMD must keep polling both.
        pmd.attach_bypass_rx(bypass_ring)
        packet_out = mk_mbuf()
        pmd.rings.to_guest.enqueue(packet_out)
        assert pmd.rx_burst(32) == [packet_out]

    def test_rx_burst_respects_max(self, pmd, bypass_ring):
        pmd.attach_bypass_rx(bypass_ring)
        for _ in range(4):
            bypass_ring.enqueue(mk_mbuf())
            pmd.rings.to_guest.enqueue(mk_mbuf())
        received = pmd.rx_burst(6)
        assert len(received) == 6
        assert pmd.rx_via_normal == 4 and pmd.rx_via_bypass == 2

    def test_detach_rx(self, pmd, bypass_ring):
        pmd.attach_bypass_rx(bypass_ring)
        pmd.detach_bypass_rx()
        bypass_ring.enqueue(mk_mbuf())
        assert pmd.rx_burst(32) == []


class TestGuestPmdManager:
    @pytest.fixture
    def stack(self, registry):
        DpdkrSharedRings(registry, "dpdkr0")
        hypervisor = Hypervisor(registry, Environment())
        vm = hypervisor.create_vm("vm1",
                                  boot_zones=[dpdkr_zone_name("dpdkr0")])
        manager = GuestPmdManager(vm)
        return registry, hypervisor, vm, manager

    def test_create_pmd_requires_visibility(self, stack):
        registry, _hyp, vm, manager = stack
        pmd = manager.create_pmd("dpdkr0")
        assert manager.pmd("dpdkr0") is pmd
        assert vm.eal.port(pmd.port_id) is pmd
        DpdkrSharedRings(registry, "dpdkr1")  # exists but not plugged
        with pytest.raises(Exception):
            manager.create_pmd("dpdkr1")

    def test_attach_command_requires_hotplug(self, stack):
        registry, _hyp, vm, manager = stack
        manager.create_pmd("dpdkr0")
        zone = registry.reserve("bypass.test")
        zone.put("ring", Ring("r", 64))
        zone.put("stats", BypassStatsBlock("bypass.test", 1, 2))
        command = ControlMessage("attach_bypass", {
            "request_id": 1, "port_name": "dpdkr0",
            "zone_name": "bypass.test", "role": "tx", "flow_id": 3,
        })
        # Not hotplugged yet: handle_command converts the failure into
        # an in-band NACK carrying the request id instead of raising
        # through the serial channel.
        nack = vm.serial.guest_handler(command)
        assert nack.command == "error"
        assert nack.args["request_id"] == 1
        assert not manager.pmd("dpdkr0").bypass_tx_active
        registry.map_into("bypass.test", "vm1")
        reply = vm.serial.guest_handler(command)
        assert reply.command == "attach_bypass_ok"
        assert manager.pmd("dpdkr0").bypass_tx_active

    def test_detach_command(self, stack):
        registry, _hyp, vm, manager = stack
        manager.create_pmd("dpdkr0")
        zone = registry.reserve("bypass.test")
        zone.put("ring", Ring("r", 64))
        zone.put("stats", BypassStatsBlock("bypass.test", 1, 2))
        registry.map_into("bypass.test", "vm1")
        vm.serial.guest_handler(ControlMessage("attach_bypass", {
            "request_id": 1, "port_name": "dpdkr0",
            "zone_name": "bypass.test", "role": "rx",
        }))
        reply = vm.serial.guest_handler(ControlMessage("detach_bypass", {
            "request_id": 2, "port_name": "dpdkr0",
            "zone_name": "bypass.test", "role": "rx",
        }))
        assert reply.command == "detach_bypass_ok"
        assert not manager.pmd("dpdkr0").bypass_rx_active

    def test_unknown_command_errors(self, stack):
        _registry, _hyp, vm, _manager = stack
        reply = vm.serial.guest_handler(
            ControlMessage("reboot", {"request_id": 9})
        )
        assert reply.command == "error"

    def test_duplicate_pmd_rejected(self, stack):
        _registry, _hyp, _vm, manager = stack
        manager.create_pmd("dpdkr0")
        with pytest.raises(RuntimeError):
            manager.create_pmd("dpdkr0")


class TestTxStateEdges:
    """Teardown/establishment transitions racing each other."""

    def test_attach_on_stalled_then_stale_resume(self, pmd, bypass_ring,
                                                 stats_block):
        from repro.core.pmd import TxState

        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=1)
        pmd.tx_burst([mk_mbuf()])  # flips to BYPASS
        pmd.detach_bypass_tx(stall=True)
        assert pmd.tx_state == TxState.STALLED
        # A fresh establishment lands while the old teardown's resume is
        # still in flight: attach wins, arming the ordered handover.
        fresh_ring = Ring("fresh", 64)
        pmd.attach_bypass_tx(fresh_ring, stats_block, flow_id=2)
        assert pmd.tx_state == TxState.PENDING_BYPASS
        # The straggler resume must not yank the PMD back to NORMAL
        # mid-establishment — it is rejected, state untouched.
        with pytest.raises(RuntimeError):
            pmd.resume_tx()
        assert pmd.tx_state == TxState.PENDING_BYPASS
        assert pmd.bypass_tx_ring is fresh_ring

    def test_stale_resume_nacks_over_serial(self, registry):
        # Same race, through the virtio-serial command path: the error
        # comes back as a reply carrying the request id.
        DpdkrSharedRings(registry, "dpdkr0")
        hypervisor = Hypervisor(registry, Environment())
        vm = hypervisor.create_vm("vm1",
                                  boot_zones=[dpdkr_zone_name("dpdkr0")])
        manager = GuestPmdManager(vm)
        pmd = manager.create_pmd("dpdkr0")
        pmd.attach_bypass_tx(Ring("b", 64),
                             BypassStatsBlock("b", 1, 2), flow_id=1)
        reply = vm.serial.guest_handler(ControlMessage("resume_tx", {
            "request_id": 42, "port_name": "dpdkr0",
        }))
        assert reply.command == "error"
        assert reply.args["request_id"] == 42
        from repro.core.pmd import TxState

        assert pmd.tx_state == TxState.PENDING_BYPASS

    def test_stall_during_pending_bypass(self, pmd, bypass_ring,
                                         stats_block):
        from repro.core.pmd import TxState

        # Packets queued toward the vSwitch keep the flip gated...
        pmd.tx_burst([mk_mbuf()])
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=1)
        assert pmd.tx_state == TxState.PENDING_BYPASS
        # ...and the teardown arrives before the bypass ever carried a
        # packet.  The stall must still hold the sender (the host is
        # about to re-home rings), and nothing was double-counted.
        pmd.detach_bypass_tx(stall=True)
        assert pmd.tx_state == TxState.STALLED
        refused = mk_mbuf()
        assert pmd.tx_burst([refused]) == 0
        assert pmd.tx_stall_rejects == 1
        pmd.resume_tx()
        assert pmd.tx_state == TxState.NORMAL
        assert pmd.tx_via_bypass == 0
        assert bypass_ring.is_empty


class TestRxFairness:
    def test_rotation_only_advances_past_served_ring(self, pmd):
        # Regression: the rotation used to advance on every poll, so
        # with two peers and one always-busy ring the start index could
        # re-align with the busy ring every time, starving the other.
        busy = Ring("busy", 64)
        quiet = Ring("quiet", 64)
        pmd.attach_bypass_rx(busy)
        pmd.attach_bypass_rx(quiet)
        for _ in range(8):
            busy.enqueue(mk_mbuf())
        quiet.enqueue(mk_mbuf())
        # Small bursts: only the first ring in rotation order is served.
        first = pmd.rx_burst(1)
        assert len(first) == 1
        # The next poll must start from the *other* ring, so the quiet
        # peer's lone packet gets through even though busy still has 7.
        second = pmd.rx_burst(1)
        assert len(second) == 1
        assert quiet.is_empty

    def test_empty_poll_does_not_burn_a_turn(self, pmd):
        lone = Ring("lone", 64)
        other = Ring("other", 64)
        pmd.attach_bypass_rx(lone)
        pmd.attach_bypass_rx(other)
        assert pmd.rx_burst(4) == []  # both empty: rotation unchanged
        lone.enqueue(mk_mbuf())
        assert len(pmd.rx_burst(4)) == 1  # ring 0 still first in line


class TestRxHeartbeat:
    def test_every_poll_heartbeats_port_and_channel(self, pmd, bypass_ring,
                                                    stats_block):
        pmd.attach_bypass_rx(bypass_ring, stats_block)
        assert pmd.rings.heartbeat.epoch == 0
        pmd.rx_burst(4)  # empty poll still proves liveness
        assert pmd.rings.heartbeat.epoch == 1
        assert stats_block.rx_epoch == 1
        assert stats_block.rx_dequeued == 0
        bypass_ring.enqueue(mk_mbuf())
        bypass_ring.enqueue(mk_mbuf())
        pmd.rx_burst(4)
        assert pmd.rings.heartbeat.epoch == 2
        assert stats_block.rx_epoch == 2
        assert stats_block.rx_dequeued == 2

    def test_frozen_consumer_publishes_nothing(self, pmd, bypass_ring,
                                               stats_block):
        from repro.faults import PMD_RX_POLL, FaultMode, FaultPlan

        pmd.attach_bypass_rx(bypass_ring, stats_block)
        plan = FaultPlan(seed=1)
        plan.inject(PMD_RX_POLL, FaultMode.ERROR, occurrences=(2,))
        pmd.faults = plan
        pmd.rx_burst(4)
        assert stats_block.rx_epoch == 1
        bypass_ring.enqueue(mk_mbuf())
        # Occurrence 2 wedges the consumer permanently: no heartbeat, no
        # dequeue, on this poll or any later one.
        assert pmd.rx_burst(4) == []
        assert pmd.rx_burst(4) == []
        assert stats_block.rx_epoch == 1
        assert len(bypass_ring) == 1

    def test_delay_freeze_thaws_with_the_clock(self, pmd, bypass_ring,
                                               stats_block):
        from repro.faults import PMD_RX_POLL, FaultMode, FaultPlan

        now = [0.0]
        pmd.clock = lambda: now[0]
        pmd.attach_bypass_rx(bypass_ring, stats_block)
        plan = FaultPlan(seed=1)
        plan.inject(PMD_RX_POLL, FaultMode.DELAY, occurrences=(1,),
                    delay=0.5)
        pmd.faults = plan
        bypass_ring.enqueue(mk_mbuf())
        assert pmd.rx_burst(4) == []   # freeze begins
        now[0] = 0.4
        assert pmd.rx_burst(4) == []   # still frozen
        now[0] = 0.6
        assert len(pmd.rx_burst(4)) == 1  # thawed, drains normally
        assert stats_block.rx_dequeued == 1


class TestChannelStats:
    def test_channel_stats_surfaces_ring_accounting(self, pmd, stats_block):
        tiny = Ring("tiny", 4)
        pmd.attach_bypass_tx(tiny, stats_block, flow_id=1)
        pmd.tx_burst([mk_mbuf() for _ in range(5)])  # 3 fit: partial
        pmd.tx_burst([mk_mbuf()])                    # 0 fit: failure
        stats = pmd.channel_stats()
        assert stats["bypass_partial_enqueues"] == 1
        assert stats["bypass_enqueue_failures"] == 1
        assert stats["tx_via_bypass"] == 3
        assert stats["normal_enqueue_failures"] == 0


class _DenySrcPort:
    """An ACL rule: drop one UDP source port."""

    def __init__(self, port):
        self.port = port

    def matches(self, key):
        return key.l4_src == self.port


class TestStatefulChannelTx:
    """``tx_burst`` on an XFSM channel returns a prefix: ``mbufs[:n]``
    are consumed (sent, or dropped by the policy), ``mbufs[n:]`` are
    the caller's, untouched."""

    @pytest.fixture
    def stateful(self, pmd, stats_block):
        ring = Ring("bypass", 8)
        channel = ChannelProgram(acl_program([_DenySrcPort(666)]))
        pmd.ordered_handover = False   # attach straight into BYPASS
        pmd.attach_bypass_tx(ring, stats_block, flow_id=7, xfsm=channel)
        return pmd, ring

    def burst(self, pool, src_ports):
        return [mk_mbuf(pool=pool, src_port=port) for port in src_ports]

    def test_denied_packet_behind_a_rejected_one_stays_the_callers(
            self, stateful):
        # "sent + dropped by policy" (1 + 1 had the whole burst been
        # evaluated) is not an index into the caller's list: a caller
        # freeing mbufs[2:] would free the denied mbuf a second time
        # and leak the second one.
        pmd, ring = stateful
        pool = Mempool("p", size=16)
        ring.enqueue_bulk(self.burst(pool, [1] * 6))   # one slot left
        mbufs = self.burst(pool, [1, 2, 3, 666])
        taken = pmd.tx_burst(mbufs)
        assert taken == 1
        assert pmd.xfsm_evaluated == 1 and pmd.xfsm_drops == 0
        assert pmd.stats.oerrors == 3
        assert ring.partial_enqueues == 1
        for rejected in mbufs[taken:]:
            rejected.free()   # what every caller does; none raises
        queued = ring.drain()
        assert queued[-1] is mbufs[0]
        for mbuf in queued:
            mbuf.free()
        assert pool.in_use == 0 and pool.double_free_detected == 0

    def test_denied_packets_ahead_of_the_cut_are_consumed(self, stateful):
        pmd, ring = stateful
        pool = Mempool("p", size=16)
        ring.enqueue_bulk(self.burst(pool, [1] * 5))   # two slots left
        mbufs = self.burst(pool, [666, 1, 666, 2, 3])
        taken = pmd.tx_burst(mbufs)
        assert taken == 4   # two dropped by policy, two sent, one refused
        assert pmd.xfsm_drops == 2 and pmd.tx_via_bypass == 2
        assert pmd.stats.oerrors == 1
        assert mbufs[0].in_pool and mbufs[2].in_pool
        assert not mbufs[4].in_pool
        mbufs[4].free()
        for mbuf in ring.drain():
            mbuf.free()
        assert pool.in_use == 0

    def test_full_ring_evaluates_nothing(self, stateful):
        pmd, ring = stateful
        ring.enqueue_bulk([mk_mbuf() for _ in range(7)])
        mbufs = [mk_mbuf(src_port=666), mk_mbuf()]
        assert pmd.tx_burst(mbufs) == 0
        assert pmd.xfsm_evaluated == 0
        assert ring.enqueue_failures == 1 and pmd.stats.oerrors == 2
        assert all(mbuf.refcnt == 1 for mbuf in mbufs)


class TestTxRoom:
    """The query counts a refusal exactly as ``tx_burst`` would."""

    def test_normal_channel_counts_the_ring_refusal(self, registry):
        pmd = DualChannelPmd(0, DpdkrSharedRings(registry, "p0",
                                                 ring_size=8))
        ring = pmd.rings.to_switch
        assert pmd.tx_room(4) == 4
        assert (ring.partial_enqueues, ring.enqueue_failures) == (0, 0)
        ring.enqueue_bulk([mk_mbuf() for _ in range(5)])
        assert pmd.tx_room(4) == 2
        assert ring.partial_enqueues == 1 and pmd.stats.oerrors == 2
        ring.enqueue_bulk([mk_mbuf(), mk_mbuf()])
        assert pmd.tx_room(4) == 0
        assert ring.enqueue_failures == 1 and pmd.stats.oerrors == 6
        assert pmd.stats.opackets == 0 and len(ring) == 7

    def test_pending_bypass_flips_on_the_query(self, pmd, bypass_ring,
                                               stats_block):
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=7)
        pmd.rings.to_switch.enqueue(mk_mbuf())
        assert pmd.tx_room(4) == 4 and pmd.bypass_tx_active
        assert pmd.tx_extra_cost == 0.0   # still on the normal channel
        pmd.rings.to_switch.dequeue()
        assert pmd.tx_room(4) == 4
        assert pmd.tx_extra_cost > 0.0    # flipped to BYPASS

    def test_stalled_and_killed_refuse_whole(self, pmd, bypass_ring,
                                             stats_block):
        pmd.ordered_handover = True
        pmd.attach_bypass_tx(bypass_ring, stats_block, flow_id=7)
        pmd.detach_bypass_tx(stall=True)
        assert pmd.tx_room(5) == 0
        assert pmd.tx_stall_rejects == 5 and pmd.stats.oerrors == 5
        assert pmd.tx_burst([mk_mbuf()]) == 0
        assert pmd.tx_stall_rejects == 6 and pmd.stats.oerrors == 6
        pmd.killed = True
        assert pmd.tx_room(3) == 0
        assert pmd.tx_stall_rejects == 6 and pmd.stats.oerrors == 9

    def test_stateful_channel_cannot_tell(self, pmd, stats_block):
        ring = Ring("bypass", 8)
        ring.enqueue_bulk([mk_mbuf() for _ in range(7)])
        pmd.ordered_handover = False
        pmd.attach_bypass_tx(ring, stats_block, flow_id=7,
                             xfsm=ChannelProgram(acl_program([])))
        assert pmd.tx_room(4) == 4   # a denied packet needs no slot
        assert ring.enqueue_failures == 0 and pmd.stats.oerrors == 0

    def test_plain_device_takes_whatever_is_due(self):
        assert EthDev(0, "dev").tx_room(17) == 17
