"""The modified dpdkr PMD: one port, two channels.

:class:`DualChannelPmd` exposes the standard ethdev interface while
internally driving the *normal* channel (shared rings with the vSwitch)
and, when configured, a *bypass* channel (a ring shared directly with the
peer VM).  The application cannot tell which is in use — the paper's
transparency-at-the-VNF property.

Rules the prototype implements, kept here exactly:

* TX rides the bypass when attached; every bypass TX bumps the
  OpenFlow rule/port counters in the shared stats block.
* RX always merges bypass *and* normal channels, because the controller
  can still inject packet-outs through the vSwitch onto the normal
  channel mid-bypass.
* Attach/detach arrive over virtio-serial and are executed by the
  per-VM :class:`GuestPmdManager`, which can only reach memzones that
  have actually been hot-plugged into its VM.

One refinement over the paper's sketch: channel handovers are *ordered*
(:class:`TxState`).  The paper only promises transparency; a naive flip
lets a packet on the new channel overtake in-flight packets on the old
one.  Here establishment gates the sender on its normal TX ring
draining (receivers poll the normal channel first), and teardown is a
snapshot marker (Chandy & Lamport): the sender writes a drain marker
into the stats block and moves to the normal channel at once, and the
receiver takes what the ring holds ahead of its normal channel — so a
flow crosses both transitions with no loss, reordering or refusal,
which the integration suite asserts end-to-end.
"""

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings, dpdkr_zone_name
from repro.dpdk.virtio_serial import ControlMessage
from repro.core.stats import BypassStatsBlock
from repro.faults import PMD_RX_POLL, FaultMode, FaultPlan
from repro.hypervisor.qemu import VirtualMachine
from repro.mem.mempool import charge
from repro.mem.ring import Ring
from repro.packet.flowkey import cached_flow_key
from repro.packet.mbuf import Mbuf
from repro.state.xfsm import event_for
from repro.waiters import Waitable


class TxState(enum.Enum):
    """The TX side's channel-handover state machine.

    ``NORMAL -> PENDING_BYPASS -> BYPASS`` on establishment: after the
    attach command the PMD keeps transmitting on the normal channel
    until its TX ring toward the vSwitch has drained, then flips — so a
    packet can never overtake an earlier one still inside the vSwitch
    (ordered handover; the receiver polls the normal channel first).

    ``BYPASS -> NORMAL`` on teardown: the detach command writes the
    drain marker into the channel's stats block and the next burst goes
    to the vSwitch; the receiver orders the handover (see
    :meth:`DualChannelPmd.rx_burst`).
    """

    NORMAL = "normal"
    PENDING_BYPASS = "pending_bypass"
    BYPASS = "bypass"


# The states as globals, for the burst path: an enum member read costs
# about four global reads.
_NORMAL = TxState.NORMAL
_PENDING_BYPASS = TxState.PENDING_BYPASS
_BYPASS = TxState.BYPASS


class DualChannelPmd(DpdkrPmd, Waitable):
    """dpdkr PMD handling a normal channel plus an optional bypass.

    The TX path is *bound* when its state changes, not resolved per
    burst: :meth:`_bind_tx` runs wherever ``tx_state``,
    ``bypass_tx_ring``, ``bypass_xfsm`` or ``accounting_enabled`` is
    written and leaves the ring a burst goes to and ``tx_extra_cost``
    in plain attributes.  Two checks stay per burst, in :meth:`_tx_ring`:
    ``killed``, and PENDING_BYPASS's drain gate.

    The parked loop that consumes this port registers on the PMD itself
    (:class:`Waitable`) besides its rings: whatever changes what an idle
    poll reads or publishes without an enqueue — a ring attached or
    detached, a fault plan installed, the VM killed — wakes it.
    """

    def __init__(self, port_id: int, rings: DpdkrSharedRings) -> None:
        super().__init__(port_id, rings)
        self.tx_state = TxState.NORMAL
        self.bypass_tx_ring: Optional[Ring] = None
        # A port can be the *destination* of several p-2-p links (two
        # different source ports each steering all their traffic here),
        # so the RX side is a list of rings, polled round-robin.
        self.bypass_rx_rings: List[Ring] = []
        self._rx_rotation = 0
        # Consumer-side stats blocks (heartbeat targets), one per entry
        # of bypass_rx_rings: what the attach command carried, or None.
        self._rx_stats: List[Optional[BypassStatsBlock]] = []
        # Bypass packets taken off a ring whose sender left it (drain
        # marker) or that was detached: served ahead of every channel.
        self._rx_backlog: List[Mbuf] = []
        self.bypass_stats: Optional[BypassStatsBlock] = None
        self.bypass_flow_id: Optional[int] = None
        # Stateful channel: a repro.state ChannelProgram carried by the
        # bypass zone.  The PMD runs every bypass TX through it, so an
        # ACTIVE p-2-p link keeps the delegating rule's stateful
        # semantics — the program (and its state table) is the same
        # object the vSwitch datapath executes, which is what conserves
        # state across establish/degrade/re-admit.
        self.bypass_xfsm = None
        # Priced from the node's CostModel by GuestPmdManager.create_pmd.
        self.xfsm_exec_cost = 0.0
        self.xfsm_evaluated = 0
        self.xfsm_drops = 0
        # Runtime-fault hooks: a plan with pmd.rx_poll specs can freeze
        # this consumer; clock (sim time) bounds DELAY-mode freezes.
        self._faults: Optional[FaultPlan] = None
        self.clock: Optional[Callable[[], float]] = None
        self._rx_frozen_until: Optional[float] = None
        self._rx_frozen_forever = False
        # The paper's stats trick costs a little CPU on every bypass TX;
        # accounting_enabled=False is the ablation that measures it (and
        # demonstrates the transparency that is lost without it).
        self._accounting_enabled = True
        self.stats_update_cost = 0.0
        # ordered_handover=False reverts to the paper's naive flip
        # (immediate switch, bypass polled first) — the A-handover
        # ablation measures the reordering that this reintroduces.
        self.ordered_handover = True
        # Observability counters.
        self.tx_via_bypass = 0
        self.tx_via_normal = 0
        self.rx_via_bypass = 0
        self.rx_via_normal = 0
        # Corrupted (None) bypass-ring slots dropped on dequeue.
        self.rx_integrity_drops = 0
        # Bursts that left the bypass ring above its watermark: the
        # receiver is falling behind (congestion signal in bypass/show).
        self.bypass_congestion_events = 0
        # Ownership-ledger token (``"vm:<name>"``), set by the
        # GuestPmdManager: every received mbuf is charged to this VM
        # until it is transmitted or freed, so a crash can reclaim
        # buffers sitting in guest memory.
        self.holder_token: Optional[str] = None
        # Flipped by GuestPmdManager.kill() when the VM process dies
        # abruptly: a dead guest polls nothing and accepts nothing.
        self.killed = False
        # The bound TX path: _tx_bound and tx_extra_cost (see _bind_tx).
        self._bind_tx()

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self._faults

    @faults.setter
    def faults(self, plan: Optional[FaultPlan]) -> None:
        self._faults = plan
        self.wake_waiters()   # a new plan may count or freeze the next poll

    @property
    def accounting_enabled(self) -> bool:
        """Whether bypass TX keeps the OpenFlow counters (the paper's
        stats trick); False is the ablation that measures its cost."""
        return self._accounting_enabled

    @accounting_enabled.setter
    def accounting_enabled(self, enabled: bool) -> None:
        self._accounting_enabled = enabled
        self._bind_tx()

    def _bind_tx(self) -> None:
        """Bind the TX path to the state just written: the ring for
        NORMAL and BYPASS (None for PENDING_BYPASS, which :meth:`_tx_ring`
        decides per burst) and the per-packet ``tx_extra_cost`` — the
        shared-stats update and the channel program, paid on the bypass
        only."""
        state = self.tx_state
        extra = 0.0
        if state is _NORMAL:
            bound = self.rings.to_switch
        elif state is _BYPASS:
            bound = self.bypass_tx_ring
            if self._accounting_enabled:
                extra += self.stats_update_cost
            if self.bypass_xfsm is not None:
                extra += self.xfsm_exec_cost
        else:
            bound = None
        self._tx_bound = bound
        self.tx_extra_cost = extra

    # -- channel configuration (driven over virtio-serial) -------------------

    def attach_bypass_tx(self, ring: Ring, stats: BypassStatsBlock,
                         flow_id: int, xfsm=None) -> None:
        """Arm the bypass TX; it takes over once the normal ring drains.

        Accounting is attributed to OpenFlow rule ``flow_id``.
        ``xfsm`` (a :class:`repro.state.xfsm.ChannelProgram`, when the
        zone carries one) makes the channel stateful: every bypass TX
        runs the program before enqueueing.  Packets sent while still
        PENDING_BYPASS transit the vSwitch and are evaluated there —
        each packet is evaluated exactly once either way.
        """
        if self.bypass_tx_ring is not None:
            raise RuntimeError(
                "port %r already has a bypass TX channel" % self.name
            )
        self.bypass_tx_ring = ring
        self.bypass_stats = stats
        self.bypass_flow_id = flow_id
        self.bypass_xfsm = xfsm
        self.tx_state = (TxState.PENDING_BYPASS if self.ordered_handover
                         else TxState.BYPASS)
        self._bind_tx()

    def detach_bypass_tx(self) -> None:
        """Leave the bypass: the next burst goes to the normal channel.

        In the ordered handover the drain marker goes into the channel's
        stats block first: the ring now holds the last packet the bypass
        carries, and the receiver takes it all ahead of its normal
        channel, so nothing sent from here on can overtake it.
        """
        if self.bypass_tx_ring is None:
            raise RuntimeError("port %r has no bypass TX channel" % self.name)
        if self.ordered_handover:
            self.bypass_stats.tx_closed = True
        self.bypass_tx_ring = None
        self.bypass_stats = None
        self.bypass_flow_id = None
        self.bypass_xfsm = None
        self.tx_state = TxState.NORMAL
        self._bind_tx()

    def attach_bypass_rx(self, ring: Ring,
                         stats: Optional[BypassStatsBlock] = None) -> None:
        """Start polling ``ring`` in addition to the normal channel.

        When ``stats`` (the channel's shared block) is given, every poll
        of the ring publishes a heartbeat epoch and the cumulative
        dequeue cursor into it — the consumer half of the liveness
        protocol the host watchdog reads.
        """
        if ring in self.bypass_rx_rings:
            raise RuntimeError(
                "port %r already polls this bypass ring" % self.name
            )
        self.wake_waiters()   # polls so far did not beat this ring's epoch
        self.bypass_rx_rings.append(ring)
        self._rx_stats.append(stats)

    def detach_bypass_rx(self, ring: Optional[Ring] = None) -> None:
        """Stop polling ``ring`` (or the only attached ring); what it
        still holds moves to the backlog (see :meth:`_keep`), so a
        receiver behind or frozen keeps order and loses nothing."""
        if not self.bypass_rx_rings:
            raise RuntimeError("port %r has no bypass RX channel" % self.name)
        if ring is None:
            if len(self.bypass_rx_rings) > 1:
                raise RuntimeError(
                    "port %r polls %d bypass rings; specify which"
                    % (self.name, len(self.bypass_rx_rings))
                )
            ring = self.bypass_rx_rings[0]
        if ring not in self.bypass_rx_rings:
            raise RuntimeError(
                "port %r does not poll that bypass ring" % self.name
            )
        self.wake_waiters()   # polls from here on no longer beat its epoch
        self._keep(ring, self._rx_stats.pop(self.bypass_rx_rings.index(ring)))
        self.bypass_rx_rings.remove(ring)

    def _keep(self, ring: Ring, stats: Optional[BypassStatsBlock]) -> None:
        """Take everything ``ring`` holds into guest memory, charged to
        this VM: the backlog :meth:`rx_burst` serves ahead of every
        channel."""
        if ring.head == ring.tail:
            return
        got = self._drop_smashed(ring.drain(), stats)
        if stats is not None:
            stats.rx_dequeued += len(got)
        self.rx_via_bypass += len(got)
        for mbuf in got:
            if mbuf.trace is not None:
                mbuf.trace.add(self._trace_now(), "guest-rx",
                               channel="bypass", port=self.name)
        if got and self.holder_token is not None:
            charge(got, self.holder_token)
        self._rx_backlog.extend(got)

    def _drop_smashed(self, got: List[Optional[Mbuf]],
                      stats: Optional[BypassStatsBlock]) -> List[Mbuf]:
        """``got`` without its corrupted (None) slots, which are counted
        here and in the shared stats block: once a smashed slot is
        dequeued the ring looks structurally clean again, and the flag
        is the host validator's only remaining evidence."""
        clean = [m for m in got if m is not None]
        smashed = len(got) - len(clean)
        self.rx_integrity_drops += smashed
        if stats is not None:
            stats.rx_integrity_errors += smashed
        return clean

    @property
    def bypass_tx_active(self) -> bool:
        return self.tx_state in (_PENDING_BYPASS, _BYPASS)

    @property
    def bypass_rx_active(self) -> bool:
        return bool(self.bypass_rx_rings)

    # -- data path ------------------------------------------------------------

    def _rx_frozen(self) -> bool:
        """True while an injected consumer freeze is in effect."""
        if self._rx_frozen_forever:
            return True
        if self._rx_frozen_until is not None:
            if self.clock is not None and self.clock() < self._rx_frozen_until:
                return True
            self._rx_frozen_until = None
        return False

    def _apply_rx_fault(self, action) -> None:
        """Map a ``pmd.rx_poll`` injection onto a consumer misbehaviour.

        DROP skips one poll, DELAY freezes the consumer for
        ``action.delay`` seconds of sim time (one poll when no clock is
        wired), ERROR/CRASH wedge the guest permanently — only external
        recovery (re-creating the PMD) would clear it.
        """
        if action.mode is FaultMode.DELAY and self.clock is not None:
            self._rx_frozen_until = self.clock() + action.delay
        elif action.mode in (FaultMode.ERROR, FaultMode.CRASH):
            self._rx_frozen_forever = True
        # DROP (and clockless DELAY): just this poll is lost.

    def rx_burst(self, max_count: int) -> List[Mbuf]:
        """Merge the normal channel and the bypass rings.

        The normal channel is polled *first*: during an establishment
        handover the packets still flowing through the vSwitch are older
        than anything in a bypass ring, so this order (together with the
        sender-side drain gate) keeps delivery in order — and it gives
        controller packet-outs prompt service as a side effect.

        Teardown turns the order round for one ring: once its sender
        has written the drain marker, what the ring holds is older than
        anything that sender puts on the normal channel, so the poll
        moves it all to the backlog, served ahead of the normal channel.

        Every completed poll publishes liveness: the port heartbeat
        epoch, and per bypass ring the (epoch, dequeue-cursor) pair in
        its shared stats block.  A frozen consumer (injected via the
        ``pmd.rx_poll`` fault point) publishes nothing and drains
        nothing — the condition the host watchdog exists to catch.
        """
        if (self.killed or self._rx_frozen_forever
                or (self._rx_frozen_until is not None
                    and self._rx_frozen())):
            return []
        faults = self._faults
        rings = self.bypass_rx_rings
        # Only a PMD consuming a bypass counts as a pmd.rx_poll
        # occurrence — keeps occurrence numbering deterministic per
        # channel instead of interleaving every sink on the node.
        if (faults is not None and rings
                and faults.has_specs(PMD_RX_POLL)):
            action = faults.fire(PMD_RX_POLL)
            if action is not None:
                self._apply_rx_fault(action)
                return []
        shared = self.rings
        shared.heartbeat.epoch += 1
        for stats in self._rx_stats:
            if stats is not None and stats.tx_closed:
                for ring, ring_stats in zip(rings, self._rx_stats):
                    if ring_stats is not None and ring_stats.tx_closed:
                        self._keep(ring, ring_stats)
                break
        mbufs: List[Mbuf] = []
        count = 0   # len(mbufs), kept as it grows
        backlog = self._rx_backlog
        if backlog:
            mbufs = backlog[:max_count]
            del backlog[:max_count]
            count = len(mbufs)
        if self.ordered_handover:
            normal = shared.to_guest.dequeue_burst(max_count - count)
            if normal:
                got = len(normal)
                count += got
                self.rx_via_normal += got
                for mbuf in normal:
                    if mbuf.trace is not None:
                        mbuf.trace.add(self._trace_now(), "guest-rx",
                                       channel="normal", port=self.name)
                if mbufs:
                    mbufs.extend(normal)
                else:
                    mbufs = normal
        if rings:
            # Fairness rotation: start from where the last *served* poll
            # left off, and advance only past a ring that actually
            # yielded packets — an empty poll must not burn a ring's
            # turn, or one busy peer can starve another indefinitely.
            ring_count = len(rings)
            room = max_count - count
            start = self._rx_rotation % ring_count
            first_served = None
            for offset in range(ring_count):
                index = (start + offset) % ring_count
                stats = self._rx_stats[index]
                got = rings[index].dequeue_burst(room) if room > 0 else None
                if not got:
                    # Nothing to take, which is most polls: publish
                    # liveness and move on.
                    if stats is not None:
                        stats.rx_epoch += 1
                    continue
                if None in got:
                    # A corrupted slot surfaced at the consumer: there
                    # is nothing deliverable in it.
                    got = self._drop_smashed(got, stats)
                taken = len(got)
                if stats is not None:
                    stats.rx_epoch += 1
                    stats.rx_dequeued += taken
                if taken:
                    if first_served is None:
                        first_served = index
                    self.rx_via_bypass += taken
                    room -= taken
                    count += taken
                    for mbuf in got:
                        if mbuf.trace is not None:
                            mbuf.trace.add(self._trace_now(), "guest-rx",
                                           channel="bypass",
                                           port=self.name)
                    if mbufs:
                        mbufs.extend(got)
                    else:
                        mbufs = got
            if first_served is not None:
                self._rx_rotation = (first_served + 1) % ring_count
        if not self.ordered_handover and count < max_count:
            normal = shared.to_guest.dequeue_burst(max_count - count)
            self.rx_via_normal += len(normal)
            count += len(normal)
            mbufs.extend(normal)
        if count:
            byte_count = 0
            for mbuf in mbufs:
                byte_count += mbuf.wire_length
            token = self.holder_token
            if token is not None:
                # charge(), on the per-packet path: one assign_burst.
                pool = mbufs[0].pool
                if pool is not None:
                    pool.assign_burst(mbufs, token)
                else:
                    charge(mbufs, token)
            self.stats.ipackets += count
            self.stats.ibytes += byte_count
        return mbufs

    # -- the RX park contract (see DpdkrPmd.rx_park) ---------------------------

    def rx_park(self, waiter) -> bool:
        """An idle poll here reads the normal ring and every bypass ring
        and publishes liveness, so the consumer may park only while all
        of that is a matter of counting: not killed, not frozen (a
        freeze thaws with time), no ``pmd.rx_poll`` spec to count
        occurrences against.  Whatever changes any of it wakes the
        waiters registered on this PMD.  ``waiter`` is registered where
        it is not already: on the rings, the plan and the PMD itself.
        """
        if (self.killed or self._rx_frozen_forever
                or self._rx_frozen_until is not None or self._rx_backlog):
            return False
        faults = self._faults
        rings = self.bypass_rx_rings
        if faults is not None and rings and faults.has_specs(PMD_RX_POLL):
            return False
        normal = self.rings.to_guest
        if normal.head != normal.tail:
            return False
        for ring in rings:
            if ring.head != ring.tail:
                return False
        if waiter not in normal.waiters:
            normal.watch(waiter)
        for ring in rings:
            if waiter not in ring.waiters:
                ring.watch(waiter)
        if faults is not None and waiter not in faults.waiters:
            faults.watch(waiter)
        if waiter not in self.waiters:
            self.watch(waiter)
        return True

    def rx_replay(self, polls: int) -> None:
        """``polls`` idle polls: the port heartbeat and each attached
        bypass ring's epoch advance by that much, nothing is dequeued."""
        self.rings.heartbeat.epoch += polls
        for stats in self._rx_stats:
            if stats is not None:
                stats.rx_epoch += polls

    def _tx_ring(self) -> Optional[Ring]:
        """The ring a burst goes to now — the ordered-handover flip
        happens here — or None while the port is killed and refuses
        every burst whole.  A burst calls it only when the bound ring is
        None or the port is killed."""
        if self.killed:
            return None
        if self.tx_state is _PENDING_BYPASS:
            # Flip only when nothing of ours is still queued toward the
            # vSwitch; until then the normal channel stays in use.
            normal = self.rings.to_switch
            if normal.head != normal.tail:
                return normal
            self.tx_state = TxState.BYPASS
            self._bind_tx()
        return self._tx_bound

    def tx_room(self, count: int) -> int:
        ring = self._tx_bound
        if ring is None or self.killed:
            ring = self._tx_ring()
        if ring is None:
            self.stats.oerrors += count
            return 0
        if ring is self.bypass_tx_ring and self.bypass_xfsm is not None:
            return count   # every packet the policy drops frees a slot
        room = ring.enqueue_room(count)
        if room < count:
            self.stats.oerrors += count - room
        return room

    def tx_burst(self, mbufs: List[Mbuf]) -> int:
        ring = self._tx_bound
        if ring is None or self.killed:
            ring = self._tx_ring()
        if ring is None:
            return self.tx_room(len(mbufs))   # refused whole, counted there
        if ring is not self.bypass_tx_ring:
            sent = super().tx_burst(mbufs)
            self.tx_via_normal += sent
            return sent
        offered = len(mbufs)
        stats = self.stats
        if self.bypass_xfsm is not None and mbufs:
            # A stateful channel evaluates a packet only with a ring
            # slot in hand, so what it admits always fits; a ring short
            # of the whole burst counts as that here, before any denial
            # could make the burst fit after all.
            mbufs, taken = self._xfsm_filter(
                mbufs, ring.enqueue_room(offered))
            stats.oerrors += offered - taken
            sent = ring.enqueue_burst(mbufs) if mbufs else 0
        else:
            sent = taken = ring.enqueue_burst(mbufs)
            if sent < offered:
                stats.oerrors += offered - sent
                mbufs = mbufs[:sent]
        if sent:
            if ring.watermark is not None and ring.above_watermark:
                self.bypass_congestion_events += 1
            byte_count = 0
            for mbuf in mbufs:
                byte_count += mbuf.wire_length
                if mbuf.trace is not None:
                    now = self._trace_now()
                    mbuf.trace.add(now, "guest-tx", channel="bypass",
                                   port=self.name)
                    mbuf.trace.add(now, "bypass-ring", ring=ring.name)
            stats.opackets += sent
            stats.obytes += byte_count
            self.tx_via_bypass += sent
            if self._accounting_enabled:
                # The paper's stats trick: the PMD, not the switch, keeps
                # the OpenFlow counters for bypassed traffic.
                self.bypass_stats.account(self.bypass_flow_id, sent,
                                          byte_count)
        return taken

    def _xfsm_filter(self, mbufs: List[Mbuf],
                     room: int) -> Tuple[List[Mbuf], int]:
        """Run the channel's XFSM over the head of a bypass burst, one
        packet per ring slot in hand: returns ``(admitted, consumed)``.

        ``mbufs[:consumed]`` are spoken for — admitted (at most ``room``
        of them, so they all fit) or denied, and a denied packet is
        freed and counted here (*consumed*, not a TX failure — the
        vSwitch path would have dropped it identically).  The walk stops
        before the first packet it has no slot for: ``mbufs[consumed:]``
        are neither evaluated nor touched, the caller's to free or
        retry, so a packet meets the program once, with a slot behind
        it, as on the vSwitch path where the TX ring comes first.
        """
        channel = self.bypass_xfsm
        program = channel.program
        now = self._trace_now()
        admitted: List[Mbuf] = []
        consumed = 0
        for mbuf in mbufs:
            if len(admitted) == room:
                break
            consumed += 1
            self.xfsm_evaluated += 1
            key = cached_flow_key(mbuf, in_port=0)
            verdict = program.evaluate(event_for(
                key, mbuf, now, from_inside=channel.from_inside))
            if verdict.allow:
                admitted.append(mbuf)
                continue
            self.xfsm_drops += 1
            if mbuf.trace is not None:
                mbuf.trace.add(now, "xfsm", program=program.name,
                               result="drop", state=verdict.state,
                               executor="pmd")
            mbuf.free()
        return admitted, consumed

    # -- observability --------------------------------------------------------

    def channel_stats(self) -> Dict[str, int]:
        """Per-channel counters for ``bypass/show`` and tests.

        Ring-level failure accounting distinguishes total rejections
        (``*_enqueue_failures``) from partial fits
        (``*_partial_enqueues``); see :meth:`Ring.enqueue_burst`.
        """
        out = {
            "tx_via_bypass": self.tx_via_bypass,
            "tx_via_normal": self.tx_via_normal,
            "rx_via_bypass": self.rx_via_bypass,
            "rx_via_normal": self.rx_via_normal,
            "rx_integrity_drops": self.rx_integrity_drops,
            "bypass_congestion_events": self.bypass_congestion_events,
            "xfsm_evaluated": self.xfsm_evaluated,
            "xfsm_drops": self.xfsm_drops,
            "normal_enqueue_failures": self.rings.to_switch.enqueue_failures,
            "normal_partial_enqueues": self.rings.to_switch.partial_enqueues,
        }
        if self.bypass_tx_ring is not None:
            out["bypass_enqueue_failures"] = (
                self.bypass_tx_ring.enqueue_failures
            )
            out["bypass_partial_enqueues"] = (
                self.bypass_tx_ring.partial_enqueues
            )
        return out


class GuestPmdManager:
    """Per-VM runtime that owns the dual-channel PMDs.

    Registered as the VM's virtio-serial guest handler; executes the
    compute agent's attach/detach commands.  Zone lookups go through the
    guest EAL, so a command referring to a zone that was never
    hot-plugged fails — the visibility property the architecture rests on.
    """

    def __init__(self, vm: VirtualMachine) -> None:
        self.vm = vm
        self.pmds: Dict[str, DualChannelPmd] = {}
        self.faults: Optional[FaultPlan] = vm.serial.faults
        vm.serial.guest_handler = self.handle_command
        # Back-pointer so Hypervisor.crash_vm can kill the guest-side
        # runtime along with the process.
        vm.guest_runtime = self

    def create_pmd(self, port_name: str) -> DualChannelPmd:
        """Attach to a dpdkr port's normal channel and register the PMD."""
        if port_name in self.pmds:
            raise RuntimeError("PMD for %r already exists" % port_name)
        zone = self.vm.eal.lookup_memzone(dpdkr_zone_name(port_name))
        rings = DpdkrSharedRings.attach(zone)
        pmd = DualChannelPmd(port_id=-1, rings=rings)
        pmd.faults = self.faults
        env = self.vm.serial.env
        pmd.clock = lambda: env.now
        pmd.holder_token = "vm:%s" % self.vm.name
        costs = self.vm.costs
        pmd.stats_update_cost = costs.bypass_stats_update
        pmd.xfsm_exec_cost = costs.ovs_xfsm_exec
        self.vm.eal.register_port(pmd)
        self.pmds[port_name] = pmd
        return pmd

    def kill(self) -> None:
        """Abrupt death: every PMD stops polling and transmitting."""
        for pmd in self.pmds.values():
            pmd.killed = True
            pmd.wake_waiters()

    def install_faults(self, faults: Optional[FaultPlan]) -> None:
        """Re-arm this VM's PMDs with ``faults`` (late plan install)."""
        self.faults = faults
        for pmd in self.pmds.values():
            pmd.faults = faults

    def pmd(self, port_name: str) -> DualChannelPmd:
        try:
            return self.pmds[port_name]
        except KeyError:
            raise RuntimeError(
                "VM %r has no PMD for port %r" % (self.vm.name, port_name)
            ) from None

    # -- virtio-serial command execution -------------------------------------

    def handle_command(self, message: ControlMessage
                       ) -> Optional[ControlMessage]:
        args = message.args
        # Per-command exception barrier: a command arriving in a state
        # it no longer fits (stale teardown after a rollback, attach to
        # a PMD that was since reconfigured) must NACK over the serial
        # channel, never unwind into the delivery path — the host side
        # treats the error reply exactly like its other failure modes.
        try:
            if message.command == "attach_bypass":
                self._attach(args)
                return ControlMessage("attach_bypass_ok",
                                      {"request_id": args["request_id"]})
            if message.command == "detach_bypass":
                self._detach(args)
                return ControlMessage("detach_bypass_ok",
                                      {"request_id": args["request_id"]})
        except Exception as exc:
            return ControlMessage("error", {
                "request_id": args.get("request_id"),
                "reason": "%s failed: %s" % (message.command, exc),
            })
        return ControlMessage("error", {
            "request_id": args.get("request_id"),
            "reason": "unknown command %r" % message.command,
        })

    def _attach(self, args: Dict) -> None:
        pmd = self.pmd(args["port_name"])
        zone = self.vm.eal.lookup_memzone(args["zone_name"])
        ring = zone.get("ring")
        if args["role"] == "tx":
            # A stateful channel ships its program handle in the zone;
            # zones provisioned before the stateful tier carry none.
            xfsm = zone.get("xfsm") if "xfsm" in zone else None
            pmd.attach_bypass_tx(ring, zone.get("stats"), args["flow_id"],
                                 xfsm)
        else:
            pmd.attach_bypass_rx(ring, zone.get("stats"))

    def _detach(self, args: Dict) -> None:
        pmd = self.pmd(args["port_name"])
        if args["role"] == "tx":
            pmd.detach_bypass_tx()
        else:
            # The zone is still plugged at this point (teardown detaches
            # the PMD before unplugging the device), so the ring can be
            # resolved to identify which bypass to stop polling.
            zone = self.vm.eal.lookup_memzone(args["zone_name"])
            pmd.detach_bypass_rx(zone.get("ring"))
