"""The compute agent: OVS's arm into the VM world.

OVS only knows ports and rules; it has no idea which VM a dpdkr port is
plugged into.  The compute agent (the paper extends the un-orchestrator
NFV node's agent) keeps that mapping and services two requests from the
vSwitch:

* **setup bypass** — hot-plug the bypass memzone into *both* VMs as
  ivshmem devices (in parallel), then configure the two in-guest PMDs
  over virtio-serial: receiver first, sender second (make-before-break,
  so no packet is ever written into an unwatched ring);
* **teardown bypass** — ordered shutdown: stall the sender (the
  receiver keeps draining the ring meanwhile), detach the receiver,
  re-home the ring's leftovers onto the normal channel, release the
  sender onto the vSwitch path, then unplug the device from both VMs —
  no packet is lost or reordered.

Each procedure is one generator run as an engine process, so every step
costs modelled time and can be delayed, lost or outlived by the caller's
timeout.  A third entry point, :meth:`ComputeAgent.force_dismantle`, is
the host-side janitor every failure path uses when no protocol can run.

Every request records a stage-by-stage timeline; the setup-time
experiment (paper: ~100 ms from p-2-p recognition to the PMD using the
bypass) reads those timestamps.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.dpdk.virtio_serial import ControlMessage
from repro.faults import VM_CRASH_DURING_SETUP, FaultMode, FaultPlan
from repro.hypervisor.qemu import Hypervisor, HypervisorError, VirtualMachine
from repro.mem.ring import Ring
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment, Event

_request_ids = itertools.count(1)


class RequestCancelled(RuntimeError):
    """Raised inside an in-flight request whose caller gave up on it."""


@dataclass
class AgentRequest:
    """One OVS -> agent request and its timeline (simulated seconds)."""

    request_id: int
    kind: str                     # "setup" | "teardown"
    src_port_name: str
    dst_port_name: str
    zone_name: str
    flow_id: Optional[int] = None
    t_requested: float = 0.0
    t_rpc_done: float = 0.0
    t_zones_plugged: float = 0.0
    t_rx_configured: float = 0.0
    t_tx_configured: float = 0.0
    t_drained: float = 0.0
    t_completed: float = 0.0
    salvaged_packets: int = 0     # re-homed onto the normal channel
    lost_packets: int = 0         # normal channel full: freed, not delivered
    completed: bool = False
    error: Optional[str] = None   # set when the request aborted
    cancelled: bool = False       # the caller timed out and moved on
    done_event: Optional[Event] = None

    @property
    def setup_duration(self) -> float:
        """Detection-to-bypass-in-use time (the paper's ~100 ms figure)."""
        return self.t_tx_configured - self.t_requested


class ComputeAgent:
    """The host agent that plugs bypass channels and configures PMDs."""

    def __init__(
        self,
        hypervisor: Hypervisor,
        env: Environment,
        costs: CostModel = DEFAULT_COST_MODEL,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.hypervisor = hypervisor
        self.env = env
        self.costs = costs
        self.faults = faults
        self._port_owner: Dict[str, str] = {}
        # reply id -> (event the request waits on, owning VM)
        self._pending_replies: Dict[int, Tuple[Event, str]] = {}
        self._reply_serial = itertools.count(1)
        self.requests: list = []
        self.dead_vms: set = set()
        hypervisor.on_destroy.append(self._on_vm_destroyed)

    def _on_vm_destroyed(self, vm_name: str) -> None:
        # Ownership is kept (for post-mortem queries) but marked dead so
        # no new bypass is ever set up toward this VM's ports.
        self.dead_vms.add(vm_name)
        # Any in-flight PMD command toward this VM will never be
        # answered: fail its reply event so the waiting request aborts
        # instead of hanging.
        for reply_id, (event, owner) in list(self._pending_replies.items()):
            if owner == vm_name:
                del self._pending_replies[reply_id]
                event.fail(HypervisorError(
                    "VM %r died awaiting PMD reply" % vm_name
                ))

    # -- topology knowledge -------------------------------------------------

    def register_port_owner(self, port_name: str, vm_name: str) -> None:
        """Record that ``port_name`` is plugged into ``vm_name``.

        The agent learns this when it creates the VM and wires its dpdkr
        ports; this mapping is exactly the knowledge OVS lacks.
        """
        self._port_owner[port_name] = vm_name
        vm = self.hypervisor.vms.get(vm_name)
        if vm is not None and vm.running:
            # A replacement VM may reuse the name of a crashed one; the
            # re-registration is how the agent learns it came back.
            self.dead_vms.discard(vm_name)
        if vm is not None and vm.serial.host_handler is None:
            vm.serial.host_handler = self._on_guest_reply

    def owner_of(self, port_name: str) -> str:
        try:
            return self._port_owner[port_name]
        except KeyError:
            raise HypervisorError(
                "compute agent does not know port %r" % port_name
            ) from None

    def ports_of(self, vm_name: str) -> list:
        return [port for port, owner in self._port_owner.items()
                if owner == vm_name]

    def is_port_alive(self, port_name: str) -> bool:
        """True when the port is known and its VM is still running."""
        owner = self._port_owner.get(port_name)
        return owner is not None and owner not in self.dead_vms

    def is_port_crashed(self, port_name: str) -> bool:
        """True when the port's VM is dead because it *crashed*.

        Distinguishes abrupt process death (reclaim + quarantine with
        reason ``"peer_crashed"``) from a graceful destroy; a
        replacement VM reusing the name clears the condition.
        """
        owner = self._port_owner.get(port_name)
        return (owner is not None and owner in self.dead_vms
                and self.hypervisor.was_crashed(owner))

    # -- requests from OVS ---------------------------------------------------------

    def setup_bypass(
        self,
        src_port_name: str,
        dst_port_name: str,
        zone_name: str,
        flow_id: int,
    ) -> AgentRequest:
        """Establish a directed bypass src -> dst over ``zone_name``.

        Returns immediately; wait on ``request.done_event``.
        """
        request = self._new_request("setup", src_port_name, dst_port_name,
                                    zone_name, flow_id=flow_id)
        return self._start(request, self._setup_steps(request))

    def teardown_bypass(
        self,
        src_port_name: str,
        dst_port_name: str,
        zone_name: str,
        ring: Ring,
    ) -> AgentRequest:
        """Remove a bypass, losing none of the packets still in ``ring``."""
        request = self._new_request("teardown", src_port_name,
                                    dst_port_name, zone_name)
        return self._start(request, self._teardown_steps(request, ring))

    def _new_request(self, kind: str, src: str, dst: str, zone_name: str,
                     flow_id: Optional[int] = None) -> AgentRequest:
        request = AgentRequest(
            request_id=next(_request_ids),
            kind=kind,
            src_port_name=src,
            dst_port_name=dst,
            zone_name=zone_name,
            flow_id=flow_id,
            t_requested=self.env.now,
            done_event=self.env.event(),
        )
        self.requests.append(request)
        return request

    def _start(self, request: AgentRequest, steps) -> AgentRequest:
        self.env.process(self._serve(request, steps), name="agent.%s.%d"
                         % (request.kind, request.request_id))
        return request

    def _serve(self, request: AgentRequest, steps):
        try:
            yield from steps
        except Exception as error:  # noqa: BLE001 - surfaced via .error
            request.error = str(error)
        request.completed = True
        request.done_event.succeed(request)

    def _vm_of(self, port_name: str) -> VirtualMachine:
        return self.hypervisor.vms[self.owner_of(port_name)]

    # -- cancellation and fault hooks ----------------------------------------

    def cancel(self, request: AgentRequest, reason: str) -> None:
        """Give up on an in-flight request (the caller's step timed out).

        The request's process aborts at its next resumption instead of
        performing further side effects; work already done is the
        caller's to roll back.
        """
        request.cancelled = True
        if request.error is None:
            request.error = "cancelled: %s" % reason

    @staticmethod
    def _check_cancel(request: AgentRequest) -> None:
        if request.cancelled:
            raise RequestCancelled(request.error or "request cancelled")

    def _fire_setup_crash(self, request: AgentRequest) -> None:
        """The ``vm.crash_during_setup`` injection point.

        Fired after the bypass zones are plugged but before the receiver
        PMD is configured — the crash window that leaves the most
        channel state (a mapped zone, a provisioned ring, a half-built
        link) for the failure paths to clean up.  A triggered occurrence
        kills the *receiver* VM abruptly, whatever the spec's mode.
        """
        if self.faults is None:
            return
        if not self.faults.has_specs(VM_CRASH_DURING_SETUP):
            return
        action = self.faults.fire(VM_CRASH_DURING_SETUP)
        if action is None:
            return
        victim = self._port_owner.get(request.dst_port_name)
        if victim in self.hypervisor.vms:
            self.hypervisor.crash_vm(victim)

    # -- waits (generators to ``yield from``) ----------------------------------

    def _inject(self, point: str):
        """Fire the fault plan at an agent RPC point.

        ERROR/CRASH raise, DELAY stretches the request and DROP parks it
        forever (only the caller's timeout recovers).
        """
        if self.faults is None:
            return
        action = self.faults.fire(point)
        if action is None:
            return
        if action.mode in (FaultMode.ERROR, FaultMode.CRASH):
            raise HypervisorError(action.message)
        if action.mode is FaultMode.DELAY:
            yield self.env.timeout(action.delay)
        elif action.mode is FaultMode.DROP:
            yield self.env.event()  # never fires

    def _pause(self, request: AgentRequest, cost: float):
        """Spend ``cost`` modelled seconds."""
        yield self.env.timeout(cost)
        self._check_cancel(request)

    def _join(self, request: AgentRequest, hotplugs: list):
        """Wait for parallel hot-(un)plugs."""
        yield self.env.all_of(hotplugs)
        self._check_cancel(request)

    def _pmd_command(self, request: AgentRequest, port_name: str,
                     command: str, role: str, **extra):
        """Send one PMD command over virtio-serial and await its reply.

        A reply that never comes is ended by the caller's timeout or
        the VM's death; a NACK fails the request.
        """
        vm = self._vm_of(port_name)
        if vm.name in self.dead_vms or vm.name not in self.hypervisor.vms:
            raise HypervisorError(
                "cannot configure PMD: VM %r is gone" % vm.name
            )
        reply_id = next(self._reply_serial)
        args = {
            "request_id": reply_id,
            "port_name": port_name,
            "zone_name": request.zone_name,
            "role": role,
            **extra,
        }
        if role == "tx" and command == "attach_bypass":
            args["flow_id"] = request.flow_id
        event = self.env.event()
        self._pending_replies[reply_id] = (event, vm.name)
        vm.serial.host_send(ControlMessage(command, args))
        reply = yield event
        self._check_cancel(request)
        if reply.command == "error":
            raise HypervisorError(
                "PMD rejected command: %s"
                % reply.args.get("reason", "unknown error")
            )

    def _on_guest_reply(self, message: ControlMessage) -> None:
        reply_id = message.args.get("request_id")
        entry = self._pending_replies.pop(reply_id, None)
        if entry is not None:
            entry[0].succeed(message)

    # -- the two lifecycle procedures, each written once ----------------------

    def _setup_steps(self, request: AgentRequest):
        """Plug the zone into both VMs, then receiver before sender."""
        # 1. The OVS -> agent RPC itself.
        yield from self._inject("agent.rpc.send")
        yield from self._pause(request, self.costs.agent_rpc)
        request.t_rpc_done = self.env.now
        # 2. ivshmem hot-plug into both VMs, in parallel.
        yield from self._join(request, [
            self.hypervisor.plug_ivshmem(self.owner_of(port_name),
                                         request.zone_name)
            for port_name in (request.src_port_name, request.dst_port_name)
        ])
        request.t_zones_plugged = self.env.now
        self._fire_setup_crash(request)
        # 3. Receiver PMD first: make-before-break.
        yield from self._pmd_command(request, request.dst_port_name,
                                     "attach_bypass", "rx")
        request.t_rx_configured = self.env.now
        # 4. Sender PMD: from the next poll iteration, TX rides the bypass.
        yield from self._pmd_command(request, request.src_port_name,
                                     "attach_bypass", "tx")
        request.t_tx_configured = self.env.now
        # 5. The agent -> OVS completion reply.
        yield from self._inject("agent.rpc.reply")
        self._check_cancel(request)
        request.t_completed = self.env.now

    def _teardown_steps(self, request: AgentRequest, ring: Ring):
        """Ordered teardown: tx stalled -> rx off -> salvage -> resume.

        Stalling the sender first means nothing new enters the bypass
        ring while the still-attached receiver keeps draining it;
        detaching the receiver then freezes what is left, and the quiet
        window lets the leftovers be re-homed onto the normal channel
        *ahead of* any future switch-path packet, so teardown reorders
        nothing and loses nothing.
        """
        yield from self._inject("agent.rpc.send")
        yield from self._pause(request, self.costs.agent_rpc)
        request.t_rpc_done = self.env.now
        # 1. Sender off the bypass, stalled until the handover is done.
        yield from self._pmd_command(request, request.src_port_name,
                                     "detach_bypass", "tx", stall=True)
        request.t_tx_configured = self.env.now
        # 2. Receiver stops polling the bypass ring.
        yield from self._pmd_command(request, request.dst_port_name,
                                     "detach_bypass", "rx")
        request.t_rx_configured = self.env.now
        # 3. Re-home any leftovers onto the normal channel (in order:
        #    the sender is quiesced, so nothing can overtake them).  An
        #    overflowing normal ring (receiver badly behind) costs the
        #    tail of the salvage, reported apart in ``lost_packets``.
        request.salvaged_packets, lost = self._salvage(
            ring, request.dst_port_name)
        request.lost_packets += lost
        request.t_drained = self.env.now
        # 4. Release the sender onto the vSwitch path.
        yield from self._pmd_command(request, request.src_port_name,
                                     "resume_tx", "tx")
        yield from self._join(request, [
            self.hypervisor.unplug_ivshmem(self.owner_of(port_name),
                                           request.zone_name)
            for port_name in (request.src_port_name, request.dst_port_name)
        ])
        yield from self._inject("agent.rpc.reply")
        request.t_completed = self.env.now

    # -- salvage and forced dismantle ------------------------------------------

    def _salvage(self, ring: Optional[Ring], dst_port_name: str,
                 rehome: bool = True) -> Tuple[int, int]:
        """Empty a bypass ring; returns ``(salvaged, lost)``.

        With ``rehome`` and a living receiver whose dpdkr zone still
        exists, the packets go onto its normal rx ring in ring order.
        Whatever does not fit, everything when there is nowhere to
        deliver, and every smashed (``None``) slot is lost: intact
        mbufs are freed, a smashed slot has nothing to free and is never
        forwarded as garbage.
        """
        leftovers = ring.drain() if ring is not None else []
        intact = [mbuf for mbuf in leftovers if mbuf is not None]
        salvaged = 0
        normal_zone = dpdkr_zone_name(dst_port_name)
        if (intact and rehome and self.is_port_alive(dst_port_name)
                and normal_zone in self.hypervisor.registry):
            normal_rx = self.hypervisor.registry.lookup(normal_zone).get("rx")
            salvaged = normal_rx.enqueue_burst(intact)
        for mbuf in intact[salvaged:]:
            mbuf.free()
        return salvaged, len(leftovers) - salvaged

    def force_dismantle(self, src_port_name: str, dst_port_name: str,
                        zone_name: Optional[str], ring: Optional[Ring],
                        rehome: bool = True) -> Tuple[int, int]:
        """Take a channel down now, when no protocol can: an endpoint
        died, a teardown failed, an establishment is being rolled back
        or the watchdog found the channel sick.

        The ordered teardown above, run host-side in one go (no sim
        time passes, so nothing can interleave): stall the sender,
        detach the receiver, salvage the ring (see :meth:`_salvage`),
        resume the sender, then unplug the zone from every endpoint VM
        that still maps it.  A dead end is skipped and an end that never
        reached the state being undone rejects its command — both are
        the don't-care case.  Returns ``(salvaged, lost)``.
        """
        self._direct_command(src_port_name, "detach_bypass", zone_name,
                             "tx", stall=True)
        # Detach before unplugging: the receiver resolves the ring
        # through the still-mapped zone.  A frozen consumer still
        # executes host-delivered commands: the wedge is in the app's
        # poll loop, the PMD state lives in shared memory.
        self._direct_command(dst_port_name, "detach_bypass", zone_name, "rx")
        counts = self._salvage(ring, dst_port_name, rehome)
        self._direct_command(src_port_name, "resume_tx", zone_name, "tx")
        registry = self.hypervisor.registry
        if zone_name is not None and zone_name in registry:
            zone = registry.lookup(zone_name)
            for port_name in (src_port_name, dst_port_name):
                owner = self.owner_of(port_name)
                if owner in zone.mapped_by and owner in self.hypervisor.vms:
                    self.hypervisor.force_unplug(owner, zone_name)
        return counts

    def _direct_command(self, port_name: str, command: str,
                        zone_name: Optional[str], role: str,
                        **extra) -> None:
        """Best-effort PMD command delivered host-side: no serial
        channel, no latency, no fault injection."""
        if not self.is_port_alive(port_name):
            return
        vm = self.hypervisor.vms.get(self.owner_of(port_name))
        if vm is None:
            return
        args = {"request_id": -1, "port_name": port_name,
                "zone_name": zone_name, "role": role, **extra}
        try:
            vm.serial.guest_handler(ControlMessage(command, args))
        except Exception:  # noqa: BLE001 - nothing was attached: done
            pass
