"""The bypass manager: from p-2-p detection to a live direct channel.

Listens to the :class:`~repro.core.detector.P2PLinkDetector` and drives
channel lifecycle through the compute agent:

* **establish** — reserve a fresh memzone holding the bypass ring and
  its :class:`~repro.core.stats.BypassStatsBlock`, then ask the agent to
  plug it into both VMs and reconfigure the PMDs (receiver before
  sender);
* **teardown** — ask the agent to detach the sender (its drain marker
  hands the ring's contents to the receiver), detach the receiver and
  unplug; afterwards release the zone.  The stats block is retained
  forever so flow/port statistics stay correct.

Each procedure is one generator, run by a single FIFO worker process
(one compute agent, one request at a time), which also serializes the
detect-while-establishing races: a link revoked mid-establishment is
simply torn down right after it becomes active.

Every forced path (rollback of a failed attempt, the janitor after a
failed teardown, the watchdog's live fallback, an endpoint VM dying)
takes the channel down through the one
:meth:`~repro.hypervisor.compute_agent.ComputeAgent.force_dismantle`,
and every state change goes through :func:`_transition`, checked
against :data:`LEGAL_TRANSITIONS`.

The manager is **self-healing**: every establishment step runs under a
timeout, failed attempts are rolled back (zones unplugged and freed,
partially-configured PMDs detached, stranded packets accounted) and
retried with bounded exponential backoff, links that exhaust the retry
budget are *quarantined* — traffic stays on the switch path and the
link is re-attempted later with growing backoff instead of being
dropped forever — and detector churn is flap-damped so no flowmod storm
can turn into an establishment storm.  Every recovery action is counted
in :class:`~repro.metrics.resilience.ResilienceCounters` (see ``appctl
bypass/faults``), and the whole machinery is exercised deterministically
by injecting faults through :class:`~repro.faults.FaultPlan`.
"""

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.core.detector import P2PLink, P2PLinkDetector
from repro.core.stats import BypassStatsBlock
from repro.core.watchdog import (
    DEFAULT_WATCHDOG_POLICY,
    BypassWatchdog,
    HealthState,
    WatchdogPolicy,
)
from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.faults import FaultPlan
from repro.hypervisor.compute_agent import AgentRequest, ComputeAgent
from repro.mem.memzone import MemzoneError, MemzoneRegistry
from repro.mem.ring import Ring
from repro.metrics.resilience import ResilienceCounters
from repro.sim.engine import Environment
from repro.state.xfsm import ChannelProgram
from repro.vswitch.ports import DpdkrOvsPort
from repro.vswitch.vswitchd import VSwitchd


class LinkState(enum.Enum):
    PENDING = "pending"
    ESTABLISHING = "establishing"
    ACTIVE = "active"
    TEARING_DOWN = "tearing_down"
    REMOVED = "removed"
    QUARANTINED = "quarantined"


# The lifecycle's legal edges.  A :class:`BypassLink` is one admission:
# a retry re-enters ESTABLISHING on the same object, REMOVED is reached
# from an orderly or forced teardown (TEARING_DOWN) or from an attempt
# that will not be retried (ESTABLISHING), and a link held off the
# highway passes through REMOVED — the removal hooks fire first — into
# QUARANTINED.  Re-admission creates a fresh link.
LEGAL_TRANSITIONS: Dict[LinkState, FrozenSet[LinkState]] = {
    LinkState.PENDING: frozenset({LinkState.ESTABLISHING}),
    LinkState.ESTABLISHING: frozenset({
        LinkState.ESTABLISHING, LinkState.ACTIVE, LinkState.REMOVED}),
    LinkState.ACTIVE: frozenset({LinkState.TEARING_DOWN}),
    LinkState.TEARING_DOWN: frozenset({LinkState.REMOVED}),
    LinkState.REMOVED: frozenset({LinkState.QUARANTINED}),
    LinkState.QUARANTINED: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A lifecycle step tried an edge :data:`LEGAL_TRANSITIONS` lacks."""


def _transition(bypass_link: "BypassLink", new_state: LinkState) -> None:
    """The only place a link's state changes."""
    if new_state not in LEGAL_TRANSITIONS[bypass_link.state]:
        raise IllegalTransition(
            "bypass %s -> %s: %s -> %s is not a lifecycle edge" % (
                bypass_link.src_port_name, bypass_link.dst_port_name,
                bypass_link.state.value, new_state.value))
    bypass_link.state = new_state


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs of the self-healing control plane.

    The defaults are sized against the calibrated cost model: a clean
    establishment takes ~100 ms (RPC + hot-plug + two serial RTTs), so a
    250 ms step timeout only fires when something was genuinely lost.
    """

    request_timeout: float = 0.25      # per establishment attempt
    teardown_timeout: float = 0.35     # per teardown request
    max_attempts: int = 4              # establishment tries before quarantine
    base_backoff: float = 0.05         # first retry delay
    backoff_factor: float = 2.0
    max_backoff: float = 0.4
    quarantine_backoff: float = 0.8    # first out-of-quarantine re-attempt
    quarantine_backoff_factor: float = 2.0
    max_quarantine_backoff: float = 6.4
    flap_window: float = 1.0           # seconds of detector history examined
    flap_threshold: int = 5            # creations in window before damping
    flap_hold: float = 0.5             # settle time before a damped admit

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-attempt number ``attempt + 1``."""
        return min(
            self.base_backoff * self.backoff_factor ** max(attempt - 1, 0),
            self.max_backoff,
        )

    def quarantine_delay(self, failures: int) -> float:
        return min(
            self.quarantine_backoff
            * self.quarantine_backoff_factor ** max(failures - 1, 0),
            self.max_quarantine_backoff,
        )


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class BypassLink:
    """Runtime state of one directed bypass channel."""

    link: P2PLink
    src_port_name: str
    dst_port_name: str
    # Provisioned per establishment attempt (a rolled-back attempt frees
    # its zone; the next attempt gets a fresh one).
    zone_name: Optional[str] = None
    ring: Optional[Ring] = None
    stats: Optional[BypassStatsBlock] = None
    # Stateful channel handle (repro.state.xfsm.ChannelProgram) when the
    # detected link delegates to a state-safe XFSM program; the zone
    # ships it to the sender PMD at attach time.
    xfsm: Optional[object] = None
    state: LinkState = LinkState.PENDING
    revoked: bool = False          # detector withdrew it before/while active
    attempts: int = 0              # establishment attempts consumed
    t_detected: float = 0.0
    t_active: float = 0.0
    t_teardown_started: float = 0.0
    t_removed: float = 0.0
    setup_request: Optional[AgentRequest] = None
    teardown_request: Optional[AgentRequest] = None


@dataclass
class QuarantineRecord:
    """Bookkeeping for a link held off the highway after repeated failure.

    ``reason`` distinguishes why the link is here: ``"establish"`` (the
    retry budget for setting it up ran out), ``"degraded"`` (it *was*
    ACTIVE and the watchdog executed a live fallback) or
    ``"peer_crashed"`` (an endpoint VM died abruptly and the emergency
    teardown dismantled the channel).  Degraded and crashed records
    additionally carry ``heartbeat_mark`` — the consumer port's
    heartbeat epoch at degrade/crash time — and re-admission is
    deferred until the epoch moves past it, i.e. until the peer (or a
    repaired replacement attached to the same dpdkr zone) demonstrably
    polls again.
    """

    link: P2PLink
    failures: int = 0      # quarantine entries (grows the backoff)
    until: float = 0.0     # earliest re-attempt time (simulated seconds)
    reason: str = "establish"
    heartbeat_mark: Optional[int] = None


class BypassManager:
    """Creates and destroys bypass channels in response to detector events."""

    def __init__(
        self,
        vswitchd: VSwitchd,
        agent: ComputeAgent,
        detector: P2PLinkDetector,
        env: Environment,
        ring_size: int = 1024,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        faults: Optional[FaultPlan] = None,
        watchdog_policy: WatchdogPolicy = DEFAULT_WATCHDOG_POLICY,
    ) -> None:
        self.vswitchd = vswitchd
        self.registry: MemzoneRegistry = vswitchd.registry
        self.agent = agent
        self.detector = detector
        self.env = env
        self.ring_size = ring_size
        self.retry_policy = retry_policy
        self.faults = faults
        self.resilience = ResilienceCounters()
        self._zone_serial = itertools.count(1)
        self._active: Dict[int, BypassLink] = {}   # src ofport -> link
        self.history: List[BypassLink] = []
        self.stats_blocks: List[BypassStatsBlock] = []
        self.on_link_active: List[Callable[[BypassLink], None]] = []
        self.on_link_removed: List[Callable[[BypassLink], None]] = []
        # Runtime-health lifecycle hooks: (link, verdict) on live
        # fallback, (link) on heartbeat-gated re-admission, (src ofport)
        # when a re-admission is deferred by a silent peer.
        self.on_link_degraded: List[Callable] = []
        self.on_link_readmitted: List[Callable[[BypassLink], None]] = []
        self.on_readmission_deferred: List[Callable[[int], None]] = []
        # FIFO worker queue of (procedure, link).
        self._ops: List = []
        self._ops_available = env.event()
        self._worker = env.process(self._worker_process(),
                                   name="bypass.worker")
        # Self-healing state.
        self._quarantine: Dict[int, QuarantineRecord] = {}
        self._flap_history: Dict[int, List[float]] = {}
        self._damped: Set[int] = set()
        detector.on_created.append(self._on_p2p_created)
        detector.on_removed.append(self._on_p2p_removed)
        agent.hypervisor.on_destroy.append(self._on_vm_failure)
        self.failed_links: List[BypassLink] = []
        self.packets_lost_to_failures = 0
        # Stateful-channel accounting: programs installed into bypass
        # zones, and live fallbacks that carried flow state back to the
        # switch executor (the state table object is shared, so a
        # migration moves the *executor*, never the state).
        self.xfsm_channels_provisioned = 0
        self.xfsm_state_migrations = 0
        # Mempools whose ownership ledgers cover this node's traffic;
        # wired by NfvNode.  A crashed guest's leases ("vm:<name>") are
        # swept back into these pools by the crash handler.
        self.mempools: List = []
        self.watchdog = BypassWatchdog(self, watchdog_policy)
        self.watchdog.start(env)

    # -- state access ---------------------------------------------------------

    @property
    def active_links(self) -> Dict[int, BypassLink]:
        return dict(self._active)

    @property
    def quarantined_links(self) -> Dict[int, QuarantineRecord]:
        return dict(self._quarantine)

    def link_for_src(self, src_ofport: int) -> Optional[BypassLink]:
        return self._active.get(src_ofport)

    # -- detector events -----------------------------------------------------------

    def _eligible_ports(self, link: P2PLink):
        """The (src, dst) DpdkrOvsPorts of an acceleratable link, or None."""
        src_port = self.vswitchd.datapath.ports.get(link.src_ofport)
        dst_port = self.vswitchd.datapath.ports.get(link.dst_ofport)
        if not isinstance(src_port, DpdkrOvsPort) or not isinstance(
            dst_port, DpdkrOvsPort
        ):
            return None  # only dpdkr-to-dpdkr connections are accelerated
        if not (self.agent.is_port_alive(src_port.name)
                and self.agent.is_port_alive(dst_port.name)):
            return None  # endpoint VM unknown or dead: leave it on the switch
        return src_port, dst_port

    def _on_p2p_created(self, link: P2PLink) -> None:
        if self._eligible_ports(link) is None:
            return
        key = link.src_ofport
        if key in self._quarantine:
            # The quarantine's scheduled re-attempt owns re-admission;
            # detector churn must not short-circuit the backoff.
            return
        if self._flap_damped(key):
            return
        self._admit_link(link)

    def _flap_damped(self, key: int) -> bool:
        """Record a creation event; True when the link is churning too
        fast and admission was deferred to the damper."""
        now = self.env.now
        window = self.retry_policy.flap_window
        history = self._flap_history.setdefault(key, [])
        history.append(now)
        while history and history[0] < now - window:
            history.pop(0)
        if len(history) <= self.retry_policy.flap_threshold:
            return False
        self.resilience.flaps_damped += 1
        if key not in self._damped:
            self._damped.add(key)
            self.env.process(self._damped_admit(key),
                             name="bypass.damper.%d" % key)
        return True

    def _damped_admit(self, key: int):
        """After the hold time, admit whatever link the detector holds now.

        A previous admission may still be winding down (revoked, waiting
        for the serialized worker to finish its establish + teardown);
        in that case hold again rather than dropping the current rule on
        the floor — the damper owns admission until the key is clean.
        """
        while True:
            yield self.env.timeout(self.retry_policy.flap_hold)
            current = self.detector.link_for(key)
            if current is None or key in self._quarantine:
                break  # rule gone, or quarantine owns re-admission
            old = self._active.get(key)
            if old is not None:
                if old.link == current and not old.revoked:
                    break  # the surviving rule is already being served
                continue  # stale link still tearing down: hold again
            self._admit_link(current)
            break
        self._damped.discard(key)

    def _admit_link(self, link: P2PLink) -> None:
        ports = self._eligible_ports(link)
        if ports is None:
            return
        src_port, dst_port = ports
        bypass_link = BypassLink(
            link=link,
            src_port_name=src_port.name,
            dst_port_name=dst_port.name,
            t_detected=self.env.now,
        )
        self._active[link.src_ofport] = bypass_link
        self.history.append(bypass_link)
        self._enqueue_op(self._establish, bypass_link)

    def _on_p2p_removed(self, link: P2PLink) -> None:
        record = self._quarantine.get(link.src_ofport)
        if record is not None and record.link == link:
            # The rule that kept failing is gone; stop re-attempting
            # (the scheduled re-attempt notices and drops the record
            # too, whichever runs first).
            del self._quarantine[link.src_ofport]
        bypass_link = self._active.get(link.src_ofport)
        if bypass_link is None or bypass_link.link != link:
            return
        bypass_link.revoked = True
        bypass_link.t_teardown_started = self.env.now
        if bypass_link.state == LinkState.ACTIVE:
            self._enqueue_op(self._teardown, bypass_link)
        # If still PENDING/ESTABLISHING, the worker notices `revoked`
        # right after establishment and queues the teardown itself.

    # -- operation execution ----------------------------------------------------------

    def _enqueue_op(self, procedure, bypass_link: BypassLink) -> None:
        """Queue a lifecycle procedure behind the FIFO worker."""
        self._ops.append((procedure, bypass_link))
        if not self._ops_available.triggered:
            self._ops_available.succeed()

    def _worker_process(self):
        env = self.env
        while True:
            if not self._ops:
                self._ops_available = env.event()
                yield self._ops_available
                continue
            procedure, bypass_link = self._ops.pop(0)
            yield from procedure(bypass_link)

    def _await_request(self, request: AgentRequest, timeout: float):
        """Wait until the agent finishes or ``timeout`` passes."""
        yield self.env.any_of([
            request.done_event,
            self.env.timeout(timeout),
        ])

    # provisioning --------------------------------------------------------------------

    def _provision(self, bypass_link: BypassLink) -> Optional[str]:
        """Reserve a fresh zone + ring + stats block for one attempt.

        Returns an error string on failure (nothing was allocated).
        """
        serial = next(self._zone_serial)
        zone_name = "bypass.%d.%s-%s" % (
            serial,
            bypass_link.src_port_name, bypass_link.dst_port_name,
        )
        try:
            zone = self.registry.reserve(zone_name, owner="ovs")
        except MemzoneError as error:
            return str(error)
        ring = zone.put("ring", Ring(
            "%s.ring" % zone_name, self.ring_size,
            watermark=(self.ring_size * 3) // 4,
        ))
        # The generation tag pins this provisioning; the watchdog
        # validates against it so re-provisioned memory is never
        # mistaken for corruption (or vice versa).  Arming the plan
        # enables the ring.corrupt injection point on bypass rings only.
        ring.generation = serial
        ring.faults = self.faults
        # Ownership ledger: mbufs parked in the bypass ring are charged
        # to the ring, so a crash sweep knows exactly where they sit.
        ring.holder_token = "ring:%s" % zone_name
        stats = zone.put("stats", BypassStatsBlock(
            zone_name, bypass_link.link.src_ofport,
            bypass_link.link.dst_ofport,
        ))
        if bypass_link.link.xfsm_program is not None:
            # Stateful link: ship the program handle in the zone so the
            # sender PMD executes it on the channel.  The handle wraps
            # the *same* program object the datapath registry holds —
            # per-flow state follows the flows onto the bypass and back
            # without ever being copied.
            program = self.vswitchd.datapath.xfsm_programs.get(
                bypass_link.link.xfsm_program)
            if program is None or not program.state_safe:
                self.registry.free(zone_name)
                return ("xfsm program %r not registered or not state-safe"
                        % bypass_link.link.xfsm_program)
            bypass_link.xfsm = zone.put("xfsm", ChannelProgram(
                program, from_inside=bypass_link.link.xfsm_from_inside,
            ))
            self.xfsm_channels_provisioned += 1
        self.stats_blocks.append(stats)
        bypass_link.zone_name = zone_name
        bypass_link.ring = ring
        bypass_link.stats = stats
        return None

    # establish -----------------------------------------------------------------------

    def _establish(self, bypass_link: BypassLink):
        policy = self.retry_policy
        _transition(bypass_link, LinkState.ESTABLISHING)
        bypass_link.attempts += 1
        if bypass_link.ring is None:
            error = self._provision(bypass_link)
            if error is not None:
                self.resilience.provision_failures += 1
                self._attempt_failed(bypass_link)
                return
        self.resilience.establish_attempts += 1
        request = self.agent.setup_bypass(
            bypass_link.src_port_name,
            bypass_link.dst_port_name,
            bypass_link.zone_name,
            flow_id=bypass_link.link.flow_id,
        )
        bypass_link.setup_request = request
        yield from self._await_request(request, policy.request_timeout)
        if request.completed and request.error is None:
            self._mark_active(bypass_link)
            if bypass_link.revoked:
                # Withdrawn while we were establishing: undo immediately.
                yield from self._teardown(bypass_link)
            return
        if not request.completed:
            # Some step was silently lost: give up on the request and
            # reclaim whatever it plugged before going dark.
            self.resilience.timeouts += 1
            self.agent.cancel(
                request,
                "establishment exceeded %.3fs" % policy.request_timeout,
            )
        else:
            # The agent aborted partway (fault injection, dead VM): the
            # link must not go ACTIVE on a half-configured channel.
            self.resilience.rpc_errors += 1
        self._rollback_partial(bypass_link)
        self._attempt_failed(bypass_link)

    def _attempt_failed(self, bypass_link: BypassLink) -> None:
        """Decide what a failed attempt becomes: retry, quarantine, abort."""
        if bypass_link.revoked or not self._endpoints_alive(bypass_link):
            self.resilience.links_abandoned += 1
            self._abort_establishment(bypass_link)
            return
        if bypass_link.attempts >= self.retry_policy.max_attempts:
            self._enter_quarantine(bypass_link)
            return
        self.resilience.retries += 1
        self.env.process(
            self._retry_later(bypass_link),
            name="bypass.retry.%d" % bypass_link.link.src_ofport,
        )

    def _retry_later(self, bypass_link: BypassLink):
        yield self.env.timeout(
            self.retry_policy.retry_delay(bypass_link.attempts)
        )
        if bypass_link.revoked or not self._endpoints_alive(bypass_link):
            self.resilience.links_abandoned += 1
            self._abort_establishment(bypass_link)
            return
        self._enqueue_op(self._establish, bypass_link)

    def _endpoints_alive(self, bypass_link: BypassLink) -> bool:
        return (self.agent.is_port_alive(bypass_link.src_port_name)
                and self.agent.is_port_alive(bypass_link.dst_port_name))

    def _mark_active(self, bypass_link: BypassLink) -> None:
        _transition(bypass_link, LinkState.ACTIVE)
        bypass_link.t_active = self.env.now
        record = self._quarantine.pop(bypass_link.link.src_ofport, None)
        if bypass_link.attempts > 1 or record is not None:
            self.resilience.links_recovered += 1
        if record is not None and record.reason in ("degraded",
                                                    "peer_crashed"):
            if record.reason == "degraded":
                self.resilience.degraded_readmissions += 1
            else:
                self.resilience.crashed_peer_readmissions += 1
            for callback in self.on_link_readmitted:
                callback(bypass_link)
        self._update_port_flags()
        for callback in self.on_link_active:
            callback(bypass_link)

    # quarantine ------------------------------------------------------------------------

    def _enter_quarantine(self, bypass_link: BypassLink,
                          reason: str = "establish",
                          heartbeat_mark: Optional[int] = None) -> None:
        """Degrade to the switch path: retry budget spent, or a live
        fallback just ran (``reason="degraded"``).

        The link keeps forwarding through the vSwitch exactly as before
        detection; establishment is re-attempted after a (growing)
        backoff rather than abandoned outright.  Degraded/crashed
        entries additionally wait for the consumer's port heartbeat to
        move past ``heartbeat_mark`` — re-admitting a bypass toward a
        still-frozen (or still-dead) peer would only re-strand packets.
        """
        self._quarantine_record(bypass_link, reason, heartbeat_mark)
        self.failed_links.append(bypass_link)
        self._finish_teardown(bypass_link)
        _transition(bypass_link, LinkState.QUARANTINED)

    def _quarantine_record(self, bypass_link: BypassLink, reason: str,
                           heartbeat_mark: Optional[int]
                           ) -> QuarantineRecord:
        """Create/refresh the key's record and schedule the re-attempt.

        Shared between :meth:`_enter_quarantine` (which also runs the
        teardown bookkeeping) and the crash handler, which has *already*
        finished the link — running ``_finish_teardown`` twice would
        double-fire the removal callbacks.
        """
        key = bypass_link.link.src_ofport
        record = self._quarantine.get(key)
        if record is None:
            record = QuarantineRecord(link=bypass_link.link)
            self._quarantine[key] = record
        record.link = bypass_link.link
        record.failures += 1
        record.reason = reason
        record.heartbeat_mark = heartbeat_mark
        self.resilience.quarantines += 1
        delay = self.retry_policy.quarantine_delay(record.failures)
        record.until = self.env.now + delay
        self.env.process(
            self._quarantine_reattempt(key, record, delay),
            name="bypass.quarantine.%d" % key,
        )
        return record

    def _quarantine_reattempt(self, key: int, record: QuarantineRecord,
                              delay: float):
        yield self.env.timeout(delay)
        if self._quarantine.get(key) is not record:
            return  # cleared (rule removed, or the link recovered)
        current = self.detector.link_for(key)
        if current is None:
            del self._quarantine[key]
            return
        if key in self._active:
            return
        peer_silent = (record.reason in ("degraded", "peer_crashed")
                       and not self._peer_heartbeating(record))
        if peer_silent or self._eligible_ports(current) is None:
            # The consumer has not polled since the fallback/crash, or
            # an endpoint VM is (still) dead: hold the link on the
            # switch path and look again after another backoff (the
            # record keeps its failure count — a silent peer must not
            # reset the ladder).  Deferring on dead endpoints matters:
            # _admit_link would silently no-op and nothing would ever
            # re-schedule this record, stranding the link in quarantine
            # even after a repair revived the peer.
            self.resilience.readmissions_deferred += 1
            for callback in self.on_readmission_deferred:
                callback(key)
            record.until = self.env.now + delay
            self.env.process(
                self._quarantine_reattempt(key, record, delay),
                name="bypass.quarantine.%d" % key,
            )
            return
        self.resilience.quarantine_reattempts += 1
        self._admit_link(current)

    def _peer_heartbeating(self, record: QuarantineRecord) -> bool:
        """Has the consumer polled since the mark was taken?"""
        if record.heartbeat_mark is None:
            return True
        port = self.vswitchd.datapath.ports.get(record.link.dst_ofport)
        if port is None:
            return True
        epoch = self.consumer_heartbeat_epoch(port.name)
        return epoch is None or epoch > record.heartbeat_mark

    # runtime health -----------------------------------------------------------------

    def heartbeat_zone_present(self, port_name: str) -> bool:
        """Does the port's dpdkr zone (the heartbeat's home) still exist?

        A vanished zone is peer-death evidence, not staleness: host-side
        port cleanup freed it, or a test fixture yanked it.  The
        watchdog checks this before any path does a blind
        ``registry.lookup`` (the crash-window race).
        """
        return dpdkr_zone_name(port_name) in self.registry

    def consumer_heartbeat_epoch(self, port_name: str) -> Optional[int]:
        """The port's guest-published heartbeat epoch (None: no signal)."""
        zone_name = dpdkr_zone_name(port_name)
        if zone_name not in self.registry:
            return None
        zone = self.registry.lookup(zone_name)
        if "heartbeat" not in zone:
            return None
        return zone.get("heartbeat").epoch

    def normal_backlog(self, port_name: str) -> int:
        """Occupancy of the port's normal (switch -> guest) ring."""
        zone_name = dpdkr_zone_name(port_name)
        if zone_name not in self.registry:
            return 0
        return len(self.registry.lookup(zone_name).get("rx"))

    def degrade_link(self, bypass_link: BypassLink,
                     verdict: HealthState) -> None:
        """Emergency live fallback: the watchdog found the channel sick.

        A forced dismantle (no sim time passes, so nothing can
        interleave): move the sender to the switch path, salvage
        everything still in the bypass ring onto the receiver's *normal*
        channel in ring order — ahead of anything the sender pushes via
        the vSwitch from then on; a smashed slot is counted lost —
        detach the receiver, unplug the zone from both endpoints.  The
        link then goes to the quarantine ladder with the ``degraded``
        reason (heartbeat-gated automatic re-admission).

        Zero loss toward a living receiver, zero reordering — the same
        guarantee orderly teardown gives, under failure.
        """
        if bypass_link.state != LinkState.ACTIVE:
            return
        res = self.resilience
        if verdict == HealthState.STALLED:
            res.stalled_consumers += 1
        elif verdict == HealthState.WEDGED:
            res.wedged_guests += 1
        elif verdict == HealthState.DEAD_PEER:
            res.dead_peer_fallbacks += 1
        elif verdict == HealthState.PEER_CRASHED:
            res.peer_crashes += 1
        elif verdict == HealthState.CORRUPT:
            res.ring_integrity_failures += 1
        res.links_degraded += 1
        if bypass_link.link.xfsm_program is not None:
            # The channel carried a stateful program.  Its state table is
            # the very object registered with the datapath — falling back
            # to the switch path continues from the same entries, so the
            # "migration" is a pointer handover, never a copy.
            self.xfsm_state_migrations += 1
        for callback in self.on_link_degraded:
            callback(bypass_link, verdict)
        _transition(bypass_link, LinkState.TEARING_DOWN)
        bypass_link.t_teardown_started = self.env.now
        res.packets_salvaged += self._force_dismantle(bypass_link)
        self._enter_quarantine(
            bypass_link,
            reason=("peer_crashed" if verdict == HealthState.PEER_CRASHED
                    else "degraded"),
            heartbeat_mark=self.consumer_heartbeat_epoch(
                bypass_link.dst_port_name),
        )

    # teardown ------------------------------------------------------------------------

    def _teardown(self, bypass_link: BypassLink):
        if bypass_link.state != LinkState.ACTIVE:
            return
        _transition(bypass_link, LinkState.TEARING_DOWN)
        request = self.agent.teardown_bypass(
            bypass_link.src_port_name,
            bypass_link.dst_port_name,
            bypass_link.zone_name,
        )
        bypass_link.teardown_request = request
        yield from self._await_request(
            request, self.retry_policy.teardown_timeout)
        if not request.completed:
            self.resilience.timeouts += 1
            self.agent.cancel(
                request,
                "teardown exceeded %.3fs" % self.retry_policy.teardown_timeout,
            )
        if request.error is not None:
            # Timed out (cancel() recorded why) or aborted partway.
            # Ordering is best-effort at this point; the priority is
            # that no guest keeps a mapping and no PMD stays wedged on a
            # dead channel.
            self.resilience.teardown_failures += 1
            self._force_dismantle(bypass_link)
        self._finish_teardown(bypass_link)

    # failure cleanup -------------------------------------------------------------------

    def _force_dismantle(self, bypass_link: BypassLink,
                         rehome: bool = True) -> int:
        """Take the channel down host-side, now; returns the number of
        ring leftovers re-homed onto the receiver's normal channel (the
        rest are added to :attr:`packets_lost_to_failures`)."""
        salvaged, lost = self.agent.force_dismantle(
            bypass_link.src_port_name, bypass_link.dst_port_name,
            bypass_link.zone_name, bypass_link.ring, rehome=rehome,
        )
        self.packets_lost_to_failures += lost
        return salvaged

    def _rollback_partial(self, bypass_link: BypassLink) -> None:
        """Undo whatever a failed establishment attempt left behind.

        The attempt may have died at any step: zones plugged into one or
        both VMs, the receiver configured, even the sender configured
        with only the completion reply lost.  Dismantle it, release the
        zone and force the next attempt to provision afresh.  Packets
        the sender already pushed into the attempt's ring are counted
        lost and freed: a rollback abandons the attempt, it does not
        hand it over.  Idempotent — abort paths may run it after a retry
        path already has.
        """
        self.resilience.rollbacks += 1
        self._force_dismantle(bypass_link, rehome=False)
        if (bypass_link.zone_name is not None
                and bypass_link.zone_name in self.registry
                and not self.registry.lookup(
                    bypass_link.zone_name).mapped_by):
            self.registry.free(bypass_link.zone_name)
            if (bypass_link.stats is not None
                    and bypass_link.stats.tx_packets == 0
                    and bypass_link.stats in self.stats_blocks):
                # The attempt carried nothing; no counters to retain.
                self.stats_blocks.remove(bypass_link.stats)
        bypass_link.ring = None

    def _abort_establishment(self, bypass_link: BypassLink) -> None:
        """Terminal cleanup of a link whose establishment will not be
        retried (endpoint died, or the detector revoked it)."""
        self._rollback_partial(bypass_link)
        self.failed_links.append(bypass_link)
        self._finish_teardown(bypass_link)

    def _finish_teardown(self, bypass_link: BypassLink) -> None:
        _transition(bypass_link, LinkState.REMOVED)
        bypass_link.t_removed = self.env.now
        current = self._active.get(bypass_link.link.src_ofport)
        if current is bypass_link:
            del self._active[bypass_link.link.src_ofport]
        if (bypass_link.zone_name is not None
                and bypass_link.zone_name in self.registry):
            zone = self.registry.lookup(bypass_link.zone_name)
            if not zone.mapped_by:
                self.registry.free(bypass_link.zone_name)
            # else: a mapping survived an abnormal path; the zone stays
            # allocated rather than yanking memory from under a guest.
        self._update_port_flags()
        for callback in self.on_link_removed:
            callback(bypass_link)

    # VM failure handling ----------------------------------------------------------------

    def _on_vm_failure(self, vm_name: str) -> None:
        """A VM died: immediately dismantle every bypass touching it.

        Unlike the orderly teardown, this runs synchronously — it is
        the host-side janitor reacting to a death, and the surviving PMD is reconfigured by delivering the
        control message directly (the dead peer cannot participate in
        any protocol).  Packets sitting in a ring whose receiver died
        are unrecoverable and are counted in
        :attr:`packets_lost_to_failures`.

        When the death was a *crash* (abrupt process kill, per the
        hypervisor's crash record) two extra things happen: the torn
        link is quarantined with reason ``"peer_crashed"`` — so a
        repaired replacement VM gets its bypass back through the
        heartbeat-gated re-admission instead of waiting for detector
        churn — and every mbuf the ownership ledger charges to the dead
        guest is swept back into the node's mempools.
        """
        crashed = self.agent.hypervisor.was_crashed(vm_name)
        dead_ports = set(self.agent.ports_of(vm_name))
        for bypass_link in list(self._active.values()):
            if (bypass_link.src_port_name not in dead_ports
                    and bypass_link.dst_port_name not in dead_ports):
                continue
            if bypass_link.state != LinkState.ACTIVE:
                # Mid-establishment: the agent's in-flight request fails
                # (dead-VM guards / failed reply events) and the worker
                # aborts the link when it resumes.
                bypass_link.revoked = True
                continue
            _transition(bypass_link, LinkState.TEARING_DOWN)
            bypass_link.revoked = True
            bypass_link.t_teardown_started = self.env.now
            # A dead receiver loses the ring's contents; a dead sender
            # poses no ordering hazard, so the survivor gets them.
            self._force_dismantle(bypass_link)
            self.failed_links.append(bypass_link)
            self._finish_teardown(bypass_link)
            if crashed:
                # If the detector later withdraws the rule, the
                # scheduled re-attempt notices and drops the record.
                self._quarantine_record(
                    bypass_link, "peer_crashed",
                    self.consumer_heartbeat_epoch(
                        bypass_link.dst_port_name),
                )
                _transition(bypass_link, LinkState.QUARANTINED)
        if crashed:
            self.resilience.peer_crashes += 1
            self._reclaim_dead_holder(vm_name)

    def _reclaim_dead_holder(self, vm_name: str) -> None:
        """Sweep the crashed guest's mbuf leases back into the pools."""
        holder = "vm:%s" % vm_name
        for pool in self.mempools:
            report = pool.reclaim(holder)
            self.resilience.mbufs_reclaimed += report.reclaimed

    # port flags ------------------------------------------------------------------------

    def _update_port_flags(self) -> None:
        """Keep DpdkrOvsPort.bypass_active in sync (observability only)."""
        involved = set()
        for bypass_link in self._active.values():
            if bypass_link.state == LinkState.ACTIVE:
                involved.add(bypass_link.link.src_ofport)
                involved.add(bypass_link.link.dst_ofport)
        for ofport, port in self.vswitchd.datapath.ports.items():
            if isinstance(port, DpdkrOvsPort):
                port.bypass_active = ofport in involved
