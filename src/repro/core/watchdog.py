"""Host-side runtime health monitoring for active bypass channels.

Establishment and teardown are protocols; an ACTIVE bypass is just two
PMDs and a ring.  If the consumer VNF crashes or hangs mid-traffic,
nothing in the data path says so — the sender keeps enqueueing until
ring-full and every queued packet is stranded.  The
:class:`BypassWatchdog` closes that gap using only shared memory the
host can already read:

* the consumer PMD publishes a heartbeat epoch + dequeue cursor into
  the channel's :class:`~repro.core.stats.BypassStatsBlock` on every
  receive poll, and a port-level
  :class:`~repro.dpdk.dpdkr.PortHeartbeat` into its dpdkr zone;
* once per :attr:`WatchdogPolicy.poll_interval` the watchdog snapshots
  those against the ring's occupancy and classifies each ACTIVE link:

  ========== ==========================================================
  verdict    evidence
  ========== ==========================================================
  STALLED    occupancy > 0 and the dequeue cursor frozen for
             ``stall_polls`` consecutive checks (consumer signed on
             earlier, so "nobody ever polled" never false-positives)
  WEDGED     port heartbeat frozen for ``heartbeat_polls`` checks while
             the normal channel is backing up — the guest is hung, not
             idle
  DEAD_PEER  the compute agent already knows an endpoint VM is dead but
             the link is still ACTIVE (janitor backstop)
  PEER_CRASHED an endpoint VM died *abruptly* — the agent records a
             crash, or the consumer's heartbeat zone vanished outright
             (a crashed VM's force-unplug dropped it), which is peer
             death evidence, not mere staleness
  CORRUPT    :meth:`~repro.mem.ring.Ring.validate` failed (slot or
             generation-tag corruption), or the consumer flagged
             ``rx_integrity_errors`` after dequeuing a smashed slot
  ========== ==========================================================

Any non-healthy verdict hands the link to
:meth:`~repro.core.bypass.BypassManager.degrade_link`, the emergency
live fallback (ordered handover in reverse), and from there to the
quarantine ladder with the ``degraded`` reason, whose re-admission is
gated on the peer heartbeating again.

The watchdog runs on a fixed-period
:class:`~repro.sim.pollloop.PollLoop`; tests may also drive
:meth:`BypassWatchdog.check_once` by hand.
"""

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.mem.ring import RingIntegrityError
from repro.sim.engine import Environment
from repro.sim.pollloop import PollLoop

if TYPE_CHECKING:  # pragma: no cover - core.bypass builds the watchdog
    from repro.core.bypass import BypassLink, BypassManager


class HealthState(enum.Enum):
    """Per-link verdict of one watchdog check."""

    HEALTHY = "healthy"
    STALLED = "stalled"
    WEDGED = "wedged"
    DEAD_PEER = "dead_peer"
    PEER_CRASHED = "peer_crashed"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class WatchdogPolicy:
    """Detection thresholds; the poll budget of the acceptance tests.

    Worst-case detection latency for a stalled consumer is
    ``poll_interval * (stall_polls + 1)`` (one interval to snapshot a
    baseline, ``stall_polls`` frozen deltas), and analogously with
    ``heartbeat_polls`` for a wedged guest.
    """

    poll_interval: float = 0.005   # seconds between checks
    stall_polls: int = 3           # frozen-cursor checks before STALLED
    heartbeat_polls: int = 6       # frozen-heartbeat checks before WEDGED


DEFAULT_WATCHDOG_POLICY = WatchdogPolicy()

#: Simulated CPU per checked link.
CHECK_COST = 1.5e-6


@dataclass
class LinkHealth:
    """The watchdog's per-link memory between checks."""

    key: int                       # src ofport
    zone_name: Optional[str]       # invalidates the track on re-provision
    generation: int                # ring generation pinned at track start
    signed_on: bool = False        # consumer ever heartbeat the channel
    port_signed_on: bool = False   # guest ever heartbeat the port
    last_dequeued: Optional[int] = None
    last_port_epoch: Optional[int] = None
    stall_streak: int = 0
    frozen_streak: int = 0
    checks: int = 0
    verdict: HealthState = HealthState.HEALTHY


class BypassWatchdog:
    """Periodically classifies every ACTIVE link; triggers fallback.

    Owned by the :class:`~repro.core.bypass.BypassManager`; reachable
    from the CLI via ``appctl bypass/health``.
    """

    def __init__(self, manager: "BypassManager",
                 policy: WatchdogPolicy = DEFAULT_WATCHDOG_POLICY) -> None:
        self.manager = manager
        self.policy = policy
        self.health: Dict[int, LinkHealth] = {}
        self.checks_run = 0
        self.state_entries_swept = 0
        self.loop: Optional[PollLoop] = None

    def start(self, env: Environment) -> "BypassWatchdog":
        """Run on a fixed-period poll loop."""
        if self.loop is not None:
            raise RuntimeError("bypass watchdog already started")
        self.loop = PollLoop(
            env, "bypass.watchdog", self._iteration,
            period=self.policy.poll_interval,
        ).start()
        return self

    def _iteration(self) -> float:
        checked = self.check_once()
        return CHECK_COST * checked if checked else 0.0

    def check_once(self) -> int:
        """One pass over every ACTIVE link; returns how many it checked.

        Unhealthy links are handed to ``manager.degrade_link`` inside
        the pass, so by the time this returns the fallback has already
        happened (the degrade path is synchronous).
        """
        from repro.core.bypass import LinkState

        manager = self.manager
        self.checks_run += 1
        active = {
            key: bypass_link
            for key, bypass_link in manager.active_links.items()
            if bypass_link.state == LinkState.ACTIVE
        }
        for key in [k for k in self.health if k not in active]:
            del self.health[key]
        checked = 0
        for key, bypass_link in active.items():
            track = self.health.get(key)
            if track is None or track.zone_name != bypass_link.zone_name:
                track = LinkHealth(
                    key=key,
                    zone_name=bypass_link.zone_name,
                    generation=(bypass_link.ring.generation
                                if bypass_link.ring is not None else 0),
                )
                self.health[key] = track
            if bypass_link.xfsm is not None:
                # Idle state-table entries on a bypass channel have no
                # datapath lookups to lazily evict them; the watchdog's
                # periodic pass is their garbage collector.
                self.state_entries_swept += \
                    bypass_link.xfsm.program.table.sweep(manager.env.now)
            verdict = self._check_link(bypass_link, track)
            track.verdict = verdict
            track.checks += 1
            checked += 1
            if verdict != HealthState.HEALTHY:
                manager.degrade_link(bypass_link, verdict)
                del self.health[key]
        return checked

    def _check_link(self, bypass_link: "BypassLink",
                    track: LinkHealth) -> HealthState:
        manager = self.manager
        policy = self.policy
        if not (manager.agent.is_port_alive(bypass_link.src_port_name)
                and manager.agent.is_port_alive(bypass_link.dst_port_name)):
            if (manager.agent.is_port_crashed(bypass_link.src_port_name)
                    or manager.agent.is_port_crashed(
                        bypass_link.dst_port_name)):
                return HealthState.PEER_CRASHED
            return HealthState.DEAD_PEER
        if (track.port_signed_on and not manager.heartbeat_zone_present(
                bypass_link.dst_port_name)):
            # The consumer heartbeat zone is *gone*, not merely stale —
            # a crashed VM's force-unplug (or host-side port cleanup)
            # dropped it.  Before this check the classifier would read
            # a None epoch, call the link HEALTHY, and later paths that
            # blindly looked the zone up would raise out of the
            # watchdog (the crash-window race).
            return HealthState.PEER_CRASHED
        ring = bypass_link.ring
        if ring is not None:
            try:
                ring.validate(expected_generation=track.generation)
            except RingIntegrityError:
                return HealthState.CORRUPT
        stats = bypass_link.stats
        occupancy = len(ring) if ring is not None else 0
        if stats is not None and stats.rx_integrity_errors > 0:
            # The consumer already pulled (and dropped) a smashed slot;
            # the ring is structurally clean again but the memory rotted.
            return HealthState.CORRUPT
        if stats is not None:
            if stats.rx_epoch > 0:
                track.signed_on = True
            if track.last_dequeued is not None:
                # A frozen cursor only means something once a baseline
                # exists and the consumer has proven it polls at all.
                if (track.signed_on and occupancy > 0
                        and stats.rx_dequeued == track.last_dequeued):
                    track.stall_streak += 1
                else:
                    track.stall_streak = 0
            track.last_dequeued = stats.rx_dequeued
            if track.stall_streak >= policy.stall_polls:
                return HealthState.STALLED
        port_epoch = manager.consumer_heartbeat_epoch(
            bypass_link.dst_port_name
        )
        if port_epoch is not None:
            if port_epoch > 0:
                track.port_signed_on = True
            if track.last_port_epoch is not None:
                if (track.port_signed_on
                        and port_epoch == track.last_port_epoch):
                    track.frozen_streak += 1
                else:
                    track.frozen_streak = 0
            track.last_port_epoch = port_epoch
            if (track.frozen_streak >= policy.heartbeat_polls
                    and manager.normal_backlog(
                        bypass_link.dst_port_name) > 0):
                # Heartbeat frozen *and* undrained switch-path packets:
                # the guest is hung, not merely idle.
                return HealthState.WEDGED
        return HealthState.HEALTHY

    def __repr__(self) -> str:
        return "<BypassWatchdog links=%d checks=%d>" % (
            len(self.health), self.checks_run
        )
