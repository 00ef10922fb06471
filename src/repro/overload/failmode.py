"""Controller fail-modes: what the switch does when the controller dies.

OVS bridges carry a ``fail_mode`` column with two settings, and this
module reproduces both over the simulated OpenFlow channel:

* ``standalone`` — after the connection drops, the switch acts as an
  ordinary L2 learning switch: table misses are handled locally, learned
  destinations get low-priority fallback flows (tagged with
  :data:`FALLBACK_COOKIE`), unknown destinations flood.  On reconnect the
  fallback flows are deleted *by cookie*, which invalidates exactly the
  EMC/SMC entries they created and nothing else.
* ``secure`` — the switch keeps forwarding on the flows it already has
  and refuses to improvise: new misses are buffered (bounded) for replay,
  and flow expiry is frozen so the controller's state survives the
  outage.  On reconnect, entry timers are shifted forward by the outage
  duration (direct field writes — no table events fire, so the EMC/SMC
  are untouched) and buffered packet-ins are replayed.

Reconnection uses exponential backoff and is observable through the
``controller.reconnect`` fault point, so fault sweeps can keep the
controller unreachable for a deterministic number of attempts.
"""

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.faults import CONTROLLER_RECONNECT, FaultPlan
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn, PacketInReason
from repro.openflow.table import FlowEntry
from repro.packet.headers import Ethernet
from repro.packet.mbuf import Mbuf
from repro.packet.packet import Packet

#: Cookie stamped on every fallback flow so recovery can delete exactly
#: the improvised state and nothing the controller installed.
FALLBACK_COOKIE = 0xFA11BACC


class FailMode(enum.Enum):
    STANDALONE = "standalone"
    SECURE = "secure"


@dataclass
class FailModePolicy:
    """Knobs for outage handling and recovery."""

    max_pending_packet_ins: int = 256
    backoff_base: float = 0.005
    backoff_max: float = 0.25

    def __post_init__(self) -> None:
        if self.max_pending_packet_ins < 0:
            raise ValueError("max_pending_packet_ins must be >= 0")
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ValueError("backoff window must satisfy 0 < base <= max")


#: Reconnect backoff grows by this factor per failed attempt.
BACKOFF_MULTIPLIER = 2.0
#: Fallback flows sit below anything a controller installs and never
#: idle out: recovery deletes them by cookie.
FALLBACK_PRIORITY = 1
FALLBACK_IDLE_TIMEOUT = 0.0


class StandaloneFallback:
    """The learning-switch brain used while the controller is away.

    A reactive L2 program running *inside* the switch: it learns
    source MACs, installs cookie-tagged low-priority flows for
    known destinations, and floods unknowns through
    ``datapath.inject`` — no controller round-trip involved.
    """

    def __init__(self, bridge, policy: FailModePolicy,
                 clock: Callable[[], float]) -> None:
        self.bridge = bridge
        self.policy = policy
        self.clock = clock
        self.mac_table: Dict[int, int] = {}
        self._installed: Dict[int, int] = {}  # dst mac value -> out port
        self.packets_forwarded = 0
        self.floods = 0
        self.hairpin_drops = 0
        self.non_ethernet_drops = 0
        self.flows_installed = 0

    def handle(self, mbuf: Mbuf, in_port: int) -> None:
        packet = mbuf.packet
        eth = packet.get(Ethernet) if isinstance(packet, Packet) else None
        if eth is None:
            self.non_ethernet_drops += 1
            mbuf.free()
            return
        self.mac_table[eth.src.value] = in_port
        out_port = self.mac_table.get(eth.dst.value)
        if (out_port is None or eth.dst.is_broadcast
                or eth.dst.is_multicast):
            self._flood(mbuf, in_port)
            return
        if out_port == in_port:
            self.hairpin_drops += 1
            mbuf.free()
            return
        self._ensure_flow(eth.dst.value, out_port)
        self.packets_forwarded += 1
        self.bridge.datapath.inject(mbuf, [OutputAction(out_port)])

    def _flood(self, mbuf: Mbuf, in_port: int) -> None:
        self.floods += 1
        actions = [OutputAction(port)
                   for port in sorted(self.bridge.datapath.ports)
                   if port != in_port]
        if actions:
            self.bridge.datapath.inject(mbuf, actions)
        else:
            mbuf.free()

    def _ensure_flow(self, dst_value: int, out_port: int) -> None:
        known = self._installed.get(dst_value)
        if known == out_port:
            return
        table = self.bridge.table
        if known is not None:  # station moved: retarget the flow
            table.delete(Match(eth_dst=dst_value), cookie=FALLBACK_COOKIE)
        table.add(FlowEntry(
            match=Match(eth_dst=dst_value),
            actions=[OutputAction(out_port)],
            priority=FALLBACK_PRIORITY,
            cookie=FALLBACK_COOKIE,
            idle_timeout=FALLBACK_IDLE_TIMEOUT,
            install_time=self.clock(),
        ))
        self._installed[dst_value] = out_port
        self.flows_installed += 1

    def remove_flows(self) -> int:
        """Delete every fallback flow (by cookie). The table change
        events this fires invalidate exactly the cached traversals the
        fallback created — controller flows and their EMC entries
        survive untouched."""
        removed = 0
        for table_id in sorted(self.bridge.tables):
            result = self.bridge.tables[table_id].delete(
                Match(), cookie=FALLBACK_COOKIE)
            removed += len(result.removed)
        self._installed.clear()
        return removed


class FailModeManager:
    """Owns the switch's reaction to controller connectivity.

    Sits between the datapath's upcall dispatch and the bridge: while
    the connection is up, upcalls pass straight through to
    ``bridge._upcall``; when it drops, they are routed per the
    configured fail mode.  ``tick(now)`` (called from the control loop)
    detects transitions and drives backoff reconnection.
    """

    def __init__(self, bridge, connection, mode: str = "standalone",
                 policy: Optional[FailModePolicy] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.bridge = bridge
        self.connection = connection
        self.mode = FailMode(mode)
        self.policy = policy if policy is not None else FailModePolicy()
        self.clock = clock if clock is not None else (lambda: 0.0)
        # Armed by assignment (NfvNode does): gates reconnect attempts.
        self.faults: Optional[FaultPlan] = None
        self.fallback = StandaloneFallback(bridge, self.policy, self.clock)
        self.state = "connected"
        self.outage_start = 0.0
        self._pending: Deque[Tuple[int, str, bytes]] = deque()
        self._backoff = self.policy.backoff_base
        self._next_attempt = 0.0
        # Counters.
        self.outages = 0
        self.reconnect_attempts = 0
        self.reconnect_failures = 0
        self.reconnects = 0
        self.packet_ins_buffered = 0
        self.packet_ins_replayed = 0
        self.packet_ins_shed = 0
        self.fallback_flows_removed = 0
        self.frozen_expiry_skips = 0
        self.timers_shifted = 0
        # Hooks.
        self.coverage: Optional[Callable[..., None]] = None
        self.on_event: List[Callable[[str, dict], None]] = []

    # -- introspection -------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.connection is not None and self.connection.connected

    @property
    def expiry_frozen(self) -> bool:
        """Secure mode freezes flow expiry for the outage duration."""
        return self.mode is FailMode.SECURE and self.state == "down"

    @property
    def pending_packet_ins(self) -> int:
        return len(self._pending)

    def set_mode(self, mode: str) -> None:
        self.mode = FailMode(mode)

    def _emit(self, name: str, **attrs) -> None:
        for listener in self.on_event:
            listener(name, attrs)

    def _cover(self, name: str) -> None:
        if self.coverage is not None:
            self.coverage(name)

    # -- upcall routing ------------------------------------------------

    def handle_upcall(self, mbuf: Mbuf, in_port: int, reason: str) -> None:
        if self.connected:
            self.bridge._upcall(mbuf, in_port, reason)
            return
        self._note_outage(self.clock())
        if self.mode is FailMode.STANDALONE:
            self.fallback.handle(mbuf, in_port)
            return
        # Secure: buffer (bounded) for replay after reconnect.
        if len(self._pending) >= self.policy.max_pending_packet_ins:
            self.packet_ins_shed += 1
            self._cover("failmode_packet_in_shed")
        else:
            packet = mbuf.packet
            data = (packet.pack() if isinstance(packet, Packet)
                    else bytes(packet or b""))
            self._pending.append((in_port, reason, data))
            self.packet_ins_buffered += 1
        mbuf.free()

    # -- outage / recovery ---------------------------------------------

    def _note_outage(self, now: float) -> None:
        if self.state == "down":
            return
        self.state = "down"
        self.outages += 1
        self.outage_start = now
        self._backoff = self.policy.backoff_base
        self._next_attempt = now + self._backoff
        self._cover("failmode_outage")
        self._emit("controller-outage", mode=self.mode.value)

    def tick(self, now: Optional[float] = None) -> None:
        """Detect connectivity transitions; attempt backoff reconnects."""
        if self.connection is None:
            return
        now = self.clock() if now is None else now
        if self.connection.connected:
            if self.state == "down":
                self._recover(now)
            return
        self._note_outage(now)
        if now + 1e-12 < self._next_attempt:
            return
        self.reconnect_attempts += 1
        blocked = False
        if self.faults is not None and self.faults.has_specs(
                CONTROLLER_RECONNECT):
            blocked = self.faults.fire(CONTROLLER_RECONNECT) is not None
        if not blocked and self.connection.reconnect():
            self._recover(now)
            return
        self.reconnect_failures += 1
        self._backoff = min(self._backoff * BACKOFF_MULTIPLIER,
                            self.policy.backoff_max)
        self._next_attempt = now + self._backoff

    def _recover(self, now: float) -> None:
        duration = now - self.outage_start
        self.state = "connected"
        self.reconnects += 1
        if self.mode is FailMode.STANDALONE:
            self.fallback_flows_removed += self.fallback.remove_flows()
        else:
            self._shift_timers(duration)
            self._replay()
        self._cover("failmode_recovered")
        self._emit("controller-recovered", mode=self.mode.value,
                   duration=duration)

    def _shift_timers(self, duration: float) -> None:
        """Advance flow timers past the frozen window.

        Direct field writes: no table listeners fire, so no EMC/SMC
        invalidation — the caches carry straight through recovery."""
        if duration <= 0:
            return
        for table_id in sorted(self.bridge.tables):
            for entry in self.bridge.tables[table_id].entries():
                entry.install_time += duration
                entry.last_used += duration
                self.timers_shifted += 1

    def _replay(self) -> None:
        while self._pending:
            in_port, reason, data = self._pending.popleft()
            self.connection.switch_send(PacketIn(
                in_port=in_port,
                reason=(PacketInReason.NO_MATCH if reason == "no_match"
                        else PacketInReason.ACTION),
                data=data,
            ))
            self.bridge.packet_ins_sent += 1
            self.packet_ins_replayed += 1

    def stats(self) -> Dict[str, float]:
        return {
            "mode": self.mode.value,
            "state": self.state,
            "outages": self.outages,
            "reconnect_attempts": self.reconnect_attempts,
            "reconnect_failures": self.reconnect_failures,
            "reconnects": self.reconnects,
            "pending_packet_ins": self.pending_packet_ins,
            "packet_ins_buffered": self.packet_ins_buffered,
            "packet_ins_replayed": self.packet_ins_replayed,
            "packet_ins_shed": self.packet_ins_shed,
            "fallback_packets": self.fallback.packets_forwarded,
            "fallback_floods": self.fallback.floods,
            "fallback_flows": self.fallback.flows_installed,
            "fallback_flows_removed": self.fallback_flows_removed,
            "frozen_expiry_skips": self.frozen_expiry_skips,
        }
