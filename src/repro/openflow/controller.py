"""The OpenFlow controller side: connection channel + a simple controller.

The channel passes every message through the binary codec by default, so
an end-to-end test that drives the controller is also a wire-format
conformance test — an unmodified controller speaking OF1.3 bytes cannot
tell our modified vSwitch from a vanilla one (the paper's transparency
property).
"""

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.faults import CONTROLLER_CONN, FaultMode
from repro.openflow import wire
from repro.openflow.actions import Action
from repro.openflow.match import Match
from repro.openflow.messages import (
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatsReply,
    PortStatsRequest,
)


class ControllerConnection:
    """A bidirectional OpenFlow channel (controller <-> switch).

    With ``encode_on_wire`` (default) every message is serialized to
    OF1.3 bytes and re-parsed on delivery; disable only in micro-
    benchmarks where codec cost would dominate.

    Both direction queues are bounded (``max_pending``): a dead peer
    cannot leak memory — the newest message is dropped and counted
    instead.  The channel also models connectivity: ``disconnect()``
    (or an injected ``controller.conn`` ERROR/CRASH fault) marks it
    down, sends while down are dropped and counted, and ``reconnect()``
    restores it — but only while ``peer_available`` is True, which is
    how outage scenarios keep the controller unreachable for a window.
    """

    #: Bound of each direction queue, in messages.
    max_pending = 4096

    def __init__(self, encode_on_wire: bool = True, faults=None) -> None:
        self.encode_on_wire = encode_on_wire
        self.faults = faults
        self.connected = True
        self.peer_available = True
        self._to_switch: Deque[OpenFlowMessage] = deque()
        self._to_controller: Deque[OpenFlowMessage] = deque()
        self.bytes_to_switch = 0
        self.bytes_to_controller = 0
        self.dropped_to_switch = 0
        self.dropped_to_controller = 0
        self.dropped_disconnected = 0
        self.faults_dropped = 0
        self.disconnects = 0
        self.reconnects = 0

    def _transfer(self, message: OpenFlowMessage) -> "tuple[OpenFlowMessage, int]":
        if not self.encode_on_wire:
            return message, 0
        frame = wire.encode(message)
        return wire.decode(frame), len(frame)

    # -- connectivity ------------------------------------------------------

    def disconnect(self) -> None:
        """Drop the channel (controller crash / TCP reset)."""
        if self.connected:
            self.connected = False
            self.disconnects += 1

    def reconnect(self) -> bool:
        """Attempt to re-establish; fails while the peer is unreachable."""
        if self.connected:
            return True
        if not self.peer_available:
            return False
        self.connected = True
        self.reconnects += 1
        return True

    def _gate(self) -> bool:
        """Common send-side gating: connectivity + injected faults.
        Returns True if the message may proceed."""
        if not self.connected:
            self.dropped_disconnected += 1
            return False
        if self.faults is not None and self.faults.has_specs(
                CONTROLLER_CONN):
            action = self.faults.fire(CONTROLLER_CONN)
            if action is not None:
                if action.mode in (FaultMode.ERROR, FaultMode.CRASH):
                    self.disconnect()
                self.faults_dropped += 1
                return False
        return True

    # -- controller side ---------------------------------------------------

    def controller_send(self, message: OpenFlowMessage) -> None:
        if not self._gate():
            return
        delivered, size = self._transfer(message)
        self.bytes_to_switch += size
        if len(self._to_switch) >= self.max_pending:
            self.dropped_to_switch += 1
            return
        self._to_switch.append(delivered)

    def controller_recv(self) -> Optional[OpenFlowMessage]:
        if not self._to_controller:
            return None
        return self._to_controller.popleft()

    # -- switch side ----------------------------------------------------------

    def switch_send(self, message: OpenFlowMessage) -> None:
        if not self._gate():
            return
        delivered, size = self._transfer(message)
        self.bytes_to_controller += size
        if len(self._to_controller) >= self.max_pending:
            self.dropped_to_controller += 1
            return
        self._to_controller.append(delivered)

    def switch_recv(self) -> Optional[OpenFlowMessage]:
        if not self._to_switch:
            return None
        return self._to_switch.popleft()

    @property
    def pending_for_switch(self) -> int:
        return len(self._to_switch)

    @property
    def pending_for_controller(self) -> int:
        return len(self._to_controller)


class SimpleController:
    """A minimal controller: installs steering rules, gathers stats.

    It never learns about bypass channels — it speaks plain OpenFlow.
    Callbacks:

    * ``on_packet_in(message)`` — table misses / controller actions;
    * ``on_flow_removed(message)`` — expirations and deletions.
    """

    def __init__(self, connection: ControllerConnection) -> None:
        self.connection = connection
        self.features: Optional[FeaturesReply] = None
        self.flow_stats: List[FlowStatsReply] = []
        self.port_stats: List[PortStatsReply] = []
        self.packet_ins: List[PacketIn] = []
        self.flow_removed: List[FlowRemoved] = []
        self.errors: List[OpenFlowMessage] = []
        self.on_packet_in: Optional[Callable[[PacketIn], None]] = None
        self.on_flow_removed: Optional[Callable[[FlowRemoved], None]] = None
        self._pending_replies: Dict[int, str] = {}

    # -- handshake ------------------------------------------------------------

    def handshake(self) -> None:
        """Send HELLO + FEATURES_REQUEST (switch replies are polled)."""
        self.connection.controller_send(Hello())
        self.connection.controller_send(FeaturesRequest())

    # -- programming ------------------------------------------------------------

    def install_flow(
        self,
        match: Match,
        actions: Sequence[Action],
        priority: int = 0x8000,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        cookie: int = 0,
    ) -> FlowMod:
        """Send an OFPFC_ADD flowmod; returns the message for reference."""
        flowmod = FlowMod(
            command=FlowModCommand.ADD,
            match=match,
            actions=list(actions),
            priority=priority,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            cookie=cookie,
        )
        self.connection.controller_send(flowmod)
        return flowmod

    def delete_flow(self, match: Match, *, strict: bool = False,
                    priority: int = 0x8000,
                    out_port: Optional[int] = None) -> FlowMod:
        flowmod = FlowMod(
            command=(FlowModCommand.DELETE_STRICT if strict
                     else FlowModCommand.DELETE),
            match=match,
            priority=priority,
            out_port=out_port,
        )
        self.connection.controller_send(flowmod)
        return flowmod

    def modify_flow(self, match: Match, actions: Sequence[Action], *,
                    strict: bool = False,
                    priority: int = 0x8000) -> FlowMod:
        flowmod = FlowMod(
            command=(FlowModCommand.MODIFY_STRICT if strict
                     else FlowModCommand.MODIFY),
            match=match,
            actions=list(actions),
            priority=priority,
        )
        self.connection.controller_send(flowmod)
        return flowmod

    def packet_out(self, data: bytes, actions: Sequence[Action]) -> None:
        self.connection.controller_send(
            PacketOut(actions=list(actions), data=data)
        )

    def echo(self, data: bytes = b"ping") -> None:
        self.connection.controller_send(EchoRequest(data=data))

    # -- statistics ----------------------------------------------------------------

    def request_flow_stats(self, match: Optional[Match] = None) -> int:
        request = FlowStatsRequest(match=match or Match())
        self.connection.controller_send(request)
        return request.xid

    def request_port_stats(self, port_no: Optional[int] = None) -> int:
        request = PortStatsRequest(port_no=port_no)
        self.connection.controller_send(request)
        return request.xid

    # -- message pump -----------------------------------------------------------------

    def poll(self) -> int:
        """Drain replies/asynchronous messages; returns messages handled."""
        handled = 0
        while True:
            message = self.connection.controller_recv()
            if message is None:
                return handled
            handled += 1
            if isinstance(message, FeaturesReply):
                self.features = message
            elif isinstance(message, FlowStatsReply):
                self.flow_stats.append(message)
            elif isinstance(message, PortStatsReply):
                self.port_stats.append(message)
            elif isinstance(message, PacketIn):
                self.packet_ins.append(message)
                if self.on_packet_in is not None:
                    self.on_packet_in(message)
            elif isinstance(message, FlowRemoved):
                self.flow_removed.append(message)
                if self.on_flow_removed is not None:
                    self.on_flow_removed(message)
            elif type(message).__name__ == "ErrorMsg":
                self.errors.append(message)
            # Hello/EchoReply/BarrierReply need no bookkeeping.

    @property
    def latest_flow_stats(self) -> Optional[FlowStatsReply]:
        return self.flow_stats[-1] if self.flow_stats else None

    @property
    def latest_port_stats(self) -> Optional[PortStatsReply]:
        return self.port_stats[-1] if self.port_stats else None
