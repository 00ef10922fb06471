"""The bridge (ofproto layer): OpenFlow message handling and stats export.

The bridge owns the flow table and the datapath, speaks OpenFlow over a
:class:`~repro.openflow.controller.ControllerConnection`, and exports
flow/port statistics.  The paper-critical part is the **stats
augmentor** hook: when a p-2-p bypass carries traffic, the datapath's own
counters stop seeing it, so the bridge merges in the counters the guest
PMDs maintain in shared memory before answering a stats request — the
controller keeps seeing correct totals for a port it believes is
ordinary.
"""

from typing import List, Optional

from repro.openflow.actions import (
    GotoTableAction,
    SetFieldAction,
    goto_table_of,
    output_ports,
)
from repro.openflow.controller import ControllerConnection
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketInReason,
    PortMod,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
)
from repro.openflow.table import ExpiryReason, FlowEntry, FlowTable
from repro.packet.mbuf import Mbuf
from repro.packet.packet import Packet
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.vswitch.datapath import Datapath


class StatsAugmentor:
    """Interface for merging externally-maintained (bypass) counters.

    The default implementation contributes nothing; the transparency
    layer in :mod:`repro.core.transparency` supplies the real one.
    """

    def flow_extra(self, entry: FlowEntry) -> "tuple[int, int]":
        """Extra (packets, bytes) for a flow entry."""
        return 0, 0

    def port_extra(self, ofport: int) -> "tuple[int, int, int, int]":
        """Extra (rx_packets, rx_bytes, tx_packets, tx_bytes) for a port."""
        return 0, 0, 0, 0


class Bridge:
    """One OpenFlow bridge over one datapath."""

    def __init__(
        self,
        name: str = "br0",
        connection: Optional[ControllerConnection] = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        clock=None,
    ) -> None:
        self.name = name
        self.datapath_id = 1
        self.connection = connection
        self.costs = costs
        self.clock = clock or (lambda: 0.0)
        self.table = FlowTable()
        self.datapath = Datapath(
            self.table,
            costs=costs,
            clock=self.clock,
            upcall_handler=self._upcall,
        )
        # Pipeline tables (table 0 = self.table); later tables appear
        # lazily when a flowmod targets them.
        self.tables = self.datapath.tables
        self.max_tables = 8
        self.stats_augmentor: StatsAugmentor = StatsAugmentor()
        self.flowmods_processed = 0
        self.packet_ins_sent = 0
        # Fired with the OvsPort after a port-mod changed its admin
        # state; the highway subscribes (a down port loses its bypass).
        self.on_port_mod: List = []
        # Last externally-maintained packet total seen per flow id; used
        # to keep idle timeouts honest for bypassed rules (see
        # expire_flows).
        self._last_extra_packets: dict = {}

    # -- upcalls -------------------------------------------------------------

    def _upcall(self, mbuf: Mbuf, in_port: int, reason: str) -> None:
        """Datapath miss / controller action: emit PacketIn, free the mbuf."""
        if self.connection is not None:
            data = (
                mbuf.packet.pack() if isinstance(mbuf.packet, Packet)
                else bytes(mbuf.packet or b"")
            )
            self.connection.switch_send(PacketIn(
                in_port=in_port,
                reason=(PacketInReason.NO_MATCH if reason == "no_match"
                        else PacketInReason.ACTION),
                data=data,
            ))
            self.packet_ins_sent += 1
        mbuf.free()

    # -- message pump -----------------------------------------------------------

    def pump(self) -> int:
        """Handle all queued controller messages; returns count handled."""
        if self.connection is None:
            return 0
        handled = 0
        while True:
            message = self.connection.switch_recv()
            if message is None:
                return handled
            self.handle_message(message)
            handled += 1

    def handle_message(self, message: OpenFlowMessage) -> None:
        if isinstance(message, Hello):
            self._send(Hello(xid=message.xid))
        elif isinstance(message, EchoRequest):
            self._send(EchoReply(xid=message.xid, data=message.data))
        elif isinstance(message, FeaturesRequest):
            self._send(FeaturesReply(
                xid=message.xid,
                datapath_id=self.datapath_id,
                n_buffers=0,
                n_tables=self.max_tables,
            ))
        elif isinstance(message, FlowMod):
            self._handle_flowmod(message)
        elif type(message).__name__ == "PacketOut":
            self._handle_packet_out(message)
        elif isinstance(message, FlowStatsRequest):
            self._handle_flow_stats(message)
        elif isinstance(message, PortStatsRequest):
            self._handle_port_stats(message)
        elif isinstance(message, PortMod):
            self._handle_port_mod(message)
        elif isinstance(message, BarrierRequest):
            self._send(BarrierReply(xid=message.xid))
        # Unknown messages are silently ignored (OVS logs and continues).

    def _send(self, message: OpenFlowMessage) -> None:
        if self.connection is not None:
            self.connection.switch_send(message)

    # -- flowmods -------------------------------------------------------------------

    def _table_for(self, table_id: int) -> FlowTable:
        if not 0 <= table_id < self.max_tables:
            raise ValueError("table id %d out of range" % table_id)
        table = self.tables.get(table_id)
        if table is None:
            table = FlowTable(table_id=table_id)
            self.datapath.attach_table(table_id, table)
        return table

    @staticmethod
    def _validate_actions(flowmod: FlowMod) -> Optional[str]:
        goto = goto_table_of(flowmod.actions)
        if goto is None:
            return None
        if goto.table_id <= flowmod.table_id:
            return "goto_table must target a later table"
        if any(isinstance(a, SetFieldAction) for a in flowmod.actions):
            return "set_field cannot be combined with goto_table"
        if not isinstance(flowmod.actions[-1], GotoTableAction):
            return "goto_table must be the last instruction"
        return None

    def _handle_flowmod(self, flowmod: FlowMod) -> None:
        self.flowmods_processed += 1
        now = self.clock()
        command = flowmod.command
        try:
            table = self._table_for(flowmod.table_id)
        except ValueError:
            self._send(ErrorMsg(xid=flowmod.xid, error_type=5, code=2))
            return
        problem = self._validate_actions(flowmod)
        if problem is not None and command in (
            FlowModCommand.ADD, FlowModCommand.MODIFY,
            FlowModCommand.MODIFY_STRICT,
        ):
            self._send(ErrorMsg(xid=flowmod.xid, error_type=5, code=3))
            return
        if command == FlowModCommand.ADD:
            entry = FlowEntry(
                match=flowmod.match,
                actions=flowmod.actions,
                priority=flowmod.priority,
                cookie=flowmod.cookie,
                idle_timeout=float(flowmod.idle_timeout),
                hard_timeout=float(flowmod.hard_timeout),
                install_time=now,
            )
            try:
                table.add(entry, check_overlap=flowmod.check_overlap)
            except ValueError:
                self._send(ErrorMsg(
                    xid=flowmod.xid, error_type=5, code=1,  # OFPFMFC_OVERLAP
                ))
        elif command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            table.modify(
                flowmod.match,
                flowmod.actions,
                strict=(command == FlowModCommand.MODIFY_STRICT),
                priority=flowmod.priority,
            )
        elif command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            result = table.delete(
                flowmod.match,
                strict=(command == FlowModCommand.DELETE_STRICT),
                priority=flowmod.priority,
                out_port=flowmod.out_port,
            )
            for entry in result.removed:
                self._send_flow_removed(entry, FlowRemovedReason.DELETE, now)

    def _send_flow_removed(self, entry: FlowEntry,
                           reason: FlowRemovedReason, now: float) -> None:
        packets, byte_count = self._merged_flow_counters(entry)
        self._send(FlowRemoved(
            match=entry.match,
            priority=entry.priority,
            cookie=entry.cookie,
            reason=reason,
            duration_sec=now - entry.install_time,
            packet_count=packets,
            byte_count=byte_count,
        ))

    # -- port administration -----------------------------------------------------------

    def _handle_port_mod(self, message: PortMod) -> None:
        port = self.datapath.ports.get(message.port_no)
        if port is None:
            self._send(ErrorMsg(xid=message.xid, error_type=7, code=0))
            return
        wanted_up = not message.down
        if port.up == wanted_up:
            return
        port.up = wanted_up
        for listener in list(self.on_port_mod):
            listener(port)

    # -- packet-out --------------------------------------------------------------------

    def _handle_packet_out(self, message) -> None:
        """Inject a controller packet through the normal datapath path.

        This is the message that must keep working while a bypass is
        active: it lands on the port's *normal* channel.
        """
        mbuf = Mbuf()
        mbuf.packet = Packet.unpack(message.data) if message.data else None
        mbuf.wire_length = len(message.data)
        self.datapath.inject(mbuf, message.actions)

    # -- statistics ----------------------------------------------------------------------

    def _merged_flow_counters(self, entry: FlowEntry) -> "tuple[int, int]":
        extra_packets, extra_bytes = self.stats_augmentor.flow_extra(entry)
        return (entry.packet_count + extra_packets,
                entry.byte_count + extra_bytes)

    def _handle_flow_stats(self, request: FlowStatsRequest) -> None:
        now = self.clock()
        stats: List[FlowStatsEntry] = []
        all_entries = [
            entry
            for table_id in sorted(self.tables)
            for entry in self.tables[table_id].entries()
        ]
        for entry in all_entries:
            if not request.match.covers(entry.match):
                continue
            if request.out_port is not None and request.out_port not in \
                    output_ports(entry.actions):
                continue
            packets, byte_count = self._merged_flow_counters(entry)
            stats.append(FlowStatsEntry(
                match=entry.match,
                priority=entry.priority,
                cookie=entry.cookie,
                packet_count=packets,
                byte_count=byte_count,
                duration_sec=now - entry.install_time,
                actions=list(entry.actions),
            ))
        self._send(FlowStatsReply(xid=request.xid, stats=stats))

    def _handle_port_stats(self, request: PortStatsRequest) -> None:
        stats: List[PortStatsEntry] = []
        for ofport in sorted(self.datapath.ports):
            if request.port_no is not None and ofport != request.port_no:
                continue
            port = self.datapath.ports[ofport]
            rx_p, rx_b, tx_p, tx_b = self.stats_augmentor.port_extra(ofport)
            stats.append(PortStatsEntry(
                port_no=ofport,
                rx_packets=port.rx_packets + rx_p,
                rx_bytes=port.rx_bytes + rx_b,
                tx_packets=port.tx_packets + tx_p,
                tx_bytes=port.tx_bytes + tx_b,
                tx_dropped=port.tx_dropped,
            ))
        self._send(PortStatsReply(xid=request.xid, stats=stats))

    # -- expiry --------------------------------------------------------------------------

    def expire_flows(self, now: Optional[float] = None) -> int:
        """Time out idle/hard-expired flows; returns count removed.

        Idle timeouts need special care with the highway: a rule whose
        traffic rides a bypass never bumps its datapath counters, so the
        vSwitch would wrongly consider it idle and expire it — killing
        the very link that carries the traffic.  Before expiring, the
        bridge therefore refreshes ``last_used`` for any rule whose
        shared-memory (bypass) counters advanced since the last check —
        the same lazily-read memory the paper uses for stats replies.
        """
        now = self.clock() if now is None else now
        total_expired = 0
        for table_id in sorted(self.tables):
            table = self.tables[table_id]
            for entry in table.entries():
                if not entry.idle_timeout:
                    continue
                extra_packets, _bytes = self.stats_augmentor.flow_extra(
                    entry
                )
                if extra_packets != self._last_extra_packets.get(
                    entry.flow_id, 0
                ):
                    self._last_extra_packets[entry.flow_id] = extra_packets
                    entry.last_used = now
            expired = table.expire(now)
            for entry, reason in expired:
                self._send_flow_removed(
                    entry,
                    (FlowRemovedReason.IDLE_TIMEOUT
                     if reason == ExpiryReason.IDLE
                     else FlowRemovedReason.HARD_TIMEOUT),
                    now,
                )
            total_expired += len(expired)
        return total_expired
