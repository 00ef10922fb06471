"""OpenFlow 1.3 binary encoding for the message subset.

Transparency is one of the paper's headline properties: an unmodified
controller must be able to talk to the modified switch.  Encoding
messages to real OpenFlow 1.3 bytes lets the test suite assert
transparency at the wire level — a stats reply for a bypassed port is
byte-for-byte a normal ``OFPT_MULTIPART_REPLY``.

Layout follows the OF1.3 spec for the implemented subset: the fixed
8-byte header, OXM TLV matches, apply-actions instructions, and the
multipart (stats) framing.
"""

import struct
from typing import List, Tuple

from repro.openflow.actions import (
    Action,
    GotoTableAction,
    OutputAction,
    SetFieldAction,
    XfsmAction,
    goto_table_of,
)
from repro.openflow.match import Match
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
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortMod,
    PortStatsRequest,
)

OFP_VERSION = 0x04
OFP_HEADER = struct.Struct("!BBHI")

# Message types (OF1.3 §A.1).
OFPT_HELLO = 0
OFPT_ERROR = 1
OFPT_ECHO_REQUEST = 2
OFPT_ECHO_REPLY = 3
OFPT_FEATURES_REQUEST = 5
OFPT_FEATURES_REPLY = 6
OFPT_PACKET_IN = 10
OFPT_FLOW_REMOVED = 11
OFPT_PACKET_OUT = 13
OFPT_FLOW_MOD = 14
OFPT_PORT_MOD = 16
OFPPC_PORT_DOWN = 1 << 0
OFPT_MULTIPART_REQUEST = 18
OFPT_MULTIPART_REPLY = 19
OFPT_BARRIER_REQUEST = 20
OFPT_BARRIER_REPLY = 21

OFPMP_FLOW = 1
OFPMP_PORT_STATS = 4

OFPP_ANY = 0xFFFFFFFF

# OXM: class 0x8000 (OPENFLOW_BASIC), field ids from OF1.3 §7.2.3.7.
OXM_CLASS = 0x8000
_OXM_BY_NAME = {
    "in_port": (0, 4),
    "eth_dst": (3, 6),
    "eth_src": (4, 6),
    "eth_type": (5, 2),
    "vlan_vid": (6, 2),
    "ip_tos": (8, 1),   # encoded as IP_DSCP
    "ip_proto": (10, 1),
    "ip_src": (11, 4),
    "ip_dst": (12, 4),
}
_L4_OXM = {  # (proto -> (src_field_id, dst_field_id))
    6: (13, 14),   # TCP_SRC / TCP_DST
    17: (15, 16),  # UDP_SRC / UDP_DST
}
_NAME_BY_OXM = {v[0]: (k, v[1]) for k, v in _OXM_BY_NAME.items()}
_NAME_BY_OXM[13] = ("l4_src", 2)
_NAME_BY_OXM[14] = ("l4_dst", 2)
_NAME_BY_OXM[15] = ("l4_src", 2)
_NAME_BY_OXM[16] = ("l4_dst", 2)


class WireError(ValueError):
    """Raised when bytes cannot be decoded as a supported message."""


def _pad_to8(length: int) -> int:
    return (length + 7) // 8 * 8


# ---------------------------------------------------------------------------
# OXM match
# ---------------------------------------------------------------------------

def encode_match(match: Match) -> bytes:
    """Encode an OXM match (ofp_match: type=1/OXM, length, fields, pad)."""
    fields = match.fields
    proto = fields.get("ip_proto", (None, None))[0]
    body = b""
    for name, (value, mask) in sorted(fields.items()):
        if name in ("l4_src", "l4_dst"):
            pair = _L4_OXM.get(proto, (13, 14))
            field_id = pair[0] if name == "l4_src" else pair[1]
            size = 2
        else:
            field_id, size = _OXM_BY_NAME[name]
        full_mask = (1 << (size * 8)) - 1
        has_mask = mask != full_mask and name not in ("vlan_vid",)
        header = (
            (OXM_CLASS << 16)
            | (field_id << 9)
            | (0x100 if has_mask else 0)
            | (size * 2 if has_mask else size)
        )
        body += struct.pack("!I", header) + value.to_bytes(size, "big")
        if has_mask:
            body += mask.to_bytes(size, "big")
    raw_length = 4 + len(body)
    padded = _pad_to8(raw_length)
    return (
        struct.pack("!HH", 1, raw_length)
        + body
        + b"\x00" * (padded - raw_length)
    )


def decode_match(data: bytes) -> Tuple[Match, int]:
    """Decode an OXM match; returns (match, bytes consumed incl. padding)."""
    if len(data) < 4:
        raise WireError("truncated ofp_match")
    match_type, raw_length = struct.unpack("!HH", data[:4])
    if match_type != 1:
        raise WireError("unsupported match type %d" % match_type)
    if len(data) < raw_length:
        raise WireError("truncated ofp_match body")
    offset = 4
    constraints = {}
    while offset < raw_length:
        (header,) = struct.unpack("!I", data[offset:offset + 4])
        offset += 4
        oxm_class = header >> 16
        field_id = (header >> 9) & 0x7F
        has_mask = bool(header & 0x100)
        payload_len = header & 0xFF
        if oxm_class != OXM_CLASS:
            raise WireError("unsupported OXM class %#x" % oxm_class)
        entry = _NAME_BY_OXM.get(field_id)
        if entry is None:
            raise WireError("unsupported OXM field %d" % field_id)
        name, size = entry
        if has_mask:
            if payload_len != size * 2:
                raise WireError("bad masked OXM length for %s" % name)
            value = int.from_bytes(data[offset:offset + size], "big")
            mask = int.from_bytes(data[offset + size:offset + 2 * size],
                                  "big")
            constraints[name] = (value, mask)
            offset += size * 2
        else:
            if payload_len != size:
                raise WireError("bad OXM length for %s" % name)
            value = int.from_bytes(data[offset:offset + size], "big")
            constraints[name] = value
            offset += size
    return Match(**constraints), _pad_to8(raw_length)


# ---------------------------------------------------------------------------
# Actions / instructions
# ---------------------------------------------------------------------------

OFPAT_OUTPUT = 0
OFPAT_SET_FIELD = 25
OFPAT_EXPERIMENTER = 0xFFFF
OFPIT_GOTO_TABLE = 1
OFPIT_APPLY_ACTIONS = 4

# Experimenter id used for the XFSM delegation action (the stateful
# tier's controller-visible encoding, OpenState-style).
XFSM_EXPERIMENTER = 0x4F537461  # "OSta"


def encode_actions(actions) -> bytes:
    body = b""
    for action in actions:
        if isinstance(action, GotoTableAction):
            continue  # encoded as an instruction, not an action
        if isinstance(action, OutputAction):
            body += struct.pack(
                "!HHIH6x", OFPAT_OUTPUT, 16, action.port, 0xFFFF
            )
        elif isinstance(action, SetFieldAction):
            field_id, size = _OXM_BY_NAME.get(
                action.field, (13 if action.field == "l4_src" else 14, 2)
            )
            oxm = struct.pack(
                "!I", (OXM_CLASS << 16) | (field_id << 9) | size
            ) + action.value.to_bytes(size, "big")
            total = _pad_to8(4 + len(oxm))
            body += (
                struct.pack("!HH", OFPAT_SET_FIELD, total)
                + oxm
                + b"\x00" * (total - 4 - len(oxm))
            )
        elif isinstance(action, XfsmAction):
            name = action.program.encode("utf-8")
            if len(name) > 255:
                raise WireError("XFSM program name too long")
            total = _pad_to8(10 + len(name))
            body += (
                struct.pack("!HHIBB", OFPAT_EXPERIMENTER, total,
                            XFSM_EXPERIMENTER,
                            1 if action.from_inside else 0, len(name))
                + name + b"\x00" * (total - 10 - len(name))
            )
        else:
            raise WireError("cannot encode action %r" % action)
    return body


def decode_actions(data: bytes) -> List[Action]:
    actions: List[Action] = []
    offset = 0
    while offset < len(data):
        action_type, length = struct.unpack("!HH", data[offset:offset + 4])
        if length < 8 or offset + length > len(data):
            raise WireError("bad action length")
        if action_type == OFPAT_OUTPUT:
            (port,) = struct.unpack("!I", data[offset + 4:offset + 8])
            actions.append(OutputAction(port))
        elif action_type == OFPAT_SET_FIELD:
            (header,) = struct.unpack("!I", data[offset + 4:offset + 8])
            field_id = (header >> 9) & 0x7F
            size = header & 0xFF
            entry = _NAME_BY_OXM.get(field_id)
            if entry is None:
                raise WireError("unsupported set-field OXM %d" % field_id)
            value = int.from_bytes(
                data[offset + 8:offset + 8 + size], "big"
            )
            actions.append(SetFieldAction(entry[0], value))
        elif action_type == OFPAT_EXPERIMENTER:
            experimenter, from_inside, name_len = struct.unpack(
                "!IBB", data[offset + 4:offset + 10]
            )
            if experimenter != XFSM_EXPERIMENTER:
                raise WireError(
                    "unsupported experimenter %#x" % experimenter
                )
            name = data[offset + 10:offset + 10 + name_len].decode("utf-8")
            actions.append(XfsmAction(name, from_inside=bool(from_inside)))
        else:
            raise WireError("unsupported action type %d" % action_type)
        offset += length
    return actions


def _encode_instructions(actions) -> bytes:
    if not actions:
        return b""
    blob = b""
    plain = [a for a in actions
             if type(a).__name__ != "GotoTableAction"]
    if plain:
        body = encode_actions(plain)
        blob += struct.pack("!HH4x", OFPIT_APPLY_ACTIONS,
                            8 + len(body)) + body
    goto = goto_table_of(actions)
    if goto is not None:
        blob += struct.pack("!HHB3x", OFPIT_GOTO_TABLE, 8, goto.table_id)
    return blob


def _decode_instructions(data: bytes) -> List[Action]:
    actions: List[Action] = []
    goto: List[Action] = []
    offset = 0
    while offset < len(data):
        instr_type, length = struct.unpack("!HH", data[offset:offset + 4])
        if length < 8 or offset + length > len(data):
            raise WireError("bad instruction length")
        if instr_type == OFPIT_APPLY_ACTIONS:
            actions.extend(decode_actions(data[offset + 8:offset + length]))
        elif instr_type == OFPIT_GOTO_TABLE:
            (table_id,) = struct.unpack("!B", data[offset + 4:offset + 5])
            goto = [GotoTableAction(table_id)]
        offset += length
    return actions + goto


# ---------------------------------------------------------------------------
# Top-level encode
# ---------------------------------------------------------------------------

def _frame(msg_type: int, xid: int, body: bytes) -> bytes:
    return OFP_HEADER.pack(OFP_VERSION, msg_type, 8 + len(body), xid) + body


def encode(message: OpenFlowMessage) -> bytes:
    """Serialize ``message`` to OpenFlow 1.3 bytes."""
    if isinstance(message, Hello):
        return _frame(OFPT_HELLO, message.xid, b"")
    if isinstance(message, EchoRequest):
        return _frame(OFPT_ECHO_REQUEST, message.xid, message.data)
    if isinstance(message, EchoReply):
        return _frame(OFPT_ECHO_REPLY, message.xid, message.data)
    if isinstance(message, FeaturesRequest):
        return _frame(OFPT_FEATURES_REQUEST, message.xid, b"")
    if isinstance(message, FeaturesReply):
        body = struct.pack(
            "!QIBB2xII",
            message.datapath_id,
            message.n_buffers,
            message.n_tables,
            0,
            message.capabilities,
            0,
        )
        return _frame(OFPT_FEATURES_REPLY, message.xid, body)
    if isinstance(message, FlowMod):
        body = struct.pack(
            "!QQBBHHHIIIH2x",
            message.cookie,
            0,  # cookie mask
            message.table_id,
            int(message.command),
            int(message.idle_timeout),
            int(message.hard_timeout),
            message.priority,
            0xFFFFFFFF,  # buffer id: none
            message.out_port if message.out_port is not None else OFPP_ANY,
            OFPP_ANY,  # out group
            0x0002 if message.check_overlap else 0,  # flags
        )
        body += encode_match(message.match)
        body += _encode_instructions(message.actions)
        return _frame(OFPT_FLOW_MOD, message.xid, body)
    if isinstance(message, FlowRemoved):
        duration_sec = int(message.duration_sec)
        duration_nsec = int((message.duration_sec - duration_sec) * 1e9)
        body = struct.pack(
            "!QHBBIIHHQQ",
            message.cookie,
            message.priority,
            int(message.reason),
            0,
            duration_sec,
            duration_nsec,
            0,
            0,
            message.packet_count,
            message.byte_count,
        )
        body += encode_match(message.match)
        return _frame(OFPT_FLOW_REMOVED, message.xid, body)
    if isinstance(message, PacketIn):
        # buffer_id, total_len, reason, table_id, cookie, match, pad, data
        body = struct.pack(
            "!IHBBQ",
            0xFFFFFFFF,
            len(message.data),
            int(message.reason),
            0,
            0,
        )
        body += encode_match(Match(in_port=message.in_port))
        body += b"\x00\x00" + message.data
        return _frame(OFPT_PACKET_IN, message.xid, body)
    if isinstance(message, PacketOut):
        actions = encode_actions(message.actions)
        body = struct.pack(
            "!IIH6x", 0xFFFFFFFF, message.in_port, len(actions)
        )
        body += actions + message.data
        return _frame(OFPT_PACKET_OUT, message.xid, body)
    if isinstance(message, FlowStatsRequest):
        inner = struct.pack(
            "!B3xII4xQQ",
            0,
            OFPP_ANY if message.out_port is None else message.out_port,
            OFPP_ANY,
            0,
            0,
        ) + encode_match(message.match)
        body = struct.pack("!HH4x", OFPMP_FLOW, 0) + inner
        return _frame(OFPT_MULTIPART_REQUEST, message.xid, body)
    if isinstance(message, FlowStatsReply):
        inner = b""
        for stat in message.stats:
            duration_sec = int(stat.duration_sec)
            duration_nsec = int((stat.duration_sec - duration_sec) * 1e9)
            match_blob = encode_match(stat.match)
            instr_blob = _encode_instructions(stat.actions)
            length = 48 + len(match_blob) + len(instr_blob)
            inner += struct.pack(
                "!HBxIIHHHH4xQQQ",
                length,
                0,
                duration_sec,
                duration_nsec,
                stat.priority,
                0,
                0,
                0,
                stat.cookie,
                stat.packet_count,
                stat.byte_count,
            ) + match_blob + instr_blob
        body = struct.pack("!HH4x", OFPMP_FLOW, 0) + inner
        return _frame(OFPT_MULTIPART_REPLY, message.xid, body)
    if isinstance(message, PortStatsRequest):
        port = OFPP_ANY if message.port_no is None else message.port_no
        body = struct.pack("!HH4x", OFPMP_PORT_STATS, 0)
        body += struct.pack("!I4x", port)
        return _frame(OFPT_MULTIPART_REQUEST, message.xid, body)
    if isinstance(message, PortStatsReply):
        inner = b""
        for stat in message.stats:
            inner += struct.pack(
                "!I4xQQQQQQQQQQQQII",
                stat.port_no,
                stat.rx_packets,
                stat.tx_packets,
                stat.rx_bytes,
                stat.tx_bytes,
                stat.rx_dropped,
                stat.tx_dropped,
                0, 0, 0, 0, 0, 0,
                0, 0,
            )
        body = struct.pack("!HH4x", OFPMP_PORT_STATS, 0) + inner
        return _frame(OFPT_MULTIPART_REPLY, message.xid, body)
    if isinstance(message, PortMod):
        config = OFPPC_PORT_DOWN if message.down else 0
        body = struct.pack(
            "!I4x6s2xIII4x",
            message.port_no,
            b"\x00" * 6,           # hw_addr (unused in this model)
            config,
            OFPPC_PORT_DOWN,       # mask: we only manage the down bit
            0,                     # advertise
        )
        return _frame(OFPT_PORT_MOD, message.xid, body)
    if isinstance(message, BarrierRequest):
        return _frame(OFPT_BARRIER_REQUEST, message.xid, b"")
    if isinstance(message, BarrierReply):
        return _frame(OFPT_BARRIER_REPLY, message.xid, b"")
    if isinstance(message, ErrorMsg):
        body = struct.pack("!HH", message.error_type, message.code)
        return _frame(OFPT_ERROR, message.xid, body + message.data)
    raise WireError("cannot encode %r" % type(message).__name__)


# ---------------------------------------------------------------------------
# Top-level decode
# ---------------------------------------------------------------------------

def decode(data: bytes) -> OpenFlowMessage:
    """Parse one OpenFlow message from ``data`` (exact frame).

    Malformed input of any kind raises :class:`WireError` — a switch
    must survive a misbehaving controller connection.
    """
    try:
        return _decode_checked(data)
    except WireError:
        raise
    except Exception as error:  # struct.error, bad enum values, ...
        raise WireError("malformed frame: %s" % error) from error


def _decode_checked(data: bytes) -> OpenFlowMessage:
    if len(data) < 8:
        raise WireError("truncated OpenFlow header")
    version, msg_type, length, xid = OFP_HEADER.unpack(data[:8])
    if version != OFP_VERSION:
        raise WireError("unsupported OpenFlow version %d" % version)
    if length != len(data):
        raise WireError(
            "frame length mismatch: header says %d, got %d"
            % (length, len(data))
        )
    body = data[8:]
    if msg_type == OFPT_HELLO:
        return Hello(xid=xid)
    if msg_type == OFPT_ECHO_REQUEST:
        return EchoRequest(xid=xid, data=body)
    if msg_type == OFPT_ECHO_REPLY:
        return EchoReply(xid=xid, data=body)
    if msg_type == OFPT_FEATURES_REQUEST:
        return FeaturesRequest(xid=xid)
    if msg_type == OFPT_FEATURES_REPLY:
        datapath_id, n_buffers, n_tables, _aux, caps, _res = struct.unpack(
            "!QIBB2xII", body[:24]
        )
        return FeaturesReply(xid=xid, datapath_id=datapath_id,
                             n_buffers=n_buffers, n_tables=n_tables,
                             capabilities=caps)
    if msg_type == OFPT_FLOW_MOD:
        (cookie, _cookie_mask, table_id, command, idle, hard, priority,
         _buffer, out_port, _out_group, flags) = struct.unpack(
            "!QQBBHHHIIIH", body[:38]
        )
        offset = 40  # includes 2 pad bytes
        match, consumed = decode_match(body[offset:])
        actions = _decode_instructions(body[offset + consumed:])
        return FlowMod(
            xid=xid,
            command=FlowModCommand(command),
            match=match,
            actions=actions,
            priority=priority,
            cookie=cookie,
            idle_timeout=idle,
            hard_timeout=hard,
            table_id=table_id,
            out_port=None if out_port == OFPP_ANY else out_port,
            check_overlap=bool(flags & 0x0002),
        )
    if msg_type == OFPT_FLOW_REMOVED:
        (cookie, priority, reason, _table, dsec, dnsec, _idle, _hard,
         packets, byte_count) = struct.unpack("!QHBBIIHHQQ", body[:40])
        match, _consumed = decode_match(body[40:])
        return FlowRemoved(
            xid=xid, match=match, priority=priority, cookie=cookie,
            reason=FlowRemovedReason(reason),
            duration_sec=dsec + dnsec / 1e9,
            packet_count=packets, byte_count=byte_count,
        )
    if msg_type == OFPT_PACKET_IN:
        _buffer, _total, reason, _table, _cookie = struct.unpack(
            "!IHBBQ", body[:16]
        )
        match, consumed = decode_match(body[16:])
        data_part = body[16 + consumed + 2:]
        in_port = match.in_port or 0
        return PacketIn(xid=xid, in_port=in_port,
                        reason=PacketInReason(reason), data=data_part)
    if msg_type == OFPT_PACKET_OUT:
        _buffer, in_port, actions_len = struct.unpack("!IIH", body[:10])
        actions = decode_actions(body[16:16 + actions_len])
        return PacketOut(xid=xid, in_port=in_port, actions=actions,
                         data=body[16 + actions_len:])
    if msg_type == OFPT_MULTIPART_REQUEST:
        part_type, _flags = struct.unpack("!HH", body[:4])
        inner = body[8:]
        if part_type == OFPMP_FLOW:
            _table, out_port, _group, _cookie, _mask = struct.unpack(
                "!B3xII4xQQ", inner[:32]
            )
            match, _consumed = decode_match(inner[32:])
            return FlowStatsRequest(
                xid=xid, match=match,
                out_port=None if out_port == OFPP_ANY else out_port,
            )
        if part_type == OFPMP_PORT_STATS:
            (port,) = struct.unpack("!I", inner[:4])
            return PortStatsRequest(
                xid=xid, port_no=None if port == OFPP_ANY else port
            )
        raise WireError("unsupported multipart request %d" % part_type)
    if msg_type == OFPT_MULTIPART_REPLY:
        part_type, _flags = struct.unpack("!HH", body[:4])
        inner = body[8:]
        if part_type == OFPMP_FLOW:
            stats = []
            offset = 0
            while offset < len(inner):
                (length, _table, dsec, dnsec, priority, _idle, _hard,
                 _flags, cookie, packets, byte_count) = struct.unpack(
                    "!HBxIIHHHH4xQQQ", inner[offset:offset + 48]
                )
                match, consumed = decode_match(inner[offset + 48:])
                actions = _decode_instructions(
                    inner[offset + 48 + consumed:offset + length]
                )
                stats.append(FlowStatsEntry(
                    match=match, priority=priority, cookie=cookie,
                    packet_count=packets, byte_count=byte_count,
                    duration_sec=dsec + dnsec / 1e9, actions=actions,
                ))
                offset += length
            return FlowStatsReply(xid=xid, stats=stats)
        if part_type == OFPMP_PORT_STATS:
            stats = []
            entry_size = 8 + 12 * 8 + 8
            offset = 0
            while offset < len(inner):
                values = struct.unpack(
                    "!I4xQQQQQQQQQQQQII", inner[offset:offset + entry_size]
                )
                stats.append(PortStatsEntry(
                    port_no=values[0],
                    rx_packets=values[1], tx_packets=values[2],
                    rx_bytes=values[3], tx_bytes=values[4],
                    rx_dropped=values[5], tx_dropped=values[6],
                ))
                offset += entry_size
            return PortStatsReply(xid=xid, stats=stats)
        raise WireError("unsupported multipart reply %d" % part_type)
    if msg_type == OFPT_PORT_MOD:
        port_no, _hw, config, mask, _adv = struct.unpack(
            "!I4x6s2xIII4x", body[:32]
        )
        return PortMod(xid=xid, port_no=port_no,
                       down=bool(config & mask & OFPPC_PORT_DOWN))
    if msg_type == OFPT_BARRIER_REQUEST:
        return BarrierRequest(xid=xid)
    if msg_type == OFPT_BARRIER_REPLY:
        return BarrierReply(xid=xid)
    if msg_type == OFPT_ERROR:
        error_type, code = struct.unpack("!HH", body[:4])
        return ErrorMsg(xid=xid, error_type=error_type, code=code,
                        data=body[4:])
    raise WireError("unsupported message type %d" % msg_type)
