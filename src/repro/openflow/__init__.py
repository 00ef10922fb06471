"""OpenFlow subset: matches, actions, flow tables, messages and codec.

This models the slice of OpenFlow the paper's system consumes: an
OpenFlow controller installs traffic-steering ``FlowMod``s into the
vSwitch; the p-2-p link detector analyses them; flow/port statistics flow
back to the controller.  Messages encode to real OpenFlow-1.3-style
binary (see :mod:`repro.openflow.wire`) so transparency can be asserted
at the wire level, not just against Python objects.
"""

from repro.openflow.actions import (
    Action,
    ControllerAction,
    GotoTableAction,
    OutputAction,
    SetFieldAction,
    PORT_CONTROLLER,
)
from repro.openflow.match import FIELD_WIDTHS, Match, MatchError
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
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsReply,
    PortStatsRequest,
)
from repro.openflow.table import FlowEntry, FlowTable, TableModResult
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.openflow.flowsyntax import (
    FlowSyntaxError,
    format_flow,
    parse_flow,
)

__all__ = [
    "Action",
    "FlowSyntaxError",
    "GotoTableAction",
    "format_flow",
    "parse_flow",
    "BarrierReply",
    "BarrierRequest",
    "ControllerAction",
    "ControllerConnection",
    "EchoReply",
    "EchoRequest",
    "ErrorMsg",
    "FIELD_WIDTHS",
    "FeaturesReply",
    "FeaturesRequest",
    "FlowEntry",
    "FlowMod",
    "FlowModCommand",
    "FlowRemoved",
    "FlowRemovedReason",
    "FlowStatsReply",
    "FlowStatsRequest",
    "FlowTable",
    "Hello",
    "Match",
    "MatchError",
    "OpenFlowMessage",
    "OutputAction",
    "PORT_CONTROLLER",
    "PacketIn",
    "PacketInReason",
    "PacketOut",
    "PortStatsReply",
    "PortStatsRequest",
    "SetFieldAction",
    "SimpleController",
    "TableModResult",
]
