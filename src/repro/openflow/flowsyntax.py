"""ovs-ofctl flow syntax: parse and format rules as text.

The operators of the paper's prototype program it with ``ovs-ofctl
add-flow br0 "in_port=1,actions=output:2"``.  This module implements
that textual surface for the supported match fields and actions, in both
directions, so examples, tests and the appctl layer can speak the same
dialect as real deployments::

    parse_flow("priority=100,in_port=1,actions=output:2")
    parse_flow("tcp,tp_dst=80,actions=set_field:2->eth_dst,output:3")
    format_flow(match, actions, priority=100)

Supported match keys: ``in_port``, ``dl_src``, ``dl_dst``, ``dl_type``,
``dl_vlan``, ``nw_src``, ``nw_dst`` (both with ``/mask`` or ``/prefix``),
``nw_proto``, ``nw_tos``, ``tp_src``, ``tp_dst``, plus the protocol
shorthands ``ip``, ``arp``, ``tcp``, ``udp``, ``icmp``.
Supported actions: ``output:N`` / bare port number, ``drop``,
``controller``, ``set_field:V->F`` and ``mod_dl_dst``/``mod_dl_src``/
``mod_nw_src``/``mod_nw_dst``/``mod_tp_src``/``mod_tp_dst``.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.openflow.actions import (
    Action,
    ControllerAction,
    GotoTableAction,
    OutputAction,
    SetFieldAction,
)
from repro.openflow.match import FIELD_WIDTHS, Match, MatchError
from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    MacAddress,
    int_to_ipv4,
    ipv4_to_int,
)


class FlowSyntaxError(ValueError):
    """Raised on malformed flow text."""


# ovs-ofctl key -> our match field name.
_KEY_TO_FIELD = {
    "in_port": "in_port",
    "dl_src": "eth_src",
    "dl_dst": "eth_dst",
    "dl_type": "eth_type",
    "dl_vlan": "vlan_vid",
    "nw_src": "ip_src",
    "nw_dst": "ip_dst",
    "nw_proto": "ip_proto",
    "nw_tos": "ip_tos",
    "tp_src": "l4_src",
    "tp_dst": "l4_dst",
}
_FIELD_TO_KEY = {field: key for key, field in _KEY_TO_FIELD.items()}

_SHORTHANDS = {
    "ip": {"eth_type": ETH_TYPE_IPV4},
    "arp": {"eth_type": ETH_TYPE_ARP},
    "tcp": {"eth_type": ETH_TYPE_IPV4, "ip_proto": IP_PROTO_TCP},
    "udp": {"eth_type": ETH_TYPE_IPV4, "ip_proto": IP_PROTO_UDP},
    "icmp": {"eth_type": ETH_TYPE_IPV4, "ip_proto": IP_PROTO_ICMP},
}

_MOD_ACTIONS = {
    "mod_dl_src": "eth_src",
    "mod_dl_dst": "eth_dst",
    "mod_nw_src": "ip_src",
    "mod_nw_dst": "ip_dst",
    "mod_tp_src": "l4_src",
    "mod_tp_dst": "l4_dst",
}

_MAC_FIELDS = {"eth_src", "eth_dst"}
_IP_FIELDS = {"ip_src", "ip_dst"}


def _parse_value(field: str, text: str) -> int:
    text = text.strip()
    if field in _MAC_FIELDS and ":" in text:
        return MacAddress.from_string(text).value
    if field in _IP_FIELDS and "." in text:
        return ipv4_to_int(text)
    try:
        return int(text, 0)
    except ValueError:
        raise FlowSyntaxError(
            "cannot parse %r as a value for %s" % (text, field)
        ) from None


def _parse_masked(field: str, text: str):
    """Handle ``value/mask`` and ``a.b.c.d/prefix`` notations."""
    if "/" not in text:
        return _parse_value(field, text)
    value_text, mask_text = text.split("/", 1)
    value = _parse_value(field, value_text)
    if (field in _IP_FIELDS and "." not in mask_text
            and not mask_text.lower().startswith("0x")):
        prefix = int(mask_text)
        if not 0 <= prefix <= 32:
            raise FlowSyntaxError("bad prefix length %r" % mask_text)
        mask = ((1 << prefix) - 1) << (32 - prefix) if prefix else 0
    else:
        mask = _parse_value(field, mask_text)
    return (value & mask, mask)


def _split_top_level(text: str) -> List[str]:
    """Split a flow spec on commas, respecting nothing fancier (the
    supported grammar has no nested commas)."""
    return [part for part in (p.strip() for p in text.split(",")) if part]


def parse_actions(text: str) -> List[Action]:
    """Parse an ovs-ofctl action list (comma separated)."""
    actions: List[Action] = []
    for part in _split_top_level(text):
        lowered = part.lower()
        if lowered == "drop":
            if actions:
                raise FlowSyntaxError("drop cannot follow other actions")
            return []
        if lowered in ("controller", "controller:65535"):
            actions.append(ControllerAction())
            continue
        if lowered.startswith("output:"):
            actions.append(OutputAction(int(part.split(":", 1)[1], 0)))
            continue
        if lowered.startswith("goto_table:") or lowered.startswith(
            "resubmit:"
        ):
            actions.append(
                GotoTableAction(int(part.split(":", 1)[1], 0))
            )
            continue
        if lowered.startswith("set_field:"):
            body = part[len("set_field:"):]
            if "->" not in body:
                raise FlowSyntaxError("set_field needs value->field")
            value_text, key = body.rsplit("->", 1)
            field = _KEY_TO_FIELD.get(key.strip(), key.strip())
            if field not in FIELD_WIDTHS:
                raise FlowSyntaxError("unknown set_field target %r" % key)
            actions.append(
                SetFieldAction(field, _parse_value(field, value_text))
            )
            continue
        mod_field = _MOD_ACTIONS.get(lowered.split(":", 1)[0])
        if mod_field is not None and ":" in part:
            value_text = part.split(":", 1)[1]
            actions.append(
                SetFieldAction(mod_field,
                               _parse_value(mod_field, value_text))
            )
            continue
        if part.isdigit():
            actions.append(OutputAction(int(part)))
            continue
        raise FlowSyntaxError("unknown action %r" % part)
    return actions


def parse_flow(text: str) -> "Tuple[Match, List[Action], Dict[str, int]]":
    """Parse a full ovs-ofctl flow spec.

    Returns ``(match, actions, attributes)`` where attributes holds
    ``priority`` / ``idle_timeout`` / ``hard_timeout`` / ``cookie`` when
    present.
    """
    if "actions=" not in text:
        raise FlowSyntaxError("flow spec needs an actions= clause")
    match_part, actions_part = text.split("actions=", 1)
    actions = parse_actions(actions_part)

    constraints: Dict[str, object] = {}
    attributes: Dict[str, int] = {}
    for part in _split_top_level(match_part):
        if "=" not in part:
            shorthand = _SHORTHANDS.get(part.lower())
            if shorthand is None:
                raise FlowSyntaxError("unknown match token %r" % part)
            constraints.update(shorthand)
            continue
        key, value_text = part.split("=", 1)
        key = key.strip().lower()
        if key in ("priority", "idle_timeout", "hard_timeout", "cookie",
                   "table"):
            attributes[key] = int(value_text, 0)
            continue
        field = _KEY_TO_FIELD.get(key)
        if field is None:
            raise FlowSyntaxError("unknown match key %r" % key)
        constraints[field] = _parse_masked(field, value_text)
    try:
        match = Match(**constraints)
    except MatchError as error:
        raise FlowSyntaxError(str(error)) from None
    return match, actions, attributes


def format_value(field: str, value: int) -> str:
    if field in _MAC_FIELDS:
        return str(MacAddress(value))
    if field in _IP_FIELDS:
        return int_to_ipv4(value)
    if field == "eth_type":
        return "0x%04x" % value
    return str(value)


def format_match(match: Match) -> str:
    """Format a match in ovs-ofctl syntax (stable field order)."""
    parts = []
    for field in FIELD_WIDTHS:
        constraint = match.get(field)
        if constraint is None:
            continue
        value, mask = constraint
        key = _FIELD_TO_KEY[field]
        full = (1 << FIELD_WIDTHS[field]) - 1
        if mask == full:
            parts.append("%s=%s" % (key, format_value(field, value)))
        else:
            parts.append("%s=%s/%s" % (key, format_value(field, value),
                                       format_value(field, mask)))
    return ",".join(parts) if parts else "*"


def format_actions(actions: Sequence[Action]) -> str:
    if not actions:
        return "drop"
    parts = []
    for action in actions:
        if isinstance(action, GotoTableAction):
            parts.append("goto_table:%d" % action.table_id)
        elif isinstance(action, SetFieldAction):
            parts.append("set_field:%s->%s" % (
                format_value(action.field, action.value),
                _FIELD_TO_KEY[action.field],
            ))
        elif isinstance(action, OutputAction):
            if action.is_controller:
                parts.append("controller")
            else:
                parts.append("output:%d" % action.port)
        else:
            raise FlowSyntaxError("cannot format action %r" % action)
    return ",".join(parts)


def format_flow(match: Match, actions: Sequence[Action],
                priority: Optional[int] = None,
                counters: Optional[Tuple[int, int]] = None) -> str:
    """One dump-flows style line."""
    parts = []
    if counters is not None:
        parts.append("n_packets=%d, n_bytes=%d," % counters)
    if priority is not None:
        match_text = format_match(match)
        if match_text == "*":
            parts.append("priority=%d" % priority)
        else:
            parts.append("priority=%d,%s" % (priority, match_text))
    else:
        parts.append(format_match(match))
    parts.append("actions=%s" % format_actions(actions))
    return " ".join(parts)
