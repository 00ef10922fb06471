"""Tests for the ovs-ofctl flow text syntax."""

import pytest

from repro.openflow.actions import (
    ControllerAction,
    OutputAction,
    SetFieldAction,
)
from repro.openflow.flowsyntax import (
    FlowSyntaxError,
    format_actions,
    format_flow,
    format_match,
    parse_actions,
    parse_flow,
)
from repro.openflow.match import Match
from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    HeaderError,
    ipv4_to_int,
)


class TestParseActions:
    def test_output(self):
        assert parse_actions("output:3") == [OutputAction(3)]

    def test_bare_port_number(self):
        assert parse_actions("7") == [OutputAction(7)]

    def test_drop(self):
        assert parse_actions("drop") == []

    def test_drop_after_actions_rejected(self):
        with pytest.raises(FlowSyntaxError):
            parse_actions("output:1,drop")

    def test_controller(self):
        actions = parse_actions("controller")
        assert len(actions) == 1
        assert actions[0].is_controller

    def test_set_field_with_mac(self):
        actions = parse_actions("set_field:02:00:00:00:00:09->dl_dst")
        assert actions == [SetFieldAction("eth_dst", 0x020000000009)]

    def test_mod_shorthand(self):
        actions = parse_actions("mod_nw_dst:10.0.0.9,output:2")
        assert actions == [
            SetFieldAction("ip_dst", ipv4_to_int("10.0.0.9")),
            OutputAction(2),
        ]

    def test_unknown_action(self):
        with pytest.raises(FlowSyntaxError):
            parse_actions("teleport:1")

    def test_goto_table(self):
        from repro.openflow.actions import GotoTableAction

        assert parse_actions("goto_table:2") == [GotoTableAction(2)]
        assert format_actions([GotoTableAction(2)]) == "goto_table:2"

    def test_table_attribute(self):
        _match, _actions, attributes = parse_flow(
            "table=3,udp,actions=goto_table:4"
        )
        assert attributes["table"] == 3


class TestParseFlow:
    def test_simple_p2p_rule(self):
        match, actions, attributes = parse_flow(
            "priority=100,in_port=1,actions=output:2"
        )
        assert match == Match(in_port=1)
        assert actions == [OutputAction(2)]
        assert attributes == {"priority": 100}

    def test_protocol_shorthands(self):
        match, _actions, _attr = parse_flow("tcp,tp_dst=80,actions=drop")
        assert match == Match(eth_type=ETH_TYPE_IPV4,
                              ip_proto=IP_PROTO_TCP, l4_dst=80)
        match, _actions, _attr = parse_flow("udp,actions=drop")
        assert match.get("ip_proto")[0] == IP_PROTO_UDP
        match, _actions, _attr = parse_flow("arp,actions=drop")
        assert match.get("eth_type")[0] == ETH_TYPE_ARP

    def test_ip_prefix_notation(self):
        match, _actions, _attr = parse_flow(
            "ip,nw_dst=10.0.0.0/8,actions=output:1"
        )
        assert match.get("ip_dst") == (ipv4_to_int("10.0.0.0"), 0xFF000000)

    def test_explicit_mask(self):
        match, _a, _attr = parse_flow(
            "ip,nw_src=10.1.0.0/255.255.0.0,actions=output:1"
        )
        assert match.get("ip_src") == (ipv4_to_int("10.1.0.0"), 0xFFFF0000)

    def test_mac_addresses(self):
        match, _a, _attr = parse_flow(
            "dl_src=02:00:00:00:00:01,actions=output:1"
        )
        assert match.get("eth_src")[0] == 0x020000000001

    @pytest.mark.parametrize("text", [
        # ovs-ofctl rejects both fields; int() took every character.
        "ip,nw_src=1_0.0.0.1,dl_src=+1:+2: 3:04:05:06,actions=output:2",
        "ip,nw_src=1_0.0.0.1,actions=output:2",
        "dl_src=+1:+2: 3:04:05:06,actions=output:2",
        "dl_dst=02:00:00:00:00:\u0661\u0662,actions=output:2",
        "ip,nw_dst=10.0.0.+1,actions=output:2",
        "ip,nw_src=10.0.0.0_0/8,actions=output:2",
        "actions=mod_dl_src:+2:00:00:00:00:01,output:2",
        "actions=mod_nw_dst:10.0.0.\u0669,output:2",
    ])
    def test_malformed_addresses_are_rejected(self, text):
        with pytest.raises(HeaderError):
            parse_flow(text)

    def test_timeouts_and_cookie(self):
        _m, _a, attributes = parse_flow(
            "idle_timeout=5,hard_timeout=60,cookie=0xbeef,in_port=1,"
            "actions=drop"
        )
        assert attributes == {"idle_timeout": 5, "hard_timeout": 60,
                              "cookie": 0xBEEF}

    def test_missing_actions(self):
        with pytest.raises(FlowSyntaxError):
            parse_flow("in_port=1")

    def test_unknown_match_key(self):
        with pytest.raises(FlowSyntaxError):
            parse_flow("warp_factor=9,actions=drop")

    def test_prerequisite_violation_surfaces(self):
        with pytest.raises(FlowSyntaxError):
            parse_flow("tp_dst=80,actions=drop")  # no ip/tcp context

    def test_hex_values(self):
        match, _a, _attr = parse_flow("dl_type=0x0800,actions=drop")
        assert match.get("eth_type")[0] == ETH_TYPE_IPV4


class TestFormatting:
    def test_format_match_roundtrip(self):
        original = Match(in_port=1, eth_type=ETH_TYPE_IPV4,
                         ip_proto=IP_PROTO_TCP, l4_dst=80,
                         ip_dst=(ipv4_to_int("10.0.0.0"), 0xFF000000))
        text = format_match(original)
        reparsed, _actions, _attr = parse_flow(text + ",actions=drop")
        assert reparsed == original

    def test_format_wildcard(self):
        assert format_match(Match()) == "*"

    def test_format_actions_roundtrip(self):
        actions = [SetFieldAction("eth_dst", 9), OutputAction(4)]
        assert parse_actions(format_actions(actions)) == actions

    def test_format_drop(self):
        assert format_actions([]) == "drop"

    def test_format_controller(self):
        assert format_actions([ControllerAction()]) == "controller"

    def test_format_flow_with_counters(self):
        text = format_flow(Match(in_port=1), [OutputAction(2)],
                           priority=7, counters=(10, 640))
        assert text == ("n_packets=10, n_bytes=640, priority=7,in_port=1 "
                        "actions=output:2")
