"""Property: the one-pass flow-key extractor is the five-``get`` one.

``extract_flow_key`` indexes the header stack by type in one walk,
keeping the first header of each type; ``tests/support/
reference_flowkey.py`` keeps the extractor it replaced, which scanned the
stack once per header it wanted.  Hypothesis builds header stacks —
well-formed ones, and ones with Ethernet missing, not first or
duplicated, zero to two VLAN tags, an IPv4 header behind a non-IPv4
eth_type, IPv6, TCP / UDP / ICMP / ARP, the L4 header missing or of the
wrong protocol — and both must return the same key, a real
:class:`FlowKey`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet.flowkey import FlowKey, extract_flow_key
from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_IPV6,
    ETH_TYPE_VLAN,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Arp,
    Ethernet,
    Icmp,
    IPv4,
    IPv6,
    MacAddress,
    Tcp,
    Udp,
    Vlan,
)
from repro.packet.packet import Packet

from tests.support.reference_flowkey import reference_extract_flow_key

# Few values, so that eth_types and protocols agree with the headers
# behind them often and disagree often.
ETH_TYPES = st.sampled_from(
    [ETH_TYPE_IPV4, ETH_TYPE_IPV6, ETH_TYPE_ARP, ETH_TYPE_VLAN, 0x88CC])
PROTOS = st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP, IP_PROTO_ICMP, 47])
MACS = st.builds(MacAddress, st.integers(0, (1 << 48) - 1))
PORTS = st.integers(0, 0xFFFF)

ethernets = st.builds(Ethernet, dst=MACS, src=MACS, eth_type=ETH_TYPES)
vlans = st.builds(Vlan, vid=st.integers(0, 0xFFF), eth_type=ETH_TYPES)
ipv4s = st.builds(IPv4, tos=st.integers(0, 0xFF), proto=PROTOS,
                  src=st.integers(0, (1 << 32) - 1),
                  dst=st.integers(0, (1 << 32) - 1))
ipv6s = st.builds(IPv6, traffic_class=st.integers(0, 0xFF),
                  next_header=PROTOS,
                  src=st.integers(0, (1 << 128) - 1),
                  dst=st.integers(0, (1 << 128) - 1))
tcps = st.builds(Tcp, src_port=PORTS, dst_port=PORTS)
udps = st.builds(Udp, src_port=PORTS, dst_port=PORTS)
icmps = st.builds(Icmp, icmp_type=st.integers(0, 0xFF),
                  code=st.integers(0, 0xFF))
arps = st.builds(Arp, sender_ip=st.integers(0, (1 << 32) - 1))
any_header = st.one_of(ethernets, vlans, ipv4s, ipv6s, tcps, udps, icmps,
                       arps)


@st.composite
def header_stacks(draw):
    """Ethernet, 0-2 VLAN tags, an optional L3 and an optional L4 header,
    then as drawn: Ethernet dropped, duplicated or moved back, and
    arbitrary headers spliced in anywhere."""
    stack = [draw(ethernets)]
    stack += draw(st.lists(vlans, max_size=2))
    l3 = draw(st.one_of(st.none(), ipv4s, ipv6s, arps))
    if l3 is not None:
        stack.append(l3)
    l4 = draw(st.one_of(st.none(), tcps, udps, icmps))
    if l4 is not None:
        stack.append(l4)
    mutation = draw(st.sampled_from(
        ["none", "drop_eth", "dup_eth", "eth_not_first", "splice"]))
    if mutation == "drop_eth":
        stack.pop(0)
    elif mutation == "dup_eth":
        stack.insert(draw(st.integers(1, len(stack))), draw(ethernets))
    elif mutation == "eth_not_first":
        stack.insert(0, draw(any_header))
    elif mutation == "splice":
        for header in draw(st.lists(any_header, min_size=1, max_size=3)):
            stack.insert(draw(st.integers(0, len(stack))), header)
    return stack


def assert_same_key(headers, in_port=3):
    packet = Packet(headers=list(headers))
    key = extract_flow_key(packet, in_port)
    expected = reference_extract_flow_key(packet, in_port)
    assert type(key) is FlowKey
    assert key == expected


@settings(max_examples=400, deadline=None)
@given(header_stacks(), st.integers(0, 0xFFFF))
def test_one_pass_key_is_the_five_get_key(headers, in_port):
    assert_same_key(headers, in_port)


@settings(max_examples=200, deadline=None)
@given(st.lists(any_header, max_size=8))
def test_any_header_sequence_gives_the_same_key(headers):
    assert_same_key(headers)


def _eth(eth_type=ETH_TYPE_IPV4, src=0x020000000001):
    return Ethernet(dst=MacAddress(0x020000000002), src=MacAddress(src),
                    eth_type=eth_type)


def _ipv4(proto=IP_PROTO_UDP):
    return IPv4(tos=4, proto=proto, src=0x0A000001, dst=0x0A000002)


def _ipv6(next_header=IP_PROTO_TCP):
    return IPv6(traffic_class=8, next_header=next_header,
                src=(1 << 100) | 0x01020304, dst=(1 << 90) | 0x05060708)


PINNED = {
    "ethernet_missing": [_ipv4(), Udp(src_port=1, dst_port=2)],
    "ethernet_not_first": [Vlan(vid=5), _eth(), _ipv4()],
    "ethernet_duplicated": [_eth(), _ipv4(), _eth(src=0x0A0000000009)],
    "one_vlan": [_eth(ETH_TYPE_VLAN), Vlan(vid=7), _ipv4(),
                 Udp(src_port=1, dst_port=2)],
    "two_vlans": [_eth(ETH_TYPE_VLAN),
                  Vlan(vid=7, eth_type=ETH_TYPE_VLAN), Vlan(vid=9),
                  _ipv4(IP_PROTO_TCP), Tcp(src_port=3, dst_port=4)],
    "ipv4_behind_arp_eth_type": [_eth(ETH_TYPE_ARP), _ipv4(),
                                 Udp(src_port=1, dst_port=2)],
    "ipv4_behind_vlan_of_other_type": [_eth(ETH_TYPE_VLAN),
                                       Vlan(vid=3, eth_type=ETH_TYPE_IPV6),
                                       _ipv4(), _ipv6()],
    "ipv6_tcp": [_eth(ETH_TYPE_IPV6), _ipv6(),
                 Tcp(src_port=80, dst_port=8080)],
    "ipv6_udp": [_eth(ETH_TYPE_IPV6), _ipv6(IP_PROTO_UDP),
                 Udp(src_port=53, dst_port=5353)],
    "icmp": [_eth(), _ipv4(IP_PROTO_ICMP), Icmp(icmp_type=0, code=3)],
    "arp": [_eth(ETH_TYPE_ARP), Arp(sender_ip=0x0A000001)],
    "l4_missing": [_eth(), _ipv4(IP_PROTO_TCP)],
    "l4_of_the_other_protocol": [_eth(), _ipv4(IP_PROTO_TCP),
                                 Udp(src_port=1, dst_port=2)],
}


@pytest.mark.parametrize("headers", list(PINNED.values()), ids=list(PINNED))
def test_pinned_stacks_give_the_same_key(headers):
    assert_same_key(headers)
