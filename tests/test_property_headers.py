"""Property: slotted headers and a shared pad keep their meaning.

The nine header classes are slotted dataclasses and the builders share
one zero pad per pad length.  Hypothesis draws every field of every
class over its wire range and checks what the slots and the sharing must
not move: a header packs and parses back to itself; ``repr`` and ``==``
are the dataclass ones over the declared fields; a ``MacAddress``
hashes, orders and refuses assignment as a frozen ordered dataclass of
its ``value``; and a built UDP, TCP or ARP packet classifies exactly as
its own wire bytes parsed back.  A differential test rewrites the MACs
of one padded packet with ``mod_dl_src`` / ``mod_dl_dst`` on the switch
and checks that a second packet built from the same arguments, sharing
its pad, did not change by a byte.
"""

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.flowsyntax import parse_actions
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.packet.builder import (
    make_arp_request,
    make_tcp_packet,
    make_udp_packet,
)
from repro.packet.flowkey import extract_flow_key
from repro.packet.headers import (
    Arp,
    Ethernet,
    Icmp,
    IPv4,
    IPv6,
    MacAddress,
    Tcp,
    Udp,
    Vlan,
    int_to_ipv4,
)
from repro.packet.packet import Packet
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf


def bits(width):
    return st.integers(min_value=0, max_value=(1 << width) - 1)


macs = bits(48).map(MacAddress)

HEADERS = {
    Ethernet: st.builds(Ethernet, dst=macs, src=macs, eth_type=bits(16)),
    Vlan: st.builds(Vlan, pcp=bits(3), dei=bits(1), vid=bits(12),
                    eth_type=bits(16)),
    Arp: st.builds(Arp, opcode=bits(16), sender_mac=macs,
                   sender_ip=bits(32), target_mac=macs, target_ip=bits(32)),
    IPv4: st.builds(IPv4, tos=bits(8), total_length=bits(16),
                    identification=bits(16), flags=bits(3),
                    fragment_offset=bits(13), ttl=bits(8), proto=bits(8),
                    src=bits(32), dst=bits(32)),
    IPv6: st.builds(IPv6, traffic_class=bits(8), flow_label=bits(20),
                    payload_length=bits(16), next_header=bits(8),
                    hop_limit=bits(8), src=bits(128), dst=bits(128)),
    Tcp: st.builds(Tcp, src_port=bits(16), dst_port=bits(16), seq=bits(32),
                   ack=bits(32), flags=bits(9), window=bits(16),
                   checksum=bits(16), urgent=bits(16)),
    Udp: st.builds(Udp, src_port=bits(16), dst_port=bits(16),
                   length=bits(16), checksum=bits(16)),
    Icmp: st.builds(Icmp, icmp_type=bits(8), code=bits(8),
                    checksum=bits(16), identifier=bits(16),
                    sequence=bits(16)),
}
any_header = st.one_of(*HEADERS.values())


def _dataclass_repr(obj):
    return "%s(%s)" % (type(obj).__name__, ", ".join(
        "%s=%r" % (f.name, getattr(obj, f.name)) for f in fields(obj)))


def _field_values(obj):
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@settings(max_examples=300, deadline=None)
@given(header=any_header)
def test_a_header_packs_and_parses_back_to_itself(header):
    wire = header.pack()  # IPv4 fills its checksum field here
    parsed, consumed = type(header).unpack(wire)
    assert consumed == len(header) == len(wire)
    assert parsed == header
    assert parsed.pack() == wire


@settings(max_examples=300, deadline=None)
@given(header=any_header, other=any_header)
def test_repr_and_equality_are_the_dataclass_ones(header, other):
    assert repr(header) == _dataclass_repr(header)
    twin = type(header)(**_field_values(header))
    assert twin == header and twin is not header
    assert (header == other) == (
        type(header) is type(other)
        and _field_values(header) == _field_values(other))


@settings(max_examples=300, deadline=None)
@given(a=macs, b=macs)
def test_a_mac_address_is_a_frozen_ordered_value(a, b):
    assert repr(a) == "MacAddress(value=%d)" % a.value
    assert hash(a) == hash((a.value,))
    assert (a == b) == (a.value == b.value)
    assert (a < b) == (a.value < b.value)
    assert (a <= b) == (a.value <= b.value)
    assert MacAddress.from_string(str(a)) == a
    assert MacAddress.from_bytes(a.to_bytes()) == a
    with pytest.raises(FrozenInstanceError):
        a.value = b.value
    with pytest.raises(FrozenInstanceError):
        del a.value


mac_texts = macs.map(str)
ip_texts = bits(32).map(int_to_ipv4)
ports = bits(16)


@st.composite
def built_packets(draw):
    kind = draw(st.sampled_from(("udp", "tcp", "arp")))
    if kind == "arp":
        return make_arp_request(sender_mac=draw(mac_texts),
                                sender_ip=draw(ip_texts),
                                target_ip=draw(ip_texts))
    common = dict(src_mac=draw(mac_texts), dst_mac=draw(mac_texts),
                  src_ip=draw(ip_texts), dst_ip=draw(ip_texts),
                  src_port=draw(ports), dst_port=draw(ports),
                  frame_size=draw(st.sampled_from((None, 64, 128, 1518))))
    if kind == "tcp":
        return make_tcp_packet(flags=draw(bits(9)), seq=draw(bits(32)),
                               **common)
    return make_udp_packet(**common)


@settings(max_examples=300, deadline=None)
@given(packet=built_packets(), in_port=bits(16))
def test_a_built_packet_classifies_as_its_own_wire_bytes(packet, in_port):
    parsed = Packet.unpack(packet.pack())
    assert extract_flow_key(packet, in_port) == extract_flow_key(parsed,
                                                                 in_port)


def test_rewriting_one_packets_macs_leaves_a_sibling_untouched():
    """The switch's set-field actions on one packet must leave a packet
    built from the same arguments byte-identical."""
    sent = make_udp_packet(src_mac="02:00:00:00:00:0a",
                           dst_mac="02:00:00:00:00:0b", frame_size=64)
    sibling = make_udp_packet(src_mac="02:00:00:00:00:0a",
                              dst_mac="02:00:00:00:00:0b", frame_size=64)
    assert sent.payload is sibling.payload
    before = sibling.pack()

    switch = VSwitchd()
    a = switch.add_dpdkr_port("dpdkr0")
    b = switch.add_dpdkr_port("dpdkr1")
    switch.bridge.table.add(FlowEntry(
        Match(in_port=a.ofport),
        parse_actions("mod_dl_src:02:00:00:00:00:c1,"
                      "mod_dl_dst:02:00:00:00:00:c2,output:%d" % b.ofport)))
    a.rings.to_switch.enqueue(mk_mbuf(sent))
    switch.step_dataplane()
    delivered = drain(b.rings.to_guest)[0].packet

    assert delivered is sent
    assert sent.get(Ethernet).src == MacAddress.from_string(
        "02:00:00:00:00:c1")
    assert sent.get(Ethernet).dst == MacAddress.from_string(
        "02:00:00:00:00:c2")
    assert sibling.pack() == before
    assert str(sibling.get(Ethernet).src) == "02:00:00:00:00:0a"
