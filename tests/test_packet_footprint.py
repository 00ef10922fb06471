"""A packet costs its fields: the memory a built packet holds, as a
tier-1 ceiling.

``switch_miss_churn`` keeps tens of thousands of built packets alive, so
its peak RSS is mostly what one ``make_udp_packet`` allocates.  Like
``tests/test_host_calls.py`` for calls per packet, this holds that
figure under a committed ceiling: ``tracemalloc`` counts the bytes
Python allocates, which repeat exactly on any machine with the same
interpreter.  A second ceiling holds what switching a packet leaves
behind once the switch's caches are full: its flow key lives for its
burst, not on the mbuf.  Further checks hold the mechanism: header
instances are slotted (no per-instance ``__dict__``), packets built
from one MAC address text share one ``MacAddress``, and padded packets
share one zero-filled pad per pad length.
"""

import random
import tracemalloc

import pytest

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.packet.builder import (
    make_arp_request,
    make_tcp_packet,
    make_udp_packet,
)
from repro.packet.headers import (
    ETH_TYPE_IPV6,
    ETH_TYPE_VLAN,
    IP_PROTO_ICMP,
    Arp,
    Ethernet,
    HeaderError,
    Icmp,
    IPv6,
    Vlan,
)
from repro.packet.mbuf import Mbuf
from repro.packet.packet import Packet
from repro.vswitch.datapath import Datapath
from repro.vswitch.vswitchd import VSwitchd

PACKETS = 10_000
# 392 traced bytes per 64 B UDP packet on Python 3.11.7, plus 10 %.
# Lower it when the figure falls; raising it needs a reason.  It read
# 800 while every header and ``MacAddress`` carried a ``__dict__`` and
# every packet padded with its own zero bytes, and 536 while every
# packet built its own two ``MacAddress`` objects.  (Kept in a growing
# list instead of the preallocated one below, the three read 400, 808
# and 544.)
CEILING_TRACED_BYTES_PER_PACKET = 431
# Switched UDP flows per half of the retention check: the first half
# fills the switch's caches, the second is measured.
SWITCHED_FLOWS = 20_000
# 23 traced bytes retained per switched packet on Python 3.11.7, over
# the second half: the ~2,500 keys the EMC's insertion coin still
# admits past its threshold, and nothing on the mbufs.  It read 142
# while the datapath cached each extracted flow key on its mbuf.
CEILING_RETAINED_BYTES_PER_SWITCHED_PACKET = 32


def _five_tuples(count, seed=1):
    rng = random.Random(seed)
    return [
        dict(src_ip=0x0A000000 | rng.getrandbits(24),
             dst_ip=0x0B000000 | rng.getrandbits(24),
             src_port=rng.randrange(1024, 65536),
             dst_port=rng.randrange(1024, 65536))
        for _ in range(count)
    ]


def test_a_built_packet_stays_under_its_byte_ceiling():
    tuples = _five_tuples(PACKETS)
    assert len({tuple(t.values()) for t in tuples}) == PACKETS
    kept = [None] * PACKETS
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for index, five_tuple in enumerate(tuples):
            kept[index] = make_udp_packet(frame_size=64, **five_tuple)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(packet.wire_length == 64 for packet in kept)
    per_packet = (after - before) / PACKETS
    assert per_packet <= CEILING_TRACED_BYTES_PER_PACKET, per_packet


def _switch_all(switch, rx, tx, mbufs):
    to_switch, from_switch = rx.rings.to_switch, tx.rings.to_guest
    burst_size = switch.datapath.burst_size
    for start in range(0, len(mbufs), burst_size):
        burst = mbufs[start:start + burst_size]
        to_switch.enqueue_bulk(burst)
        switch.step_dataplane()
        assert len(from_switch.dequeue_burst(len(burst))) == len(burst)


def test_switching_retains_almost_nothing_once_the_caches_are_full():
    tuples = _five_tuples(2 * SWITCHED_FLOWS, seed=2)
    assert len({tuple(t.values()) for t in tuples}) == 2 * SWITCHED_FLOWS
    mbufs = []
    for five_tuple in tuples:
        mbuf = Mbuf()
        mbuf.packet = make_udp_packet(frame_size=64, **five_tuple)
        mbuf.wire_length = 64
        mbufs.append(mbuf)
    switch = VSwitchd(name="footprint")
    rx, tx = switch.add_dpdkr_port("rx"), switch.add_dpdkr_port("tx")
    switch.bridge.table.add(FlowEntry(Match(in_port=rx.ofport),
                                      [OutputAction(tx.ofport)],
                                      priority=10))
    _switch_all(switch, rx, tx, mbufs[:SWITCHED_FLOWS])
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        _switch_all(switch, rx, tx, mbufs[SWITCHED_FLOWS:])
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert switch.datapath.packets_processed == 2 * SWITCHED_FLOWS
    assert all(mbuf.userdata is None for mbuf in mbufs)
    per_packet = (after - before) / SWITCHED_FLOWS
    assert per_packet <= CEILING_RETAINED_BYTES_PER_SWITCHED_PACKET, (
        per_packet)


def test_packets_built_from_one_mac_text_share_one_address():
    first = make_udp_packet(src_mac="02:00:00:00:00:0a", src_port=1)
    second = make_udp_packet(src_mac="02:00:00:00:00:0a", src_port=2)
    assert first.get(Ethernet).src is second.get(Ethernet).src
    assert first.get(Ethernet).dst is second.get(Ethernet).dst
    for _ in range(2):   # a malformed text is refused every time
        with pytest.raises(HeaderError):
            make_udp_packet(src_mac="02:00:00:00:00:zz")
    # A set-field replaces the header's address; the other packet's
    # stays as it was.
    mbuf = Mbuf()
    mbuf.packet = first
    Datapath._apply_set_field(mbuf, "eth_src", 0x02_00_00_00_00_0B)
    assert str(first.get(Ethernet).src) == "02:00:00:00:00:0b"
    assert str(second.get(Ethernet).src) == "02:00:00:00:00:0a"


def _every_header_class():
    """Built UDP, TCP and ARP packets, and parsed VLAN/IPv6/ICMP ones."""
    packets = [make_udp_packet(frame_size=64), make_tcp_packet(),
               make_arp_request()]
    stacked = (Ethernet(eth_type=ETH_TYPE_VLAN).pack()
               + Vlan(eth_type=ETH_TYPE_IPV6).pack()
               + IPv6(next_header=IP_PROTO_ICMP, payload_length=8).pack()
               + Icmp().pack())
    packets.append(Packet.unpack(stacked))
    return [header for packet in packets for header in packet.headers]


def test_no_header_instance_has_a_dict():
    headers = _every_header_class()
    assert {type(header).__name__ for header in headers} == {
        "Ethernet", "Vlan", "Arp", "IPv4", "IPv6", "Tcp", "Udp", "Icmp"}
    addresses = [header.src for header in headers
                 if isinstance(header, Ethernet)]
    addresses += [header.sender_mac for header in headers
                  if isinstance(header, Arp)]
    for obj in headers + addresses:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_padded_packets_share_one_pad_per_length():
    udp = [make_udp_packet(frame_size=128, src_port=port) for port in (1, 2)]
    tcp = make_tcp_packet(frame_size=128)
    assert udp[0].payload is udp[1].payload
    assert udp[0].payload == bytes(128 - 42)
    assert tcp.payload == bytes(128 - 54)
    assert make_tcp_packet(frame_size=128, src_port=7).payload is tcp.payload
    with_data = make_udp_packet(payload=b"x", frame_size=64)
    assert with_data.payload == b"x" + bytes(64 - 43)
    assert with_data.wire_length == 64
