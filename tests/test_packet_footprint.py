"""A packet costs its fields: the memory a built packet holds, as a
tier-1 ceiling.

``switch_miss_churn`` keeps tens of thousands of built packets alive, so
its peak RSS is mostly what one ``make_udp_packet`` allocates.  Like
``tests/test_host_calls.py`` for calls per packet, this holds that
figure under a committed ceiling: ``tracemalloc`` counts the bytes
Python allocates, which repeat exactly on any machine with the same
interpreter.  Two further checks hold the mechanism: header instances
are slotted (no per-instance ``__dict__``), and padded packets share one
zero-filled pad per pad length.
"""

import random
import tracemalloc

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
    Icmp,
    IPv6,
    Vlan,
)
from repro.packet.packet import Packet

PACKETS = 10_000
# 536 traced bytes per 64 B UDP packet on Python 3.11.7, plus 10 %.
# Lower it when the figure falls; raising it needs a reason.  It read
# 800 while every header and ``MacAddress`` carried a ``__dict__`` and
# every packet padded with its own zero bytes.  (Kept in a growing list
# instead of the preallocated one below, the two read 544 and 808.)
CEILING_TRACED_BYTES_PER_PACKET = 589


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
