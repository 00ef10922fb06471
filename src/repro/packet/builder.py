"""Convenience constructors for common test/workload packets."""

import functools
from typing import Optional

from repro.packet.checksum import pseudo_header_checksum
from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    IPV4_MIN_HEADER_LEN,
    TCP_MIN_HEADER_LEN,
    UDP_HEADER_LEN,
    Arp,
    Ethernet,
    IPv4,
    MacAddress,
    Tcp,
    Udp,
    ipv4_to_int,
)
from repro.packet.packet import Packet

ETHERNET_OVERHEAD = 14


@functools.lru_cache(maxsize=256)
def _zero_pad(length: int) -> bytes:
    """One zero-filled pad per length, shared: ``bytes`` are immutable."""
    return bytes(length)


def _resolve_mac(mac) -> MacAddress:
    if isinstance(mac, MacAddress):
        return mac
    if isinstance(mac, str):
        return MacAddress.from_string(mac)
    return MacAddress(int(mac))


def _resolve_ip(ip) -> int:
    if isinstance(ip, str):
        return ipv4_to_int(ip)
    return int(ip)


def pad_to(packet: Packet, frame_size: int) -> Packet:
    """Pad ``packet.payload`` so the serialized frame is ``frame_size``.

    Raises ValueError when the packet is already longer than the target.
    """
    current = packet.wire_length
    if current > frame_size:
        raise ValueError(
            "packet is %d bytes, cannot pad down to %d" % (current, frame_size)
        )
    pad = _zero_pad(frame_size - current)
    packet.payload = packet.payload + pad if packet.payload else pad
    # Fix the IP/UDP length fields so the padded frame stays well-formed.
    ipv4 = packet.get(IPv4)
    if ipv4 is not None:
        ipv4.total_length = frame_size - ETHERNET_OVERHEAD
        udp = packet.get(Udp)
        if udp is not None:
            udp.length = ipv4.total_length - IPV4_MIN_HEADER_LEN
    return packet


def make_udp_packet(
    src_mac="02:00:00:00:00:01",
    dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1",
    dst_ip="10.0.0.2",
    src_port: int = 1000,
    dst_port: int = 2000,
    payload: bytes = b"",
    frame_size: Optional[int] = None,
    fill_checksums: bool = True,
) -> Packet:
    """Build an Ethernet/IPv4/UDP packet, optionally padded to a size."""
    udp_length = UDP_HEADER_LEN + len(payload)
    ipv4 = IPv4(
        total_length=IPV4_MIN_HEADER_LEN + udp_length,
        proto=IP_PROTO_UDP,
        src=_resolve_ip(src_ip),
        dst=_resolve_ip(dst_ip),
    )
    udp = Udp(src_port=src_port, dst_port=dst_port, length=udp_length)
    packet = Packet(
        headers=[
            Ethernet(dst=_resolve_mac(dst_mac), src=_resolve_mac(src_mac),
                     eth_type=ETH_TYPE_IPV4),
            ipv4,
            udp,
        ],
        payload=payload,
    )
    if frame_size is not None:
        pad_to(packet, frame_size)
    if fill_checksums:
        udp.checksum = pseudo_header_checksum(
            ipv4.src, ipv4.dst, IP_PROTO_UDP, udp.pack()[:6] + b"\x00\x00"
            + packet.payload
        )
    return packet


def make_tcp_packet(
    src_mac="02:00:00:00:00:01",
    dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1",
    dst_ip="10.0.0.2",
    src_port: int = 40000,
    dst_port: int = 80,
    seq: int = 0,
    flags: int = Tcp.ACK,
    payload: bytes = b"",
    frame_size: Optional[int] = None,
) -> Packet:
    """Build an Ethernet/IPv4/TCP packet (e.g. the web traffic class)."""
    ipv4 = IPv4(
        total_length=IPV4_MIN_HEADER_LEN + TCP_MIN_HEADER_LEN + len(payload),
        proto=IP_PROTO_TCP,
        src=_resolve_ip(src_ip),
        dst=_resolve_ip(dst_ip),
    )
    tcp = Tcp(src_port=src_port, dst_port=dst_port, seq=seq, flags=flags)
    packet = Packet(
        headers=[
            Ethernet(dst=_resolve_mac(dst_mac), src=_resolve_mac(src_mac),
                     eth_type=ETH_TYPE_IPV4),
            ipv4,
            tcp,
        ],
        payload=payload,
    )
    if frame_size is not None:
        pad_to(packet, frame_size)
    tcp.checksum = pseudo_header_checksum(
        ipv4.src, ipv4.dst, IP_PROTO_TCP,
        tcp.pack()[:16] + b"\x00\x00" + tcp.pack()[18:] + packet.payload,
    )
    return packet


def make_arp_request(
    sender_mac="02:00:00:00:00:01",
    sender_ip="10.0.0.1",
    target_ip="10.0.0.2",
) -> Packet:
    """Build a broadcast ARP who-has request."""
    sender = _resolve_mac(sender_mac)
    return Packet(
        headers=[
            Ethernet(
                dst=MacAddress(0xFFFFFFFFFFFF),
                src=sender,
                eth_type=ETH_TYPE_ARP,
            ),
            Arp(
                opcode=1,
                sender_mac=sender,
                sender_ip=_resolve_ip(sender_ip),
                target_mac=MacAddress(0),
                target_ip=_resolve_ip(target_ip),
            ),
        ]
    )
