"""Protocol header classes with real binary encode/decode.

Every header knows how to ``pack()`` itself to wire bytes and how to
``unpack(data)`` itself from them (classmethod returning ``(header,
consumed_bytes)``).  Addresses are kept as small value types so they hash
and compare cheaply in flow tables.
"""

import struct
from dataclasses import dataclass, field

from repro.packet.checksum import internet_checksum

ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_VLAN = 0x8100
ETH_TYPE_IPV6 = 0x86DD

IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

ETHERNET_HEADER_LEN = 14
VLAN_HEADER_LEN = 4
IPV4_MIN_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
TCP_MIN_HEADER_LEN = 20
UDP_HEADER_LEN = 8
ICMP_HEADER_LEN = 8
ARP_IPV4_LEN = 28


class HeaderError(ValueError):
    """Raised when a header cannot be parsed or encoded."""


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit Ethernet MAC address stored as an integer."""

    value: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise HeaderError("MAC address out of range: %#x" % self.value)

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff``."""
        parts = text.split(":")
        if len(parts) != 6:
            raise HeaderError("malformed MAC address: %r" % text)
        value = 0
        for part in parts:
            if len(part) != 2:
                raise HeaderError("malformed MAC address: %r" % text)
            value = (value << 8) | int(part, 16)
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        if len(data) != 6:
            raise HeaderError("MAC address needs 6 bytes, got %d" % len(data))
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self.value == 0xFFFFFFFFFFFF

    @property
    def is_multicast(self) -> bool:
        return bool((self.value >> 40) & 0x01)

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join("%02x" % byte for byte in raw)

    def __int__(self) -> int:
        return self.value


def ipv4_to_int(text: str) -> int:
    """Parse dotted-quad ``a.b.c.d`` into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise HeaderError("malformed IPv4 address: %r" % text)
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise HeaderError("malformed IPv4 address: %r" % text)
        value = (value << 8) | octet
    return value


def int_to_ipv4(value: int) -> str:
    """Format a 32-bit integer as dotted-quad."""
    if not 0 <= value < (1 << 32):
        raise HeaderError("IPv4 address out of range: %#x" % value)
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass
class Ethernet:
    """Ethernet II header."""

    dst: MacAddress = field(default_factory=MacAddress)
    src: MacAddress = field(default_factory=MacAddress)
    eth_type: int = ETH_TYPE_IPV4

    def pack(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack(
            "!H", self.eth_type
        )

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[Ethernet, int]":
        if len(data) < ETHERNET_HEADER_LEN:
            raise HeaderError("truncated Ethernet header")
        dst = MacAddress.from_bytes(data[0:6])
        src = MacAddress.from_bytes(data[6:12])
        (eth_type,) = struct.unpack("!H", data[12:14])
        return cls(dst=dst, src=src, eth_type=eth_type), ETHERNET_HEADER_LEN

    def __len__(self) -> int:
        return ETHERNET_HEADER_LEN


@dataclass
class Vlan:
    """802.1Q VLAN tag (follows the Ethernet header)."""

    pcp: int = 0
    dei: int = 0
    vid: int = 0
    eth_type: int = ETH_TYPE_IPV4

    def pack(self) -> bytes:
        if not 0 <= self.vid < 4096:
            raise HeaderError("VLAN id out of range: %d" % self.vid)
        tci = (self.pcp & 0x7) << 13 | (self.dei & 0x1) << 12 | self.vid
        return struct.pack("!HH", tci, self.eth_type)

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[Vlan, int]":
        if len(data) < VLAN_HEADER_LEN:
            raise HeaderError("truncated VLAN tag")
        tci, eth_type = struct.unpack("!HH", data[:4])
        return (
            cls(pcp=tci >> 13, dei=(tci >> 12) & 1, vid=tci & 0xFFF,
                eth_type=eth_type),
            VLAN_HEADER_LEN,
        )

    def __len__(self) -> int:
        return VLAN_HEADER_LEN


@dataclass
class Arp:
    """ARP for IPv4 over Ethernet."""

    opcode: int = 1  # 1 = request, 2 = reply
    sender_mac: MacAddress = field(default_factory=MacAddress)
    sender_ip: int = 0
    target_mac: MacAddress = field(default_factory=MacAddress)
    target_ip: int = 0

    def pack(self) -> bytes:
        return (
            struct.pack("!HHBBH", 1, ETH_TYPE_IPV4, 6, 4, self.opcode)
            + self.sender_mac.to_bytes()
            + struct.pack("!I", self.sender_ip)
            + self.target_mac.to_bytes()
            + struct.pack("!I", self.target_ip)
        )

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[Arp, int]":
        if len(data) < ARP_IPV4_LEN:
            raise HeaderError("truncated ARP packet")
        htype, ptype, hlen, plen, opcode = struct.unpack("!HHBBH", data[:8])
        if (htype, ptype, hlen, plen) != (1, ETH_TYPE_IPV4, 6, 4):
            raise HeaderError("unsupported ARP variant")
        sender_mac = MacAddress.from_bytes(data[8:14])
        (sender_ip,) = struct.unpack("!I", data[14:18])
        target_mac = MacAddress.from_bytes(data[18:24])
        (target_ip,) = struct.unpack("!I", data[24:28])
        return (
            cls(opcode=opcode, sender_mac=sender_mac, sender_ip=sender_ip,
                target_mac=target_mac, target_ip=target_ip),
            ARP_IPV4_LEN,
        )

    def __len__(self) -> int:
        return ARP_IPV4_LEN


@dataclass
class IPv4:
    """IPv4 header (options unsupported; ihl fixed at 5)."""

    tos: int = 0
    total_length: int = IPV4_MIN_HEADER_LEN
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0
    ttl: int = 64
    proto: int = IP_PROTO_UDP
    checksum: int = 0
    src: int = 0
    dst: int = 0

    def pack(self, *, fill_checksum: bool = True) -> bytes:
        version_ihl = (4 << 4) | 5
        flags_frag = (self.flags & 0x7) << 13 | (self.fragment_offset & 0x1FFF)
        header = struct.pack(
            "!BBHHHBBHII",
            version_ihl,
            self.tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.proto,
            0 if fill_checksum else self.checksum,
            self.src,
            self.dst,
        )
        if not fill_checksum:
            return header
        checksum = internet_checksum(header)
        self.checksum = checksum
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[IPv4, int]":
        if len(data) < IPV4_MIN_HEADER_LEN:
            raise HeaderError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBHII", data[:20])
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise HeaderError("not an IPv4 header (version=%d)" % version)
        if ihl < 5:
            raise HeaderError("bad IPv4 ihl: %d" % ihl)
        header_len = ihl * 4
        if len(data) < header_len:
            raise HeaderError("truncated IPv4 options")
        return (
            cls(
                tos=tos,
                total_length=total_length,
                identification=identification,
                flags=flags_frag >> 13,
                fragment_offset=flags_frag & 0x1FFF,
                ttl=ttl,
                proto=proto,
                checksum=checksum,
                src=src,
                dst=dst,
            ),
            header_len,
        )

    def __len__(self) -> int:
        return IPV4_MIN_HEADER_LEN


@dataclass
class IPv6:
    """IPv6 header (no extension-header parsing)."""

    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0
    next_header: int = IP_PROTO_UDP
    hop_limit: int = 64
    src: int = 0  # 128-bit integer
    dst: int = 0

    def pack(self) -> bytes:
        word0 = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return (
            struct.pack("!IHBB", word0, self.payload_length,
                        self.next_header, self.hop_limit)
            + self.src.to_bytes(16, "big")
            + self.dst.to_bytes(16, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[IPv6, int]":
        if len(data) < IPV6_HEADER_LEN:
            raise HeaderError("truncated IPv6 header")
        word0, payload_length, next_header, hop_limit = struct.unpack(
            "!IHBB", data[:8]
        )
        if word0 >> 28 != 6:
            raise HeaderError("not an IPv6 header")
        return (
            cls(
                traffic_class=(word0 >> 20) & 0xFF,
                flow_label=word0 & 0xFFFFF,
                payload_length=payload_length,
                next_header=next_header,
                hop_limit=hop_limit,
                src=int.from_bytes(data[8:24], "big"),
                dst=int.from_bytes(data[24:40], "big"),
            ),
            IPV6_HEADER_LEN,
        )

    def __len__(self) -> int:
        return IPV6_HEADER_LEN


@dataclass
class Tcp:
    """TCP header (options unsupported; data offset fixed at 5)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    def pack(self) -> bytes:
        offset_flags = (5 << 12) | (self.flags & 0x1FF)
        return struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[Tcp, int]":
        if len(data) < TCP_MIN_HEADER_LEN:
            raise HeaderError("truncated TCP header")
        (src_port, dst_port, seq, ack, offset_flags, window, checksum,
         urgent) = struct.unpack("!HHIIHHHH", data[:20])
        offset = (offset_flags >> 12) * 4
        if offset < TCP_MIN_HEADER_LEN or len(data) < offset:
            raise HeaderError("bad TCP data offset")
        return (
            cls(
                src_port=src_port,
                dst_port=dst_port,
                seq=seq,
                ack=ack,
                flags=offset_flags & 0x1FF,
                window=window,
                checksum=checksum,
                urgent=urgent,
            ),
            offset,
        )

    def __len__(self) -> int:
        return TCP_MIN_HEADER_LEN


@dataclass
class Udp:
    """UDP header."""

    src_port: int = 0
    dst_port: int = 0
    length: int = UDP_HEADER_LEN
    checksum: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            "!HHHH", self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[Udp, int]":
        if len(data) < UDP_HEADER_LEN:
            raise HeaderError("truncated UDP header")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:8])
        return (
            cls(src_port=src_port, dst_port=dst_port, length=length,
                checksum=checksum),
            UDP_HEADER_LEN,
        )

    def __len__(self) -> int:
        return UDP_HEADER_LEN


@dataclass
class Icmp:
    """ICMP echo-style header."""

    icmp_type: int = 8  # echo request
    code: int = 0
    checksum: int = 0
    identifier: int = 0
    sequence: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            "!BBHHH", self.icmp_type, self.code, self.checksum,
            self.identifier, self.sequence
        )

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[Icmp, int]":
        if len(data) < ICMP_HEADER_LEN:
            raise HeaderError("truncated ICMP header")
        icmp_type, code, checksum, identifier, sequence = struct.unpack(
            "!BBHHH", data[:8]
        )
        return (
            cls(icmp_type=icmp_type, code=code, checksum=checksum,
                identifier=identifier, sequence=sequence),
            ICMP_HEADER_LEN,
        )

    def __len__(self) -> int:
        return ICMP_HEADER_LEN
