"""The :class:`Packet` container: an ordered header stack plus payload."""

from typing import List, Optional, Type, TypeVar, Union

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
    HeaderError,
    Icmp,
    IPv4,
    IPv6,
    Tcp,
    Udp,
    Vlan,
)

Header = Union[Ethernet, Vlan, Arp, IPv4, IPv6, Tcp, Udp, Icmp]
HeaderT = TypeVar("HeaderT")

_ETH_TYPE_DISPATCH = {
    ETH_TYPE_IPV4: IPv4,
    ETH_TYPE_IPV6: IPv6,
    ETH_TYPE_ARP: Arp,
    ETH_TYPE_VLAN: Vlan,
}

_IP_PROTO_DISPATCH = {
    IP_PROTO_TCP: Tcp,
    IP_PROTO_UDP: Udp,
    IP_PROTO_ICMP: Icmp,
}


class Packet:
    """A parsed packet: a list of headers and an opaque payload.

    Packets are what flows through rings and ports in functional tests and
    examples.  (Throughput benchmarks use recycled mbufs carrying a single
    pre-built packet to keep the simulator fast; the classes are
    interchangeable at the port API.)
    """

    __slots__ = ("headers", "payload")

    def __init__(self, headers: Optional[List[Header]] = None,
                 payload: bytes = b"") -> None:
        self.headers: List[Header] = headers if headers is not None else []
        self.payload = payload

    def get(self, header_type: Type[HeaderT]) -> Optional[HeaderT]:
        """Return the first header of ``header_type``, or None."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    def pack(self) -> bytes:
        """Serialize the full packet to wire bytes."""
        return b"".join(header.pack() for header in self.headers) + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "Packet":
        """Parse wire bytes into a header stack.

        Parsing starts at Ethernet and walks eth_type / ip proto chains;
        anything unrecognized (or past TCP/UDP/ICMP) lands in ``payload``.
        """
        headers: List[Header] = []
        ethernet, offset = Ethernet.unpack(data)
        headers.append(ethernet)
        eth_type = ethernet.eth_type
        # Unwrap (possibly stacked) VLAN tags.
        while eth_type == ETH_TYPE_VLAN:
            vlan, consumed = Vlan.unpack(data[offset:])
            headers.append(vlan)
            offset += consumed
            eth_type = vlan.eth_type

        next_cls = _ETH_TYPE_DISPATCH.get(eth_type)
        if next_cls in (IPv4, IPv6):
            ip_header, consumed = next_cls.unpack(data[offset:])
            headers.append(ip_header)
            offset += consumed
            proto = (
                ip_header.proto if isinstance(ip_header, IPv4)
                else ip_header.next_header
            )
            l4_cls = _IP_PROTO_DISPATCH.get(proto)
            if l4_cls is not None:
                try:
                    l4_header, consumed = l4_cls.unpack(data[offset:])
                except HeaderError:
                    pass  # leave the L4 bytes in the payload
                else:
                    headers.append(l4_header)
                    offset += consumed
        elif next_cls is Arp:
            arp, consumed = Arp.unpack(data[offset:])
            headers.append(arp)
            offset += consumed

        return cls(headers=headers, payload=data[offset:])

    @property
    def wire_length(self) -> int:
        """Total length in bytes when serialized."""
        return sum(len(header) for header in self.headers) + len(self.payload)

    def __repr__(self) -> str:
        names = "/".join(type(header).__name__ for header in self.headers)
        return "<Packet %s payload=%dB>" % (names, len(self.payload))
