"""The five-``get`` flow-key extractor, kept as the oracle the one-pass
``extract_flow_key`` is checked against.

Until the extractor indexed the header stack by type in one walk, it
asked :meth:`Packet.get` for Ethernet, VLAN, IPv4, IPv6 and the L4
header in turn, each a scan of the stack from the front.
``reference_extract_flow_key`` is that function as it stood.
"""

from repro.packet.flowkey import EMPTY_L3, FlowKey
from repro.packet.headers import (
    ETH_TYPE_IPV4,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Ethernet,
    Icmp,
    IPv4,
    IPv6,
    Tcp,
    Udp,
    Vlan,
)
from repro.packet.packet import Packet


def reference_extract_flow_key(packet: Packet, in_port: int) -> FlowKey:
    """Build the :class:`FlowKey` for ``packet`` received on ``in_port``."""
    eth = packet.get(Ethernet)
    if eth is None:
        return FlowKey(in_port, 0, 0, 0, 0, *EMPTY_L3)

    vlan = packet.get(Vlan)
    vlan_vid = vlan.vid if vlan is not None else 0
    eth_type = vlan.eth_type if vlan is not None else eth.eth_type

    ip_src = ip_dst = ip_proto = ip_tos = 0
    l4_src = l4_dst = 0

    ipv4 = packet.get(IPv4)
    ipv6 = packet.get(IPv6)
    if ipv4 is not None and eth_type == ETH_TYPE_IPV4:
        ip_src, ip_dst = ipv4.src, ipv4.dst
        ip_proto, ip_tos = ipv4.proto, ipv4.tos
    elif ipv6 is not None:
        # Classify IPv6 on the low 32 bits: enough to discriminate flows
        # in the workloads we generate while keeping the key compact.
        ip_src = ipv6.src & 0xFFFFFFFF
        ip_dst = ipv6.dst & 0xFFFFFFFF
        ip_proto = ipv6.next_header
        ip_tos = ipv6.traffic_class

    if ip_proto in (IP_PROTO_TCP, IP_PROTO_UDP):
        l4 = packet.get(Tcp) if ip_proto == IP_PROTO_TCP else packet.get(Udp)
        if l4 is not None:
            l4_src, l4_dst = l4.src_port, l4.dst_port
    elif ip_proto == IP_PROTO_ICMP:
        icmp = packet.get(Icmp)
        if icmp is not None:
            l4_src, l4_dst = icmp.icmp_type, icmp.code

    return FlowKey(
        in_port=in_port,
        eth_src=eth.src.value,
        eth_dst=eth.dst.value,
        eth_type=eth_type,
        vlan_vid=vlan_vid,
        ip_src=ip_src,
        ip_dst=ip_dst,
        ip_proto=ip_proto,
        ip_tos=ip_tos,
        l4_src=l4_src,
        l4_dst=l4_dst,
    )
