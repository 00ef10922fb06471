"""Unit tests for protocol header encode/decode."""

import struct
from dataclasses import FrozenInstanceError

import pytest

from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_VLAN,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Arp,
    Ethernet,
    HeaderError,
    Icmp,
    IPv4,
    IPv6,
    MacAddress,
    Tcp,
    Udp,
    Vlan,
    int_to_ipv4,
    ipv4_to_int,
)


class TestMacAddress:
    def test_from_string_roundtrip(self):
        mac = MacAddress.from_string("02:00:00:aa:bb:cc")
        assert str(mac) == "02:00:00:aa:bb:cc"

    def test_from_bytes_roundtrip(self):
        raw = bytes.fromhex("0200deadbeef")
        assert MacAddress.from_bytes(raw).to_bytes() == raw

    def test_broadcast(self):
        assert MacAddress(0xFFFFFFFFFFFF).is_broadcast
        assert not MacAddress(0x020000000001).is_broadcast

    def test_multicast_bit(self):
        assert MacAddress.from_string("01:00:5e:00:00:01").is_multicast
        assert not MacAddress.from_string("02:00:00:00:00:01").is_multicast

    def test_rejects_out_of_range(self):
        with pytest.raises(HeaderError):
            MacAddress(1 << 48)

    def test_rejects_malformed_string(self):
        with pytest.raises(HeaderError):
            MacAddress.from_string("02:00:00:aa:bb")
        with pytest.raises(HeaderError):
            MacAddress.from_string("0200:00:aa:bb:cc:dd")

    @pytest.mark.parametrize("text", [
        "+1:+2: 3:04:05:06",        # signs and a space int(x, 16) takes
        "01:02:03:04:05:0\u0661",   # a non-ASCII (Arabic-Indic) digit
        "01:02:03:04:05:0x",        # was a bare ValueError
    ])
    def test_rejects_anything_but_two_hex_digits_per_octet(self, text):
        with pytest.raises(HeaderError):
            MacAddress.from_string(text)

    def test_accepts_upper_case_hex(self):
        assert MacAddress.from_string("02:00:00:AA:bb:Cc").value \
            == 0x020000AABBCC

    def test_ordering_and_hash(self):
        a = MacAddress(1)
        b = MacAddress(2)
        assert a < b
        assert len({a, MacAddress(1)}) == 1


class TestIpv4Helpers:
    def test_roundtrip(self):
        assert int_to_ipv4(ipv4_to_int("10.1.2.3")) == "10.1.2.3"

    def test_rejects_bad_octet(self):
        with pytest.raises(HeaderError):
            ipv4_to_int("10.0.0.256")

    def test_rejects_short(self):
        with pytest.raises(HeaderError):
            ipv4_to_int("10.0.0")

    @pytest.mark.parametrize("text", [
        "1_0.0.0.1",                # an underscore int() takes
        "+10.0.0.1",                # a sign int() takes
        "10.0.0. 1",                # a space int() takes
        "10.0.0.1\n",
        "\u0661\u0660.0.0.1",        # non-ASCII (Arabic-Indic) digits
        "10.0.0.0001",              # four digits in an octet
        "10.0..1",                  # was a bare ValueError
    ])
    def test_rejects_anything_but_one_to_three_digits_per_octet(self, text):
        with pytest.raises(HeaderError):
            ipv4_to_int(text)

    def test_accepts_leading_zeros_within_three_digits(self):
        assert ipv4_to_int("010.000.0.01") == 0x0A000001

    def test_int_out_of_range(self):
        with pytest.raises(HeaderError):
            int_to_ipv4(1 << 32)


class TestEthernet:
    def test_pack_layout(self):
        eth = Ethernet(
            dst=MacAddress.from_string("ff:ff:ff:ff:ff:ff"),
            src=MacAddress.from_string("02:00:00:00:00:01"),
            eth_type=ETH_TYPE_ARP,
        )
        raw = eth.pack()
        assert len(raw) == 14
        assert raw[:6] == b"\xff" * 6
        assert raw[12:14] == struct.pack("!H", ETH_TYPE_ARP)

    def test_unpack_roundtrip(self):
        eth = Ethernet(
            dst=MacAddress(0x020000000002),
            src=MacAddress(0x020000000001),
            eth_type=ETH_TYPE_IPV4,
        )
        parsed, consumed = Ethernet.unpack(eth.pack() + b"extra")
        assert consumed == 14
        assert parsed == eth

    def test_truncated(self):
        with pytest.raises(HeaderError):
            Ethernet.unpack(b"\x00" * 13)


class TestVlan:
    def test_roundtrip(self):
        vlan = Vlan(pcp=5, dei=1, vid=100, eth_type=ETH_TYPE_IPV4)
        parsed, consumed = Vlan.unpack(vlan.pack())
        assert consumed == 4
        assert parsed == vlan

    def test_rejects_vid_overflow(self):
        with pytest.raises(HeaderError):
            Vlan(vid=4096).pack()


class TestArp:
    def test_roundtrip(self):
        arp = Arp(
            opcode=2,
            sender_mac=MacAddress(0x020000000001),
            sender_ip=ipv4_to_int("10.0.0.1"),
            target_mac=MacAddress(0x020000000002),
            target_ip=ipv4_to_int("10.0.0.2"),
        )
        parsed, consumed = Arp.unpack(arp.pack())
        assert consumed == 28
        assert parsed == arp

    def test_rejects_non_ethernet_ipv4_variant(self):
        raw = bytearray(Arp().pack())
        raw[0] = 9  # bogus hardware type
        with pytest.raises(HeaderError):
            Arp.unpack(bytes(raw))


class TestIPv4:
    def test_roundtrip_and_checksum(self):
        from repro.packet.checksum import internet_checksum

        ip = IPv4(tos=0x10, total_length=40, identification=7, ttl=63,
                  proto=IP_PROTO_TCP, src=ipv4_to_int("192.168.0.1"),
                  dst=ipv4_to_int("192.168.0.2"))
        raw = ip.pack()
        assert internet_checksum(raw) == 0  # header checksum verifies
        parsed, consumed = IPv4.unpack(raw)
        assert consumed == 20
        assert parsed.src == ip.src and parsed.dst == ip.dst
        assert parsed.checksum == ip.checksum

    def test_unpack_skips_options(self):
        ip = IPv4()
        raw = bytearray(ip.pack())
        raw[0] = (4 << 4) | 6  # ihl = 6 -> 24-byte header
        raw.extend(b"\x00\x00\x00\x00")
        parsed, consumed = IPv4.unpack(bytes(raw))
        assert consumed == 24

    def test_rejects_wrong_version(self):
        raw = bytearray(IPv4().pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(HeaderError):
            IPv4.unpack(bytes(raw))

    def test_rejects_truncated(self):
        with pytest.raises(HeaderError):
            IPv4.unpack(IPv4().pack()[:19])


class TestIPv6:
    def test_roundtrip(self):
        ip6 = IPv6(traffic_class=3, flow_label=0xABCDE, payload_length=8,
                   next_header=IP_PROTO_UDP, hop_limit=7,
                   src=(1 << 127) | 5, dst=(1 << 100) | 9)
        parsed, consumed = IPv6.unpack(ip6.pack())
        assert consumed == 40
        assert parsed == ip6

    def test_rejects_wrong_version(self):
        raw = bytearray(IPv6().pack())
        raw[0] = 0x40  # version 4
        with pytest.raises(HeaderError):
            IPv6.unpack(bytes(raw))


class TestTcp:
    def test_roundtrip(self):
        tcp = Tcp(src_port=40000, dst_port=80, seq=1234, ack=5678,
                  flags=Tcp.SYN | Tcp.ACK, window=512)
        parsed, consumed = Tcp.unpack(tcp.pack())
        assert consumed == 20
        assert parsed.flags == Tcp.SYN | Tcp.ACK
        assert parsed.src_port == 40000

    def test_rejects_bad_offset(self):
        raw = bytearray(Tcp().pack())
        raw[12] = 0x10  # data offset 1 (< 5)
        with pytest.raises(HeaderError):
            Tcp.unpack(bytes(raw))


class TestUdpIcmp:
    def test_udp_roundtrip(self):
        udp = Udp(src_port=53, dst_port=1024, length=20, checksum=0xBEEF)
        parsed, consumed = Udp.unpack(udp.pack())
        assert consumed == 8
        assert parsed == udp

    def test_icmp_roundtrip(self):
        icmp = Icmp(icmp_type=0, code=0, identifier=99, sequence=3)
        parsed, consumed = Icmp.unpack(icmp.pack())
        assert consumed == 8
        assert parsed == icmp

    def test_udp_truncated(self):
        import pytest as _pytest
        with _pytest.raises(HeaderError):
            Udp.unpack(b"\x00" * 7)


class TestSlottedHeaders:
    """The one meaning slotted headers change: there is no per-instance
    ``__dict__`` to take an attribute the class does not declare."""

    @pytest.mark.parametrize("header", [
        Ethernet(), Vlan(), Arp(), IPv4(), IPv6(), Tcp(), Udp(), Icmp(),
    ], ids=lambda header: type(header).__name__)
    def test_setting_an_undeclared_attribute_raises(self, header):
        with pytest.raises(AttributeError):
            header.note = "ad hoc"

    def test_mac_address_stays_frozen(self):
        mac = MacAddress(1)
        with pytest.raises(FrozenInstanceError):
            mac.value = 2
        # A frozen slotted dataclass refuses an undeclared name with a
        # TypeError on Python 3.11 (FrozenInstanceError before slots).
        with pytest.raises((AttributeError, TypeError)):
            mac.note = "ad hoc"
        assert mac == MacAddress(1) and not hasattr(mac, "note")
