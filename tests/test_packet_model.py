"""Tests for Packet parse/build, checksums, builder helpers and flow keys."""

import pytest

from repro.packet import (
    ETH_TYPE_IPV4,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Ethernet,
    FlowKey,
    IPv4,
    Packet,
    Tcp,
    Udp,
    Vlan,
    extract_flow_key,
    internet_checksum,
    make_arp_request,
    make_tcp_packet,
    make_udp_packet,
    pad_to,
)
from repro.packet.flowkey import RekeyMemo, cached_flow_key, key_with_port
from repro.packet.headers import Arp, ipv4_to_int
from repro.packet.mbuf import Mbuf


class TestChecksum:
    def test_rfc1071_example(self):
        # Canonical example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verifies_to_zero(self):
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        checked = data + (0x220D).to_bytes(2, "big")
        assert internet_checksum(checked) == 0


class TestPacketRoundtrip:
    def test_udp_roundtrip(self):
        packet = make_udp_packet(payload=b"hello", frame_size=64)
        raw = packet.pack()
        assert len(raw) == 64
        parsed = Packet.unpack(raw)
        assert parsed.get(Ethernet) is not None
        assert parsed.get(IPv4).proto == IP_PROTO_UDP
        assert parsed.get(Udp).dst_port == 2000
        assert parsed.pack() == raw

    def test_tcp_roundtrip(self):
        packet = make_tcp_packet(dst_port=80, payload=b"GET /")
        parsed = Packet.unpack(packet.pack())
        assert parsed.get(Tcp).dst_port == 80
        assert parsed.payload == b"GET /"

    def test_arp_roundtrip(self):
        packet = make_arp_request()
        parsed = Packet.unpack(packet.pack())
        arp = parsed.get(Arp)
        assert arp is not None
        assert arp.opcode == 1
        assert parsed.get(Ethernet).dst.is_broadcast

    def test_vlan_stacking(self):
        inner = make_udp_packet()
        eth = inner.get(Ethernet)
        ip = inner.get(IPv4)
        udp = inner.get(Udp)
        eth.eth_type = 0x8100
        tagged = Packet(
            headers=[eth, Vlan(vid=42, eth_type=ETH_TYPE_IPV4), ip, udp],
            payload=inner.payload,
        )
        parsed = Packet.unpack(tagged.pack())
        assert parsed.get(Vlan).vid == 42
        assert parsed.get(IPv4) is not None

    def test_unknown_eth_type_keeps_payload(self):
        from repro.packet.headers import MacAddress

        packet = Packet(
            headers=[Ethernet(dst=MacAddress(1), src=MacAddress(2),
                              eth_type=0x88CC)],
            payload=b"lldp-ish",
        )
        parsed = Packet.unpack(packet.pack())
        assert len(parsed.headers) == 1
        assert parsed.payload == b"lldp-ish"

    def test_wire_length(self):
        packet = make_udp_packet(frame_size=128)
        assert packet.wire_length == 128
        assert len(packet.pack()) == 128


class TestPadTo:
    def test_pad_updates_ip_and_udp_lengths(self):
        packet = make_udp_packet(frame_size=96)
        assert packet.get(IPv4).total_length == 96 - 14
        assert packet.get(Udp).length == 96 - 14 - 20

    def test_pad_down_raises(self):
        packet = make_udp_packet(payload=b"x" * 200)
        with pytest.raises(ValueError):
            pad_to(packet, 64)


class TestFlowKey:
    def test_udp_key_fields(self):
        packet = make_udp_packet(
            src_ip="10.0.0.1", dst_ip="10.0.0.9", src_port=1111,
            dst_port=2222,
        )
        key = extract_flow_key(packet, in_port=7)
        assert key.in_port == 7
        assert key.eth_type == ETH_TYPE_IPV4
        assert key.ip_src == ipv4_to_int("10.0.0.1")
        assert key.ip_dst == ipv4_to_int("10.0.0.9")
        assert key.ip_proto == IP_PROTO_UDP
        assert (key.l4_src, key.l4_dst) == (1111, 2222)

    def test_tcp_key(self):
        packet = make_tcp_packet(dst_port=80)
        key = extract_flow_key(packet, in_port=1)
        assert key.ip_proto == IP_PROTO_TCP
        assert key.l4_dst == 80

    def test_arp_key_zero_l3(self):
        key = extract_flow_key(make_arp_request(), in_port=3)
        assert key.ip_src == 0 and key.l4_dst == 0

    def test_key_is_hashable_and_stable(self):
        packet = make_udp_packet()
        assert extract_flow_key(packet, 1) == extract_flow_key(packet, 1)
        assert hash(extract_flow_key(packet, 1)) == hash(
            extract_flow_key(packet, 1)
        )

    def test_key_with_port(self):
        key = extract_flow_key(make_udp_packet(), 1)
        rekeyed = key_with_port(key, 9)
        assert rekeyed.in_port == 9
        assert rekeyed._replace(in_port=1) == key

    def test_cached_flow_key_on_mbuf(self):
        mbuf = Mbuf()
        mbuf.packet = make_udp_packet()
        first = cached_flow_key(mbuf, 4)
        assert mbuf.userdata is first
        again = cached_flow_key(mbuf, 4)
        assert again is first
        other_port = cached_flow_key(mbuf, 5)
        assert other_port.in_port == 5
        assert other_port._replace(in_port=4) == first


class TestRekeyMemo:
    @staticmethod
    def _templated(**udp_kwargs):
        """An mbuf the way a generator emits it: key cached at port 0."""
        mbuf = Mbuf()
        mbuf.packet = make_udp_packet(**udp_kwargs)
        mbuf.userdata = extract_flow_key(mbuf.packet, in_port=0)
        return mbuf

    def test_agrees_with_cached_flow_key(self):
        memo = RekeyMemo()
        burst = [self._templated(src_port=2000 + i % 3) for i in range(9)]
        burst.append(Mbuf())                      # nothing cached yet
        burst[-1].packet = make_udp_packet(src_port=2003)
        keys = memo.keys_at(burst, in_port=7)
        assert keys == [cached_flow_key(mbuf, 7) for mbuf in burst]
        assert burst[-1].userdata is keys[-1]     # extracted at port 7
        assert burst[0].userdata.in_port == 0     # template not rewritten

    def test_steady_flow_rekeys_once_per_port(self):
        memo = RekeyMemo()
        mbuf = self._templated()
        first = memo.keys_at([mbuf] * 4, in_port=3)
        assert all(key is first[0] for key in first)
        memo.keys_at([mbuf], in_port=3)
        memo.keys_at([mbuf], in_port=5)
        assert (memo.hits, memo.misses, memo.entries) == (4, 2, 2)

    def test_ever_new_flows_never_exceed_the_cap(self):
        memo = RekeyMemo()
        flows = RekeyMemo.CAP + 200
        for i in range(flows):
            mbuf = self._templated(src_port=2000 + i)
            [key] = memo.keys_at([mbuf], in_port=3)
            assert key == extract_flow_key(mbuf.packet, 3)
            assert memo.entries <= RekeyMemo.CAP
        assert memo.entries == RekeyMemo.CAP
        assert (memo.hits, memo.misses) == (0, flows)
        # Oldest out first: the newest flow is still memoised.
        memo.keys_at([mbuf], in_port=3)
        assert memo.hits == 1
        memo.forget(3)
        assert memo.entries == 0

    def test_rewritten_packet_is_re_extracted(self):
        memo = RekeyMemo()
        mbuf = self._templated(dst_port=80)
        memo.keys_at([mbuf], in_port=3)
        # What a set_field action does: rewrite, then drop the cache.
        mbuf.packet.get(Udp).dst_port = 9999
        mbuf.userdata = None
        [key] = memo.keys_at([mbuf], in_port=3)
        assert key.l4_dst == 9999 and key.in_port == 3


class TestMbuf:
    def test_refcount_free(self):
        class FakePool:
            def __init__(self):
                self.returned = []

            def put(self, mbuf):
                self.returned.append(mbuf)

        pool = FakePool()
        mbuf = Mbuf(pool=pool)
        mbuf.retain()
        mbuf.free()
        assert not pool.returned
        mbuf.free()
        assert pool.returned == [mbuf]

    def test_double_free_raises(self):
        mbuf = Mbuf()
        mbuf.free()
        with pytest.raises(RuntimeError):
            mbuf.free()

    def test_reset_clears_metadata(self):
        mbuf = Mbuf()
        mbuf.port = 3
        mbuf.seq = 9
        mbuf.userdata = "x"
        mbuf.reset()
        assert mbuf.port == -1 and mbuf.seq == -1 and mbuf.userdata is None
