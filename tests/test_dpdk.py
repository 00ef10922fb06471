"""Tests for the DPDK substrate: EAL, dpdkr devices, virtio-serial."""

import pytest

from repro.dpdk.dpdkr import DpdkrPmd, DpdkrSharedRings, dpdkr_zone_name
from repro.dpdk.eal import Eal, EalError
from repro.dpdk.virtio_serial import ControlMessage, VirtioSerial
from repro.mem.memzone import MemzoneRegistry
from repro.sim.engine import Environment

from tests.helpers import mk_mbuf


class TestEal:
    def test_primary_reserves_and_sees_all(self):
        registry = MemzoneRegistry()
        host = Eal(registry)
        zone = host.reserve_memzone("z1")
        assert host.lookup_memzone("z1") is zone
        assert host.is_primary

    def test_guest_cannot_reserve(self):
        registry = MemzoneRegistry()
        guest = Eal(registry, vm_name="vm1")
        with pytest.raises(EalError):
            guest.reserve_memzone("z1")

    def test_guest_visibility_enforced(self):
        registry = MemzoneRegistry()
        registry.reserve("z1")
        guest = Eal(registry, vm_name="vm1")
        with pytest.raises(EalError):
            guest.lookup_memzone("z1")
        registry.map_into("z1", "vm1")
        assert guest.lookup_memzone("z1").name == "z1"
        assert len(guest.visible_zones()) == 1

    def test_port_registration(self):
        registry = MemzoneRegistry()
        host = Eal(registry)
        rings = DpdkrSharedRings(registry, "dpdkr0")
        pmd = DpdkrPmd(0, rings)
        port_id = host.register_port(pmd)
        assert host.port(port_id) is pmd
        assert host.port_count == 1
        with pytest.raises(EalError):
            host.port(99)

    def test_replace_port_keeps_id(self):
        registry = MemzoneRegistry()
        host = Eal(registry)
        rings = DpdkrSharedRings(registry, "dpdkr0")
        old = DpdkrPmd(0, rings)
        port_id = host.register_port(old)
        new = DpdkrPmd(0, rings)
        replaced = host.replace_port(port_id, new)
        assert replaced is old
        assert host.port(port_id) is new
        assert new.port_id == port_id


class TestDpdkrSharedRings:
    def test_zone_naming(self):
        assert dpdkr_zone_name("dpdkr3") == "rte_eth_ring.dpdkr3"

    def test_rings_live_in_zone(self):
        registry = MemzoneRegistry()
        rings = DpdkrSharedRings(registry, "dpdkr0")
        zone = registry.lookup(dpdkr_zone_name("dpdkr0"))
        assert zone.get("tx") is rings.to_switch
        assert zone.get("rx") is rings.to_guest

    def test_attach_sees_same_rings(self):
        registry = MemzoneRegistry()
        original = DpdkrSharedRings(registry, "dpdkr0")
        zone = registry.lookup(dpdkr_zone_name("dpdkr0"))
        attached = DpdkrSharedRings.attach(zone)
        assert attached.to_switch is original.to_switch
        assert attached.port_name == "dpdkr0"

    def test_pmd_stats(self):
        registry = MemzoneRegistry()
        pmd = DpdkrPmd(0, DpdkrSharedRings(registry, "dpdkr0"))
        mbuf = mk_mbuf(frame_size=64)
        pmd.tx_burst([mbuf])
        assert (pmd.stats.opackets, pmd.stats.obytes) == (1, 64)
        pmd.rings.to_guest.enqueue(mbuf)
        pmd.rx_burst(4)
        assert (pmd.stats.ipackets, pmd.stats.ibytes) == (1, 64)

    def test_pmd_tx_full_counts_errors(self):
        registry = MemzoneRegistry()
        pmd = DpdkrPmd(0, DpdkrSharedRings(registry, "dpdkr0",
                                           ring_size=4))
        mbufs = [mk_mbuf() for _ in range(5)]
        assert pmd.tx_burst(mbufs) == 3
        assert pmd.stats.oerrors == 2


class TestVirtioSerial:
    def test_sync_request_reply(self):
        env = Environment()
        channel = VirtioSerial("vm1.serial", env)
        log = []

        def guest(message):
            log.append(("guest", message.command))
            return ControlMessage("ok", {"request_id": 1})

        channel.guest_handler = guest
        channel.host_handler = lambda m: log.append(("host", m.command))
        channel.host_send(ControlMessage("ping", {"request_id": 1}))
        assert log == []   # nothing is delivered on the sender's stack
        env.run()
        assert log == [("guest", "ping"), ("host", "ok")]

    def test_no_handler_nacks_instead_of_raising(self):
        # A delivery failure comes back as an in-band error reply,
        # never as an exception out of the engine.
        env = Environment()
        channel = VirtioSerial("vm1.serial", env)
        nacks = []
        channel.host_handler = lambda m: nacks.append(m) or None
        channel.host_send(ControlMessage("ping", {"request_id": 7}))
        env.run()
        assert [m.command for m in nacks] == ["error"]
        assert nacks[0].args["request_id"] == 7

    def test_no_handler_on_either_side_drops_the_nack(self):
        # When even the NACK cannot be delivered, the channel swallows
        # it (counting a drop) instead of ping-ponging errors forever.
        env = Environment()
        channel = VirtioSerial("vm1.serial", env)
        channel.host_send(ControlMessage("ping"))
        env.run()
        assert channel.dropped_messages == 1

    def test_latency_applied(self):
        env = Environment()
        channel = VirtioSerial("vm1.serial", env, one_way_latency=0.005)
        arrivals = []
        channel.guest_handler = lambda m: arrivals.append(env.now)
        channel.host_send(ControlMessage("a"))
        env.run()
        assert arrivals == [pytest.approx(0.005)]

    def test_in_order_delivery(self):
        env = Environment()
        channel = VirtioSerial("vm1.serial", env, one_way_latency=0.001)
        arrivals = []
        channel.guest_handler = lambda m: arrivals.append(m.command)
        for index in range(5):
            channel.host_send(ControlMessage("m%d" % index))
        env.run()
        assert arrivals == ["m0", "m1", "m2", "m3", "m4"]

    def test_reply_round_trip_latency(self):
        env = Environment()
        channel = VirtioSerial("vm1.serial", env, one_way_latency=0.004)
        done = []
        channel.guest_handler = lambda m: ControlMessage("ok", m.args)
        channel.host_handler = lambda m: done.append(env.now)
        channel.host_send(ControlMessage("cmd", {"request_id": 9}))
        env.run()
        assert done == [pytest.approx(0.008)]

    def test_logs_kept(self):
        channel = VirtioSerial("vm1.serial", Environment())
        channel.guest_handler = lambda m: None
        channel.host_send(ControlMessage("a"))
        assert [m.command for m in channel.to_guest_log] == ["a"]
