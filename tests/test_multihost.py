"""Tests for the cable between two hosts' NICs."""

from repro.mem.mempool import Mempool
from repro.sim.engine import Environment
from repro.sim.nic import Nic, connect_nics

from tests.helpers import mk_mbuf


class TestConnectNics:
    def test_frames_cross_the_wire(self):
        env = Environment()
        nic_a = Nic(env, "a")
        nic_b = Nic(env, "b")
        connect_nics(nic_a, nic_b)
        pool = Mempool("p", size=16)
        nic_a.host_tx_burst([mk_mbuf(pool=pool, frame_size=64)])
        env.run(until=1e-3)
        assert nic_b.rx_packets == 1
        received = nic_b.host_rx_burst(8)
        assert len(received) == 1
        received[0].free()

    def test_bidirectional(self):
        env = Environment()
        nic_a = Nic(env, "a")
        nic_b = Nic(env, "b")
        connect_nics(nic_a, nic_b)
        nic_b.host_tx_burst([mk_mbuf(frame_size=64)])
        env.run(until=1e-3)
        assert nic_a.rx_packets == 1
