"""Tests for the poll-loop core model and the NIC line-rate model."""

import pytest

from repro.mem.mempool import Mempool
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.engine import Environment, SimulationError
from repro.sim.nic import NIC_10G_LINE_RATE_BPS, Nic, line_rate_pps
from repro.sim.pollloop import PollLoop

from tests.helpers import mk_mbuf


class TestPollLoop:
    def test_busy_iterations_advance_by_cost(self):
        env = Environment()
        calls = []

        def iteration():
            calls.append(env.now)
            return 1e-6 if len(calls) < 4 else 0.0

        loop = PollLoop(env, "t", iteration).start()
        env.run(until=3.5e-6)
        loop.stop()
        assert calls[:4] == [0.0, 1e-6, 2e-6, 3e-6]
        assert loop.busy_time == pytest.approx(3e-6)

    def test_idle_backoff_caps_event_rate(self):
        env = Environment()
        loop = PollLoop(env, "idle", lambda: 0.0).start()
        env.run(until=0.01)
        loop.stop()
        # With pure 250ns polling this would be 40000 iterations; the
        # exponential backoff caps the sleep at 5us.
        assert loop.iterations < 2500
        assert loop.utilization == 0.0

    def test_backoff_resets_after_busy(self):
        env = Environment()
        state = {"burst_at": None}

        def iteration():
            # One busy iteration late in the run, after a long idle spell.
            if state["burst_at"] is None and env.now > 1e-4:
                state["burst_at"] = env.now
                return 1e-7
            return 0.0

        loop = PollLoop(env, "t", iteration).start()
        env.run(until=2e-4)
        loop.stop()
        assert state["burst_at"] is not None
        # The wakeup delay before the busy iteration is bounded by the cap.
        assert state["burst_at"] < 1e-4 + 5.1e-6

    def test_double_start_rejected(self):
        env = Environment()
        loop = PollLoop(env, "t", lambda: 0.0).start()
        with pytest.raises(RuntimeError, match="already started"):
            loop.start()
        loop.stop()

    def test_start_after_stop_rejected(self):
        # Used to "succeed" and never iterate: stop() before start()
        # left the stop flag set for the generator to find.
        env = Environment()
        loop = PollLoop(env, "t", lambda: 0.0)
        loop.stop()
        with pytest.raises(RuntimeError, match="was stopped"):
            loop.start()
        assert loop.process is None
        env.run(until=1e-5)
        assert loop.iterations == 0

    def test_stop_is_idempotent(self):
        env = Environment()
        loop = PollLoop(env, "t", lambda: 0.0)
        loop.stop()
        loop.stop()
        running = PollLoop(env, "u", lambda: 0.0).start()
        env.run(until=1e-6)
        running.stop()
        running.stop()
        assert not running.process.is_alive
        iterations = running.iterations
        env.run(until=1e-4)
        assert running.iterations == iterations

    def test_stop_from_inside_the_iteration(self):
        env = Environment()

        def iteration():
            if loop.iterations == 2:
                loop.stop()   # the third iteration is the last
            return 1e-6

        loop = PollLoop(env, "t", iteration).start()
        assert loop.process.is_alive
        env.run(until=1e-4)
        assert loop.iterations == 3
        assert loop.busy_time == pytest.approx(3e-6)
        assert not loop.process.is_alive

    def test_crashing_iteration_surfaces_from_run(self):
        env = Environment()

        def iteration():
            if env.now > 2e-6:
                raise ValueError("ring on fire")
            return 1e-6

        loop = PollLoop(env, "pmd7", iteration).start()
        with pytest.raises(SimulationError,
                           match=r"process 'pmd7' crashed: "
                                 r"ValueError\('ring on fire'\)") as caught:
            env.run(until=1e-4)
        assert isinstance(caught.value.__cause__, ValueError)
        assert not loop.process.is_alive
        assert loop.iterations == 3

    def test_idle_iterations_count_zero_cost_polls(self):
        env = Environment()
        returned = []

        def iteration():
            returned.append([0.0, 1e-6, 0.0, 0.0, 2e-6][len(returned) % 5])
            return returned[-1]

        poller = PollLoop(env, "poller", iteration).start()
        timer = PollLoop(env, "timer", lambda: 0.0, period=1e-5).start()
        env.run(until=1e-4)
        assert poller.iterations == len(returned) > 10
        assert poller.idle_iterations == returned.count(0.0)
        assert timer.idle_iterations == timer.iterations > 0
        poller.reset_accounting()   # cumulative, like ``iterations``
        assert poller.idle_iterations == returned.count(0.0)

    def test_stop_halts_loop(self):
        env = Environment()
        loop = PollLoop(env, "t", lambda: 1e-6).start()
        env.run(until=1e-5)
        loop.stop()
        env.run(until=2e-5)
        iterations = loop.iterations
        env.run(until=1.0)
        assert loop.iterations == iterations

    def test_utilization_mixed(self):
        env = Environment()
        countdown = {"n": 10}

        def iteration():
            if countdown["n"] > 0:
                countdown["n"] -= 1
                return 1e-6
            return 0.0

        loop = PollLoop(env, "t", iteration).start()
        env.run(until=2e-5)
        loop.stop()
        assert 0.0 < loop.utilization < 1.0


class TestLineRate:
    def test_64b_line_rate_is_14_88_mpps(self):
        assert line_rate_pps(64) == pytest.approx(14.88e6, rel=1e-3)

    def test_1518b_line_rate(self):
        assert line_rate_pps(1518) == pytest.approx(812_743, rel=1e-3)

    def test_rate_scales_with_speed(self):
        assert line_rate_pps(64, rate_bps=40_000_000_000) == pytest.approx(
            4 * line_rate_pps(64)
        )


class TestNic:
    def test_wire_drain_paces_at_line_rate(self):
        env = Environment()
        drained = []
        nic = Nic(env, "eth0", on_wire_tx=lambda m: drained.append(env.now))
        pool = Mempool("p", size=2048)
        for _ in range(1000):
            mbuf = mk_mbuf(pool=pool, frame_size=64)
            assert nic.host_tx_burst([mbuf]) == 1
        env.run(until=1000 / line_rate_pps(64) + 1e-5)
        assert len(drained) == 1000
        elapsed = drained[-1] - drained[0]
        rate = 999 / elapsed
        assert rate == pytest.approx(line_rate_pps(64), rel=0.01)

    def test_rx_overflow_drops(self):
        env = Environment()
        nic = Nic(env, "eth0", ring_size=4)
        pool = Mempool("p", size=16)
        results = [nic.wire_receive(mk_mbuf(pool=pool, frame_size=64))
                   for _ in range(6)]
        assert results == [True, True, True, False, False, False]
        assert nic.rx_dropped == 3
        assert pool.available == 16 - 3  # dropped mbufs were freed

    def test_only_a_full_ring_is_an_rx_drop(self):
        """Anything else ``enqueue`` raises is a fault of the simulator,
        not of the wire: it propagates, uncounted, the mbuf untouched."""
        nic = Nic(Environment(), "eth0", ring_size=4)

        class BrokenWaiter:
            def wake(self):
                raise TypeError("not an overflow")

        nic.rx_ring.watch(BrokenWaiter())
        mbuf = mk_mbuf(frame_size=64)
        with pytest.raises(TypeError):
            nic.wire_receive(mbuf)
        assert nic.rx_dropped == 0
        assert mbuf.refcnt == 1

    def test_host_rx_burst(self):
        env = Environment()
        nic = Nic(env, "eth0")
        mbufs = [mk_mbuf(frame_size=64) for _ in range(5)]
        for mbuf in mbufs:
            nic.wire_receive(mbuf)
        assert nic.host_rx_burst(3) == mbufs[:3]
        assert nic.rx_packets == 5

    def test_tx_counters(self):
        env = Environment()
        nic = Nic(env, "eth0", on_wire_tx=lambda m: m.free())
        nic.host_tx_burst([mk_mbuf(frame_size=128)])
        env.run(until=1e-3)
        assert nic.tx_packets == 1
        assert nic.tx_bytes == 128


class TestCostModel:
    def test_scaled_preserves_control_plane(self):
        scaled = DEFAULT_COST_MODEL.scaled(2.0)
        assert scaled.ovs_emc_hit == 2 * DEFAULT_COST_MODEL.ovs_emc_hit
        assert scaled.vm_forward == 2 * DEFAULT_COST_MODEL.vm_forward
        assert scaled.ivshmem_hotplug == DEFAULT_COST_MODEL.ivshmem_hotplug

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.ovs_emc_hit = 0.0

    def test_custom_model(self):
        model = CostModel(ovs_emc_hit=1e-9)
        assert model.ovs_emc_hit == 1e-9
