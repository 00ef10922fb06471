"""Additional bridge coverage: stats filters, augmentor defaults,
controller byte accounting, engine condition edge cases."""

import pytest

from repro.openflow.actions import OutputAction
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.openflow.match import Match
from repro.vswitch.bridge import StatsAugmentor
from repro.vswitch.vswitchd import VSwitchd


@pytest.fixture
def stack():
    connection = ControllerConnection()
    switch = VSwitchd(connection=connection)
    controller = SimpleController(connection)
    return switch, controller, connection


class TestFlowStatsOutPortFilter:
    def test_out_port_filter(self, stack):
        switch, controller, _conn = stack
        controller.install_flow(Match(in_port=1), [OutputAction(2)])
        controller.install_flow(Match(in_port=3), [OutputAction(4)])
        switch.step_control()
        from repro.openflow.messages import FlowStatsRequest

        controller.connection.controller_send(
            FlowStatsRequest(match=Match(), out_port=4)
        )
        switch.step_control()
        controller.poll()
        stats = controller.latest_flow_stats.stats
        assert len(stats) == 1
        assert stats[0].match == Match(in_port=3)


class TestStatsAugmentorDefault:
    def test_null_augmentor(self):
        augmentor = StatsAugmentor()
        assert augmentor.flow_extra(None) == (0, 0)
        assert augmentor.port_extra(7) == (0, 0, 0, 0)


class TestConnectionAccounting:
    def test_wire_bytes_counted(self, stack):
        switch, controller, connection = stack
        controller.install_flow(Match(in_port=1), [OutputAction(2)])
        assert connection.bytes_to_switch > 0
        switch.step_control()
        controller.echo()
        switch.step_control()
        assert connection.bytes_to_controller > 0

    def test_pending_counters(self):
        connection = ControllerConnection()
        controller = SimpleController(connection)
        controller.handshake()
        assert connection.pending_for_switch == 2
        assert connection.pending_for_controller == 0


class TestEngineConditions:
    def test_any_of_failure_propagates(self):
        from repro.sim.engine import Environment

        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter():
            with pytest.raises(ValueError):
                yield env.any_of([env.process(bad()),
                                  env.process(_slow(env))])
            return "survived"

        process = env.process(waiter())
        env.run()
        assert process.value == "survived"

    def test_all_of_failure_propagates(self):
        from repro.sim.engine import Environment

        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter():
            with pytest.raises(ValueError):
                yield env.all_of([env.process(bad())])
            return "ok"

        process = env.process(waiter())
        env.run()
        assert process.value == "ok"

    def test_step_on_empty_queue_raises(self):
        from repro.sim.engine import Environment, SimulationError

        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_timeout_value_passthrough(self):
        from repro.sim.engine import Environment

        env = Environment()

        def waiter():
            value = yield env.timeout(1, value="payload")
            return value

        process = env.process(waiter())
        env.run()
        assert process.value == "payload"


def _slow(env):
    yield env.timeout(100)
    return "slow"
