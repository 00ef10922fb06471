"""The modelled clock, pinned to the bit.

A stream over a bypass, an ordered teardown under traffic (a divert rule
makes the link stop being p-2-p), then re-establishment under traffic
(the rule is withdrawn): the shape of perfbench's ``handover_load`` with
shorter windows.  Every number below was recorded on the commit before
``PollLoop`` became a re-armed engine timer and the idle paths were cut
(PR 13) and is compared with ``==``: a change that only makes the
simulator faster must not move any of them.  A change to the modelled
design moves them on purpose and re-records them here.
"""

from repro.core.bypass import LinkState
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp
from repro.traffic.sink import SinkApp

DIVERT_PRIORITY = 0x9000

# loop -> (iterations, idle_time, busy_time)
GOLDEN_LOOPS = {
    "ovs.pmd0": (59904, 0.29950274999995435, 0.0),
    "ovs.pmd1": (136557, 0.2931282499998776, 0.006376621000001081),
    "sink": (124438, 0.17626674999999967, 0.003237881999998661),
    "sink.divert": (35904, 0.17950275000010912, 0.0),
    "src": (176500, 0.16967099999999316, 0.0073329569999984546),
}


def test_handover_under_load_is_bit_identical():
    env = Environment()
    node = NfvNode(env=env)
    node.create_vm("vm1", ["src0"])
    node.create_vm("vm2", ["dst0"])
    node.create_vm("vm3", ["div0"])
    node.switch.start()
    node.install_p2p_rule("src0", "dst0")
    node.settle_control_plane(extra_time=0.12)
    source = SourceApp("src", node.vms["vm1"].pmd("src0"), rate_pps=0.25e6)
    sink = SinkApp("sink", node.vms["vm2"].pmd("dst0"))
    divert_sink = SinkApp("sink.divert", node.vms["vm3"].pmd("div0"))
    bypasses = [node.active_bypasses]
    loops = [app.start(env) for app in (sink, divert_sink, source)]

    def advance(seconds):
        env.run(until=env.now + seconds)
        bypasses.append(node.active_bypasses)

    advance(0.002)
    divert = Match(in_port=node.ofport("src0"), eth_type=0x0800,
                   ip_proto=6, l4_dst=80)
    node.controller.install_flow(
        divert, [OutputAction(node.ofport("div0"))],
        priority=DIVERT_PRIORITY)
    advance(0.07)
    node.controller.delete_flow(divert, strict=True,
                                priority=DIVERT_PRIORITY)
    advance(0.105)
    source.stop()
    advance(0.0025)
    loops += node.switch._pmd_loops

    assert env.now == 0.2995
    assert bypasses == [1, 1, 0, 1, 1]
    assert source.generated == 35249
    assert sink.received + divert_sink.received == 35249
    assert sink.latency.p50 == 1.7470002065811396e-06
    assert sink.latency.p99 == 6.7951502294813506e-06
    assert {loop.name: (loop.iterations, loop.idle_time, loop.busy_time)
            for loop in loops} == GOLDEN_LOOPS
    history = node.manager.history
    assert [(link.state, link.t_active - link.setup_request.t_requested)
            for link in history] == [
        (LinkState.REMOVED, 0.10100000000000003),
        (LinkState.ACTIVE, 0.10100000000000006),
    ]
    assert (history[0].t_removed - history[0].t_teardown_started
            == 0.06400000000000004)
    # The deterministic host-cost proxy, pinned since PR 13: one event
    # per poll iteration plus the control plane's few hundred.  It read
    # 534057 when idle polls were events and 84820 while the switch's
    # control loop ticked every 0.5 ms with nothing to do.
    assert env.events_processed == 84224
    assert sum(loop.idle_iterations for loop in loops) == 449243
