"""One lifecycle, one driver.

Every establish/teardown procedure in ``core.bypass`` and
``hypervisor.compute_agent`` is a single generator run as an engine
process.  These tests hold it to a clean outcome under every
control-plane fault, pin the lifecycle's transition table, and cover the
one ring-salvage routine on the three paths that used to forward (or
choke on) a smashed slot.
"""

import itertools

import pytest

from repro.core import bypass
from repro.core.bypass import (
    LEGAL_TRANSITIONS,
    BypassLink,
    IllegalTransition,
    LinkState,
    RetryPolicy,
)
from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.faults import (
    AGENT_RPC_SEND,
    CONTROLLER_CONN,
    CONTROLLER_RECONNECT,
    KNOWN_POINTS,
    PMD_RX_POLL,
    RING_CORRUPT,
    VM_CRASH,
    VM_CRASH_DURING_SETUP,
    FaultMode,
    FaultPlan,
)
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.orchestration.validation import verify_host_invariants

from tests.helpers import mk_mbuf

# Data-path, controller-channel and VM-lifecycle points never fire
# inside an establish or a teardown; everything else does.
CONTROL_PLANE_POINTS = [
    point for point in KNOWN_POINTS
    if point not in (PMD_RX_POLL, RING_CORRUPT, CONTROLLER_CONN,
                     CONTROLLER_RECONNECT, VM_CRASH, VM_CRASH_DURING_SETUP)
]


def build_node(retry_policy=None):
    kwargs = {} if retry_policy is None else {"retry_policy": retry_policy}
    node = NfvNode(**kwargs)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


def settle(node):
    # Long enough for four backed-off attempts or a timed-out teardown.
    node.settle_control_plane(extra_time=2.0)


IN_FLIGHT = 4


def establish_then_teardown(node, plan=None):
    """Install the p-2-p rule, let it settle, park packets in the
    bypass ring (nobody polls it here), withdraw the rule, settle."""
    # Armed only now: memzone.reserve also fires for the dpdkr zones
    # that creating the VMs reserved.
    node.install_fault_plan(plan)
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    settle(node)
    assert node.active_bypasses == 1
    sender = node.vms["vm1"].pmd("dpdkr0")
    assert sender.tx_burst([mk_mbuf() for _ in range(IN_FLIGHT)]) == IN_FLIGHT
    assert len(node.manager.link_for_src(node.ofport("dpdkr0")).ring) \
        == IN_FLIGHT
    node.controller.delete_flow(Match(in_port=node.ofport("dpdkr0")))
    settle(node)


def outcome(node):
    sender = node.vms["vm1"].pmd("dpdkr0")
    receiver = node.vms["vm2"].pmd("dpdkr1")
    return {
        "links": [(link.state, link.attempts)
                  for link in node.manager.history],
        "tracked": sorted(node.manager.active_links),
        "bypass_tx_active": sender.bypass_tx_active,
        "tx_state": sender.tx_state,
        "bypass_rx_active": receiver.bypass_rx_active,
        "zones": sorted(name for name in node.registry._zones
                        if name.startswith("bypass.")),
        "mapped": {name: sorted(handle.vm.ivshmem_devices)
                   for name, handle in node.vms.items()},
        "recovery": {name: getattr(node.manager.resilience, name)
                     for name in ("establish_attempts", "provision_failures",
                                  "rpc_errors", "timeouts", "rollbacks",
                                  "retries", "teardown_failures",
                                  "quarantines", "links_recovered")},
        "lost": node.manager.packets_lost_to_failures,
        "rehomed": len(node.registry.lookup(
            dpdkr_zone_name("dpdkr1")).get("rx")),
    }


class TestSimAndSyncDriversAgree:
    """(The name is the test id the floor knows; the synchronous driver
    it once compared against is gone.)"""

    @pytest.mark.parametrize("occurrence", [1, 2, 3])
    @pytest.mark.parametrize("point", CONTROL_PLANE_POINTS)
    def test_same_outcome_under_a_control_plane_error(self, point,
                                                      occurrence):
        plan = FaultPlan(seed=7)
        plan.inject(point, FaultMode.ERROR, occurrences=(occurrence,))
        node = build_node()
        establish_then_teardown(node, plan)
        verify_host_invariants(node)
        result = outcome(node)
        # Whatever the fault hit, the rule is gone and so is the channel.
        assert result["tracked"] == []
        assert result["zones"] == []
        assert not result["bypass_tx_active"]
        assert not result["bypass_rx_active"]
        assert all(state in (LinkState.REMOVED, LinkState.QUARANTINED)
                   for state, _ in result["links"])
        # Orderly or forced, the teardown re-homed what was in the ring.
        assert result["rehomed"] == IN_FLIGHT
        assert result["lost"] == 0
        # One injected error costs at most one extra attempt or one
        # forced teardown, never a quarantine.
        recovery = result["recovery"]
        assert recovery["quarantines"] == 0
        assert recovery["retries"] + recovery["teardown_failures"] <= 1
        assert result["mapped"] == {"vm1": [dpdkr_zone_name("dpdkr0")],
                                    "vm2": [dpdkr_zone_name("dpdkr1")]}


class TestTransitionTable:
    EDGES = {(old, new) for old, nexts in LEGAL_TRANSITIONS.items()
             for new in nexts}

    def test_every_pair_is_either_an_edge_or_raises(self):
        assert set(LEGAL_TRANSITIONS) == set(LinkState)
        for old, new in itertools.product(LinkState, LinkState):
            link = BypassLink(link=None, src_port_name="a",
                              dst_port_name="b", state=old)
            if (old, new) in self.EDGES:
                bypass._transition(link, new)
                assert link.state == new
            else:
                with pytest.raises(IllegalTransition):
                    bypass._transition(link, new)
                assert link.state == old

    def test_the_table_has_no_edge_the_lifecycle_never_takes(
            self, monkeypatch):
        """A clean cycle, a retried attempt and a spent retry budget
        between them walk every edge."""
        taken = set()
        checked = bypass._transition

        def recording(link, new_state):
            old = link.state
            checked(link, new_state)
            taken.add((old, new_state))

        monkeypatch.setattr(bypass, "_transition", recording)

        establish_then_teardown(build_node())

        retried = FaultPlan(seed=1)
        retried.inject(AGENT_RPC_SEND, FaultMode.ERROR, occurrences=(1,))
        establish_then_teardown(build_node(), retried)

        spent = FaultPlan(seed=1)
        spent.inject(AGENT_RPC_SEND, FaultMode.ERROR, occurrences=(1,))
        node = build_node(retry_policy=RetryPolicy(max_attempts=1))
        node.install_fault_plan(spent)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        settle(node)
        assert node.manager.history[0].state == LinkState.QUARANTINED

        assert taken == self.EDGES


class TestSmashedSlotIsLostOnEveryDismantlePath:
    """``ring.corrupt`` smashes the oldest of 4 queued slots to ``None``.
    Whichever path empties the ring, the three intact packets are
    handled as that path always handled them and the smashed one is
    counted lost — never delivered, never ``.free()``d."""

    @staticmethod
    def corrupted_channel():
        node = build_node()
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()
        plan = FaultPlan(seed=3)
        plan.inject(RING_CORRUPT, FaultMode.ERROR, occurrences=(1,))
        node.install_fault_plan(plan)
        batch = [mk_mbuf() for _ in range(4)]
        assert node.vms["vm1"].pmd("dpdkr0").tx_burst(batch) == 4
        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link.ring.corruptions_injected == 1
        return node, link, batch

    @staticmethod
    def normal_rx(node):
        zone = node.registry.lookup(dpdkr_zone_name("dpdkr1"))
        return zone.get("rx").drain()

    def test_orderly_teardown(self):
        node, link, batch = self.corrupted_channel()
        # The watchdog would find the smashed slot within one poll and
        # degrade the link first; hold it off so the orderly path does.
        node.manager.watchdog.loop.stop()
        node.controller.delete_flow(Match(in_port=node.ofport("dpdkr0")))
        node.settle_control_plane()
        assert link.state == LinkState.REMOVED
        assert self.normal_rx(node) == batch[1:]
        assert link.teardown_request.error is None
        assert link.teardown_request.salvaged_packets == 3
        assert link.teardown_request.lost_packets == 1
        assert node.manager.packets_lost_to_failures == 0

    def test_receiver_vm_destroyed(self):
        node, link, batch = self.corrupted_channel()
        node.hypervisor.destroy_vm("vm2")
        assert link.state == LinkState.REMOVED
        assert node.manager.packets_lost_to_failures == 4
        assert all(mbuf.refcnt == 0 for mbuf in batch[1:])

    def test_sender_vm_destroyed(self):
        node, link, batch = self.corrupted_channel()
        node.hypervisor.destroy_vm("vm1")
        assert link.state == LinkState.REMOVED
        assert self.normal_rx(node) == batch[1:]
        assert node.manager.packets_lost_to_failures == 1
        # packets_salvaged keeps meaning "re-homed by degrade_link".
        assert node.manager.resilience.packets_salvaged == 0
