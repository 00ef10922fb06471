"""Establishment robustness and stranded-packet accounting.

An establishment that failed anywhere may not leave the sender on a
half-configured channel.  The synchronous twin of the establish
procedure (``_run_op_sync``, long gone, as is the clock-less driver that
replaced it) never looked at ``AgentRequest.error`` and marked the link
ACTIVE even when the agent had failed; these are the regression tests
for that bug, on the one ``BypassManager._establish`` the engine runs.
"""

from repro.core.bypass import LinkState, RetryPolicy
from repro.faults import (
    AGENT_RPC_REPLY,
    AGENT_RPC_SEND,
    QEMU_PLUG,
    FaultPlan,
)
from repro.orchestration import NfvNode
from repro.orchestration.validation import verify_host_invariants
from repro.sim.engine import Environment
from tests.helpers import mk_mbuf


def build_node(plan=None, retry_policy=None):
    kwargs = {}
    if retry_policy is not None:
        kwargs["retry_policy"] = retry_policy
    node = NfvNode(faults=plan, **kwargs)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    return node


class TestSyncEstablishmentChecksAgentError:
    """The never-checks-``request.error`` regression."""

    def test_failed_plug_does_not_mark_link_active(self):
        plan = FaultPlan(seed=1)
        # Every plug fails: with a budget of 1 there is no second try,
        # so a link wrongly marked ACTIVE would be caught red-handed.
        plan.inject(QEMU_PLUG, "error", probability=1.0)
        node = build_node(
            plan, retry_policy=RetryPolicy(max_attempts=1))
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()

        of = node.ofport("dpdkr0")
        assert node.active_bypasses == 0
        link = node.manager.history[0]
        assert link.state != LinkState.ACTIVE
        assert of in node.manager.quarantined_links
        # The sender PMD was never flipped onto a broken channel.
        assert not node.vms["vm1"].pmd("dpdkr0").bypass_tx_active
        assert not node.vms["vm2"].pmd("dpdkr1").bypass_rx_active
        # And the half-provisioned zone was rolled back, not leaked.
        for zone_name in list(node.registry._zones):
            assert not zone_name.startswith("bypass.")
        assert node.manager.resilience.rpc_errors == 1
        verify_host_invariants(node)

    def test_transient_error_is_retried_to_active(self):
        plan = FaultPlan(seed=2)
        plan.inject(AGENT_RPC_SEND, "error", occurrences=(1,))
        node = build_node(plan)
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.settle_control_plane()

        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link is not None
        assert link.state == LinkState.ACTIVE
        assert link.attempts == 2
        r = node.manager.resilience
        assert r.rpc_errors == 1
        assert r.retries == 1
        assert r.rollbacks == 1
        assert r.links_recovered == 1
        assert node.vms["vm1"].pmd("dpdkr0").bypass_tx_active
        verify_host_invariants(node)


class TestStrandedPacketAccounting:
    """Satellite: packets caught in a bypass ring when establishment is
    aborted must be counted into ``packets_lost_to_failures`` and their
    mbufs freed back to the pool."""

    def test_abort_counts_and_frees_stranded_ring_packets(self):
        plan = FaultPlan(seed=9)
        # Drop the agent's success reply: by then the sender TX is
        # already flipped onto the bypass, so traffic sent while the
        # manager waits out the timeout lands in the doomed ring.
        plan.inject(AGENT_RPC_REPLY, "drop", occurrences=(1,))
        env = Environment()
        node = NfvNode(env=env, faults=plan)
        node.create_vm("vm1", ["dpdkr0"])
        node.create_vm("vm2", ["dpdkr1"])
        node.install_p2p_rule("dpdkr0", "dpdkr1")
        node.switch.start()

        # t=0.15: channel configured (tx attach lands ~0.095s in) but
        # the reply was dropped — the manager is still waiting.
        env.run(until=0.15)
        sender = node.vms["vm1"].pmd("dpdkr0")
        assert sender.bypass_tx_active
        link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert link.state == LinkState.ESTABLISHING
        stranded = [mk_mbuf() for _ in range(5)]
        assert sender.tx_burst(stranded) == 5
        assert len(link.ring) == 5

        # The timeout fires at 0.25, rolls the attempt back, and the
        # second attempt converges.
        env.run(until=2.0)
        assert node.manager.packets_lost_to_failures == 5
        for mbuf in stranded:
            assert mbuf.refcnt == 0  # freed, not leaked
        new_link = node.manager.link_for_src(node.ofport("dpdkr0"))
        assert new_link.state == LinkState.ACTIVE
        assert new_link.attempts == 2
        r = node.manager.resilience
        assert r.timeouts == 1
        assert r.rollbacks == 1
        verify_host_invariants(node)
        node.switch.stop()
