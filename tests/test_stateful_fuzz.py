"""Stateful fuzzing of the full host with hypothesis.

A random interleaving of controller rule churn, operator mirror
changes, guest traffic, teardown-inducing events and VM crashes, with
system-wide invariants checked after every step:

* manager/detector agreement (active links = detected links over live,
  unmirrored ports, less those the watchdog quarantined);
* PMD channel state mirrors the links;
* no memzone leaks (registry size = boot zones + active links, modulo
  zones pinned by an abnormal path);
* every zone is mapped only into live VMs;
* mbuf conservation: what the sources allocated is either delivered,
  dropped (accounted), or still sitting in a ring.

The node runs on its own engine with the default policies (flap damping,
retry back-off, watchdog), as the bench families build it; every rule
lets the control plane come to rest before the invariants are read.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.bypass import LinkState
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.packet.headers import ETH_TYPE_IPV4

from tests.helpers import mk_mbuf

PORT_NAMES = ["dpdkr0", "dpdkr1", "dpdkr2", "span0"]


class HighwayMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.node = NfvNode()
        for index, port_name in enumerate(PORT_NAMES):
            self.node.create_vm("vm%d" % index, [port_name])
        self.live_vms = {"vm%d" % i for i in range(len(PORT_NAMES))}
        self.sent = 0
        self.mirror_serial = 0

    def settle(self):
        """Run the engine to a quiescent point — where the invariants
        are promised: nothing queued or mid-flight, and no admission
        held by the flap damper (which rule churn on one port trips)."""
        manager = self.node.manager
        for _ in range(12):
            self.node.settle_control_plane()
            if not (manager._ops or manager._damped) and all(
                    link.state == LinkState.ACTIVE and not link.revoked
                    for link in manager.active_links.values()):
                return
        raise AssertionError("control plane did not settle in 3 s")

    # -- controller actions --------------------------------------------------

    @rule(src=st.sampled_from(PORT_NAMES), dst=st.sampled_from(PORT_NAMES))
    def install_p2p(self, src, dst):
        if src == dst:
            return
        self.node.controller.install_flow(
            Match(in_port=self.node.ofport(src)),
            [OutputAction(self.node.ofport(dst))], priority=10,
        )
        self.settle()

    @rule(src=st.sampled_from(PORT_NAMES), dst=st.sampled_from(PORT_NAMES))
    def install_divert(self, src, dst):
        self.node.controller.install_flow(
            Match(in_port=self.node.ofport(src), eth_type=ETH_TYPE_IPV4),
            [OutputAction(self.node.ofport(dst))], priority=50,
        )
        self.settle()

    @rule(src=st.sampled_from(PORT_NAMES))
    def delete_rules(self, src):
        self.node.controller.delete_flow(
            Match(in_port=self.node.ofport(src))
        )
        self.settle()

    # -- operator actions ------------------------------------------------------

    @rule(target_port=st.sampled_from(PORT_NAMES[:3]))
    def toggle_mirror(self, target_port):
        switch = self.node.switch
        if switch.datapath.mirrors:
            switch.remove_mirror(switch.datapath.mirrors[0].name)
        else:
            self.mirror_serial += 1
            switch.add_mirror("m%d" % self.mirror_serial, output="span0",
                              select_src=[target_port])
        self.settle()

    # -- data plane ---------------------------------------------------------------

    @rule(src=st.sampled_from(PORT_NAMES[:3]),
          count=st.integers(1, 8))
    def send_traffic(self, src, count):
        owner = self.node.agent.owner_of(src)
        if owner not in self.live_vms:
            return
        pmd = self.node.vms[owner].pmd(src)
        mbufs = [mk_mbuf(frame_size=64) for _ in range(count)]
        sent = pmd.tx_burst(mbufs)
        for mbuf in mbufs[sent:]:
            mbuf.free()
        self.sent += sent
        self.node.switch.step_dataplane()

    @rule(port=st.sampled_from(PORT_NAMES))
    def drain_port(self, port):
        owner = self.node.agent.owner_of(port)
        if owner not in self.live_vms:
            return
        pmd = self.node.vms[owner].pmd(port)
        for mbuf in pmd.rx_burst(64):
            mbuf.free()

    # -- failures -----------------------------------------------------------------

    @rule()
    def crash_a_vm(self):
        # Keep at least two VMs alive so the machine stays interesting.
        if len(self.live_vms) <= 2:
            return
        victim = sorted(self.live_vms)[-1]
        self.node.hypervisor.destroy_vm(victim)
        self.live_vms.remove(victim)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def manager_matches_detector(self):
        if not hasattr(self, "node"):
            return
        manager = self.node.manager
        detected = manager.detector.links
        for src_ofport, bypass_link in manager.active_links.items():
            assert bypass_link.state == LinkState.ACTIVE
            assert src_ofport in detected
        # Every detected link over live, unmirrored, known ports must be
        # realized — unless the watchdog took it down: a port the
        # machine drained once and then left full is a stalled consumer,
        # and its link waits in quarantine for the next heartbeat.
        mirrored = self.node.switch.mirrored_ports()
        for src_ofport, link in detected.items():
            ports = self.node.switch.datapath.ports
            src_name = ports[src_ofport].name
            dst_name = ports[link.dst_ofport].name
            if (self.node.agent.is_port_alive(src_name)
                    and self.node.agent.is_port_alive(dst_name)
                    and src_ofport not in mirrored
                    and link.dst_ofport not in mirrored
                    and src_ofport not in manager.quarantined_links):
                assert src_ofport in manager.active_links

    @invariant()
    def pmd_state_matches_links(self):
        if not hasattr(self, "node"):
            return
        active = self.node.manager.active_links
        for port_name in PORT_NAMES:
            owner = self.node.agent.owner_of(port_name)
            if owner not in self.live_vms:
                continue
            pmd = self.node.vms[owner].pmd(port_name)
            ofport = self.node.ofport(port_name)
            assert pmd.bypass_tx_active == (ofport in active)
            expected_rx = sum(
                1 for link in active.values()
                if link.link.dst_ofport == ofport
            )
            assert len(pmd.bypass_rx_rings) == expected_rx

    @invariant()
    def packaged_checker_agrees(self):
        if not hasattr(self, "node"):
            return
        from repro.orchestration.validation import verify_host_invariants

        verify_host_invariants(self.node)

    @invariant()
    def no_zone_leaks(self):
        if not hasattr(self, "node"):
            return
        registry = self.node.registry
        # Boot zones of all (ever-created) VMs + one per active link.
        expected = len(PORT_NAMES) + len(self.node.manager.active_links)
        assert len(registry) == expected
        for zone_name in list(registry._zones):
            zone = registry.lookup(zone_name)
            for vm_name in zone.mapped_by:
                assert vm_name in self.live_vms


TestHighwayMachine = HighwayMachine.TestCase
TestHighwayMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
