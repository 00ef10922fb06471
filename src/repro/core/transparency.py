"""Transparency layer: make the bypass invisible to the controller.

Two pieces:

* :class:`BypassStatsAugmentor` — the bridge-side stats hook.  When the
  controller asks for flow or port statistics, counters accumulated by
  the guest PMDs in shared memory are merged into the ordinary OpenFlow
  reply: the flow entry implementing a p-2-p link reports the packets
  that crossed the bypass, the source port reports them as received and
  the destination port as transmitted — exactly the numbers a vanilla
  OVS would have produced had it forwarded them itself.

* :func:`enable_transparent_highway` — the one-call wiring that
  retrofits an existing :class:`~repro.vswitch.vswitchd.VSwitchd` with
  the detector, the bypass manager and the stats augmentor; the
  counterpart of applying the paper's patches to OVS.
"""

from typing import Optional

from repro.core.bypass import (
    BypassManager, DEFAULT_RETRY_POLICY, RetryPolicy,
)
from repro.core.detector import P2PLinkDetector
from repro.core.watchdog import DEFAULT_WATCHDOG_POLICY, WatchdogPolicy
from repro.faults import FaultPlan
from repro.hypervisor.compute_agent import ComputeAgent
from repro.openflow.table import FlowEntry
from repro.sim.engine import Environment
from repro.vswitch.bridge import StatsAugmentor
from repro.vswitch.ports import DpdkrOvsPort
from repro.vswitch.vswitchd import VSwitchd


class BypassStatsAugmentor(StatsAugmentor):
    """Merges shared-memory bypass counters into OpenFlow statistics."""

    def __init__(self, manager: BypassManager) -> None:
        self.manager = manager

    def flow_extra(self, entry: FlowEntry) -> "tuple[int, int]":
        packets = 0
        byte_count = 0
        for block in self.manager.stats_blocks:
            extra_packets, extra_bytes = block.flow_counters(entry.flow_id)
            packets += extra_packets
            byte_count += extra_bytes
        return packets, byte_count

    def port_extra(self, ofport: int) -> "tuple[int, int, int, int]":
        rx_packets = rx_bytes = tx_packets = tx_bytes = 0
        for block in self.manager.stats_blocks:
            if block.src_ofport == ofport:
                # Logically these packets entered the switch here.
                rx_packets += block.tx_packets
                rx_bytes += block.tx_bytes
            if block.dst_ofport == ofport:
                tx_packets += block.tx_packets
                tx_bytes += block.tx_bytes
        return rx_packets, rx_bytes, tx_packets, tx_bytes


def enable_transparent_highway(
    vswitchd: VSwitchd,
    agent: ComputeAgent,
    env: Environment,
    ring_size: int = 1024,
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    faults: Optional[FaultPlan] = None,
    watchdog_policy: WatchdogPolicy = DEFAULT_WATCHDOG_POLICY,
) -> BypassManager:
    """Retrofit ``vswitchd`` with the paper's transparent highway.

    Installs the p-2-p link detector on the bridge's flow table
    (restricted to dpdkr ports), the bypass manager driving the compute
    ``agent``, and the stats augmentor on the bridge.  Returns the
    manager (the handle experiments use to observe link lifecycle).
    """
    datapath = vswitchd.datapath

    def is_eligible(ofport: int) -> bool:
        # Only dpdkr-to-dpdkr connections are accelerated, and never on
        # a mirrored, policed or administratively-down port: the vSwitch
        # can only mirror/police/block what it forwards, so bypassing
        # such a port would silently disable the operator's policy.
        port = datapath.ports.get(ofport)
        if not isinstance(port, DpdkrOvsPort) or not port.up:
            return False
        if ofport in vswitchd.mirrored_ports():
            return False
        return ofport not in vswitchd.policed_ports()

    detector = P2PLinkDetector(vswitchd.bridge.table,
                               is_eligible_port=is_eligible,
                               xfsm_lookup=datapath.xfsm_programs.get)
    manager = BypassManager(vswitchd, agent, detector, env,
                            ring_size=ring_size,
                            retry_policy=retry_policy, faults=faults,
                            watchdog_policy=watchdog_policy)
    vswitchd.bridge.stats_augmentor = BypassStatsAugmentor(manager)
    # Mirror/policer/port-state changes alter port eligibility without
    # touching the flow table; re-analyse so links appear/disappear.
    vswitchd.on_mirror_change.append(lambda _mirror: detector.refresh_all())
    vswitchd.bridge.on_port_mod.append(
        lambda _port: detector.refresh_all()
    )
    return manager
