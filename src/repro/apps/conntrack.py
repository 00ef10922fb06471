"""A stateful perimeter firewall VNF.

The stateless :class:`~repro.apps.firewall.FirewallApp` matches the
paper's demo graph; production middleboxes are stateful.
:class:`StatefulFirewallApp` enforces the classic perimeter policy:
connections may only be *initiated* from the inside port; return
traffic of established connections is admitted, unsolicited outside
traffic is dropped.

The policy is :func:`~repro.state.programs.firewall_program`, the XFSM
the datapath and the bypass PMDs run when the firewall is compiled onto
the fast path; here it runs over the guest's own state table, so moving
the policy changes where it runs, never what it decides.  Because the
app runs on ordinary ethdev ports, it works identically over the
vSwitch path and over a bypass.
"""

from typing import List

from repro.apps.base import DpdkApp, PortPair
from repro.dpdk.ethdev import EthDev
from repro.packet.flowkey import cached_flow_key
from repro.packet.mbuf import Mbuf
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.state.programs import firewall_program
from repro.state.xfsm import event_for


class StatefulFirewallApp(DpdkApp):
    """Perimeter firewall: inside may initiate; outside may only reply."""

    def __init__(
        self,
        name: str,
        inside_port: EthDev,
        outside_port: EthDev,
        costs: CostModel = DEFAULT_COST_MODEL,
        burst_size: int = 32,
        clock=None,
    ) -> None:
        super().__init__(
            name,
            [PortPair(inside_port, outside_port),
             PortPair(outside_port, inside_port)],
            costs=costs,
            burst_size=burst_size,
            cost_multiplier=2.2,  # state lookup + update per packet
        )
        self.inside_port = inside_port
        self.program = firewall_program()
        self.clock = clock or (lambda: 0.0)

    def process(self, mbufs: List[Mbuf], pair: PortPair) -> List[Mbuf]:
        from_inside = pair.rx is self.inside_port
        now = self.clock()
        evaluate = self.program.evaluate
        out: List[Mbuf] = []
        for mbuf in mbufs:
            event = event_for(cached_flow_key(mbuf, 0), mbuf, now,
                              from_inside)
            if evaluate(event).allow:
                out.append(mbuf)
            else:
                mbuf.free()
        return out
