"""A stateless 5-tuple firewall VNF (the service-graph example).

The policy is :func:`~repro.state.programs.acl_program`, the XFSM the
datapath and the bypass PMDs run when the ACL is compiled onto the fast
path; here it runs in the guest.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.base import DpdkApp, PortPair
from repro.dpdk.ethdev import EthDev
from repro.packet.flowkey import cached_flow_key
from repro.packet.mbuf import Mbuf
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.state.programs import acl_program
from repro.state.xfsm import event_for


@dataclass(frozen=True)
class FirewallRule:
    """A deny rule; None fields are wildcards."""

    ip_src: Optional[int] = None
    ip_dst: Optional[int] = None
    ip_proto: Optional[int] = None
    l4_src: Optional[int] = None
    l4_dst: Optional[int] = None

    def matches(self, key) -> bool:
        for name in ("ip_src", "ip_dst", "ip_proto", "l4_src", "l4_dst"):
            wanted = getattr(self, name)
            if wanted is not None and getattr(key, name) != wanted:
                return False
        return True


class FirewallApp(DpdkApp):
    """Default-allow firewall: drops packets matching any deny rule.

    ``program.allowed`` / ``program.dropped`` count the verdicts.
    """

    def __init__(
        self,
        name: str,
        port_a: EthDev,
        port_b: EthDev,
        deny_rules: Optional[List[FirewallRule]] = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        burst_size: int = 32,
    ) -> None:
        super().__init__(
            name,
            [PortPair(port_a, port_b), PortPair(port_b, port_a)],
            costs=costs,
            burst_size=burst_size,
            cost_multiplier=1.6,  # per-packet rule evaluation
        )
        self.program = acl_program(deny_rules or ())

    def process(self, mbufs: List[Mbuf], pair: PortPair) -> List[Mbuf]:
        evaluate = self.program.evaluate
        out: List[Mbuf] = []
        for mbuf in mbufs:
            event = event_for(cached_flow_key(mbuf, 0), mbuf, 0.0)
            if evaluate(event).allow:
                out.append(mbuf)
            else:
                mbuf.free()
        return out
