"""The paper's Figure 1 service, deployed and measured.

Traffic crosses firewall -> monitor, then splits: web traffic (TCP/80)
goes through a transparent cache before leaving, everything else leaves
directly.  The experiment measures the *service* with the highway on
and off:

* the p-2-p segments (source->firewall, firewall->monitor,
  cache->sink) ride bypass channels when enabled;
* the classified split stays on the vSwitch either way;
* application semantics — firewall verdicts, monitor flow table, cache
  hit ratio — must be identical in both modes (transparency at service
  level), while throughput improves with the highway.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps import FirewallApp, MonitorApp, WebCacheApp
from repro.metrics.rates import to_mpps
from repro.orchestration.graph import ServiceGraph
from repro.orchestration.node import NfvNode
from repro.orchestration.orchestrator import Orchestrator
from repro.packet.builder import make_tcp_packet, make_udp_packet
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp
from repro.traffic.profiles import Template, TrafficProfile, _template
from repro.traffic.sink import SinkApp

CACHE_TOKENS = [b"GET /page%d" % index for index in range(8)]
CACHED_FRACTION = 0.5  # half the catalogue is pre-warmed


def web_mix_profile(frame_size: int = 128,
                    web_fraction: float = 0.5) -> TrafficProfile:
    """Web requests over a small cachable catalogue, mixed with UDP."""
    templates: List[Template] = []
    web_count = max(1, int(len(CACHE_TOKENS) * web_fraction * 2))
    for index in range(web_count):
        token = CACHE_TOKENS[index % len(CACHE_TOKENS)]
        packet = make_tcp_packet(
            src_port=41000 + index, dst_port=80,
            payload=token + b"\r\nHost: svc\r\n",
        )
        templates.append(_template(packet))
    for index in range(web_count):
        templates.append(_template(make_udp_packet(
            src_port=5000 + index, dst_port=9999, frame_size=frame_size,
        )))
    return TrafficProfile(name="web-mix", templates=tuple(templates))


@dataclass
class ServiceGraphResult:
    bypass: bool
    duration: float
    web_delivered: int = 0
    other_delivered: int = 0
    throughput_mpps: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    monitor_flows: int = 0
    firewall_passed: int = 0
    active_bypasses: int = 0
    classified_port_switched_packets: int = 0


class ServiceGraphExperiment:
    """Deploy and load the firewall -> monitor -> {cache|direct} service."""

    def __init__(
        self,
        bypass: bool = True,
        duration: float = 0.01,
        rate_pps: float = 2e6,
        costs: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.bypass = bypass
        self.duration = duration
        self.rate_pps = rate_pps
        self.costs = costs
        self.node: Optional[NfvNode] = None
        self.deployment = None
        self.source: Optional[SourceApp] = None
        self.sinks: Dict[str, SinkApp] = {}

    def _graph(self) -> ServiceGraph:
        graph = ServiceGraph("fig1")
        graph.add_vnf("source", ["out"])
        graph.add_vnf(
            "firewall", ["in", "out"],
            app_factory=lambda pmds: FirewallApp(
                "firewall", pmds["in"], pmds["out"], costs=self.costs
            ),
        )
        graph.add_vnf(
            "monitor", ["in", "out"],
            app_factory=lambda pmds: MonitorApp(
                "monitor", pmds["in"], pmds["out"], costs=self.costs
            ),
        )
        graph.add_vnf(
            "cache", ["in", "out"],
            app_factory=lambda pmds: WebCacheApp(
                "cache", pmds["in"], pmds["out"], costs=self.costs
            ),
        )
        graph.add_vnf("web_sink", ["in"])
        graph.add_vnf("other_sink", ["in"])
        graph.connect("source.out", "firewall.in")
        graph.connect("firewall.out", "monitor.in")
        graph.connect("cache.out", "web_sink.in")
        graph.connect("monitor.out", "cache.in",
                      match_fields={"eth_type": ETH_TYPE_IPV4,
                                    "ip_proto": IP_PROTO_TCP,
                                    "l4_dst": 80})
        graph.connect("monitor.out", "other_sink.in")
        graph.validate()
        return graph

    def run(self) -> ServiceGraphResult:
        env = Environment()
        self.node = NfvNode(env=env, costs=self.costs,
                            highway_enabled=self.bypass)
        self.deployment = Orchestrator(self.node).deploy(self._graph())
        cache: WebCacheApp = self.deployment.apps["cache"]
        for token in CACHE_TOKENS[:int(len(CACHE_TOKENS)
                                       * CACHED_FRACTION)]:
            cache.preload(token, b"200 OK cached body")

        self.source = SourceApp(
            "traffic", self.deployment.pmd("source.out"),
            profile=web_mix_profile(), costs=self.costs,
            rate_pps=self.rate_pps,
        )
        self.sinks["web"] = SinkApp(
            "web_sink", self.deployment.pmd("web_sink.in"),
            costs=self.costs,
        )
        self.sinks["other"] = SinkApp(
            "other_sink", self.deployment.pmd("other_sink.in"),
            costs=self.costs,
        )
        self.deployment.start_apps(env)
        self.source.start(env)
        for sink in self.sinks.values():
            sink.start(env)
        start = env.now
        env.run(until=start + self.duration)

        monitor: MonitorApp = self.deployment.apps["monitor"]
        firewall: FirewallApp = self.deployment.apps["firewall"]
        delivered = (self.sinks["web"].received
                     + self.sinks["other"].received)
        return ServiceGraphResult(
            bypass=self.bypass,
            duration=self.duration,
            web_delivered=self.sinks["web"].received,
            other_delivered=self.sinks["other"].received,
            throughput_mpps=to_mpps(delivered, self.duration),
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_hit_rate=cache.hit_rate,
            monitor_flows=monitor.flow_count,
            firewall_passed=firewall.program.allowed,
            active_bypasses=self.node.active_bypasses,
            classified_port_switched_packets=(
                self.node.ports["monitor.out"].rx_packets
            ),
        )
