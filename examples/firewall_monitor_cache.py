#!/usr/bin/env python3
"""The paper's Figure 1 service graph, deployed through the orchestrator.

    source -> firewall -> monitor -> { web traffic     -> cache -> out
                                     { non-web traffic ---------> out

The source->firewall and firewall->monitor links are total (point-to-
point), so the transparent highway upgrades them to bypass channels.
The monitor's egress carries a classified split (TCP/80 vs the rest),
which is *not* point-to-point — that port stays on the vSwitch, showing
the two kinds of links coexisting in one deployed service.

Run:  python examples/firewall_monitor_cache.py
"""

from repro.apps import FirewallApp, FirewallRule, ForwarderApp, MonitorApp, WebCacheApp
from repro.orchestration import NfvNode, Orchestrator, ServiceGraph
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP, ipv4_to_int
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp
from repro.traffic.profiles import uniform_profile


def build_graph():
    graph = ServiceGraph("fw-mon-cache")
    graph.add_vnf("source", ["out"])
    graph.add_vnf(
        "firewall", ["in", "out"],
        app_factory=lambda pmds: FirewallApp(
            "firewall", pmds["in"], pmds["out"],
            deny_rules=[FirewallRule(ip_src=ipv4_to_int("10.66.0.0")
                                     | 0x1)],
        ),
    )
    graph.add_vnf(
        "monitor", ["in", "out"],
        app_factory=lambda pmds: MonitorApp("monitor", pmds["in"],
                                            pmds["out"]),
    )
    graph.add_vnf(
        "cache", ["in", "out"],
        app_factory=lambda pmds: WebCacheApp("cache", pmds["in"],
                                             pmds["out"]),
    )
    graph.add_vnf("web_sink", ["in"])
    graph.add_vnf("other_sink", ["in"])

    # Total links: bypass candidates.
    graph.connect("source.out", "firewall.in")
    graph.connect("firewall.out", "monitor.in")
    graph.connect("cache.out", "web_sink.in")
    # Classified split on the monitor's egress: stays on the vSwitch.
    graph.connect("monitor.out", "cache.in",
                  match_fields={"eth_type": ETH_TYPE_IPV4,
                                "ip_proto": IP_PROTO_TCP, "l4_dst": 80})
    graph.connect("monitor.out", "other_sink.in")
    graph.validate()
    return graph


def main():
    env = Environment()
    node = NfvNode(env=env)
    graph = build_graph()
    deployment = Orchestrator(node).deploy(graph)

    print("deployed %r: %d VMs, %d steering rules, %d bypasses active"
          % (graph.name, len(deployment.vm_handles),
             len(node.switch.bridge.table), node.active_bypasses))
    for src, link in sorted(node.manager.active_links.items()):
        print("  bypass: %s -> %s" % (link.src_port_name,
                                      link.dst_port_name))
    blocked = node.manager.detector.link_for(node.ofport("monitor.out"))
    print("  monitor.out p2p link: %s (classified split keeps it on the "
          "vSwitch)" % blocked)

    # Traffic: a 50/50 mix of web (TCP/80) and other (UDP) flows.
    web = uniform_profile(128, flows=4, web=True)
    other = uniform_profile(64, flows=4)
    mixed = type(web)(name="mixed",
                      templates=web.templates + other.templates)
    source = SourceApp("traffic", deployment.pmd("source.out"),
                       profile=mixed, rate_pps=1e6)
    web_sink = SinkApp("web_sink", deployment.pmd("web_sink.in"))
    other_sink = SinkApp("other_sink", deployment.pmd("other_sink.in"))

    deployment.start_apps(env)
    source.start(env)
    web_sink.start(env)
    other_sink.start(env)
    env.run(until=env.now + 0.02)

    firewall = deployment.apps["firewall"]
    monitor = deployment.apps["monitor"]
    cache = deployment.apps["cache"]
    print("\nafter 20 ms of traffic at 1 Mpps:")
    print("  firewall: passed=%d dropped=%d"
          % (firewall.program.allowed, firewall.program.dropped))
    print("  monitor:  %d distinct flows tracked" % monitor.flow_count)
    print("  cache:    hits=%d misses=%d" % (cache.hits, cache.misses))
    print("  sinks:    web=%d other=%d"
          % (web_sink.received, other_sink.received))
    print("  vSwitch rx on bypassed port source.out: %d (all direct)"
          % node.ports["source.out"].rx_packets)
    print("  vSwitch rx on classified port monitor.out: %d (all switched)"
          % node.ports["monitor.out"].rx_packets)


if __name__ == "__main__":
    main()
