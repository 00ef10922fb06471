#!/usr/bin/env python3
"""Deploy a UNIFY NF-FG document and inspect the node like an operator.

The paper's prototype lives inside the un-orchestrator NFV node, whose
northbound API takes NF-FG JSON.  This example feeds such a document
(a firewall -> monitor chain with a web split) to the orchestrator,
then inspects the result through the ovs-appctl-style commands —
including ``bypass/show``, the command the paper's modification adds,
and ``chain/health`` over the repairer supervising the deployment —
and a control-plane event timeline.

Run:  python examples/nffg_deploy.py
"""

import json

from repro.metrics import EventTimeline, attach_highway_tracing
from repro.orchestration import (
    ChainRepairer,
    NfvNode,
    Orchestrator,
    load_nffg,
)
from repro.sim.engine import Environment
from repro.vswitch.appctl import AppCtl

NFFG_DOCUMENT = json.dumps({
    "forwarding-graph": {
        "id": "web-service",
        "VNFs": [
            {"id": "firewall", "type": "firewall",
             "ports": [{"id": "in"}, {"id": "out"}]},
            {"id": "monitor", "type": "monitor",
             "ports": [{"id": "in"}, {"id": "out"}]},
            {"id": "cache", "type": "cache",
             "ports": [{"id": "in"}, {"id": "out"}]},
            {"id": "sink", "type": "forwarder",
             "ports": [{"id": "in"}, {"id": "unused"}]},
        ],
        "end-points": [],
        "big-switch": {"flow-rules": [
            # Total links: upgraded to bypass channels automatically.
            {"match": {"port_in": "vnf:firewall:out"},
             "actions": [{"output_to_port": "vnf:monitor:in"}]},
            {"match": {"port_in": "vnf:cache:out"},
             "actions": [{"output_to_port": "vnf:sink:in"}]},
            # Classified split on the monitor's egress: stays on OVS.
            {"match": {"port_in": "vnf:monitor:out", "protocol": "tcp",
                       "dest_port": 80},
             "actions": [{"output_to_port": "vnf:cache:in"}],
             "priority": 200},
            {"match": {"port_in": "vnf:monitor:out"},
             "actions": [{"output_to_port": "vnf:sink:in"}]},
        ]},
    }
})


def main():
    env = Environment()
    node = NfvNode(env=env)
    timeline = EventTimeline(clock=lambda: env.now)
    attach_highway_tracing(timeline, node.manager.detector, node.manager)

    graph = load_nffg(NFFG_DOCUMENT)
    print("loaded NF-FG %r: %d VNFs, %d flow rules"
          % (graph.name, len(graph.vnfs), len(graph.links)))
    orchestrator = Orchestrator(node)
    deployment = orchestrator.deploy(graph)
    print("deployed: %d VMs, %d app instances"
          % (len(deployment.vm_handles), len(deployment.apps)))
    repairer = ChainRepairer(orchestrator, deployment).start(env)

    ctl = AppCtl(node.switch, node.manager, node.obs)
    print("\n$ ovs-ofctl show")
    print(ctl.run("show"))
    print("\n$ ovs-ofctl dump-flows")
    print(ctl.run("dump-flows"))
    print("\n$ ovs-appctl bypass/show")
    print(ctl.run("bypass/show"))
    env.run(until=env.now + 0.01)  # a few repairer health passes
    print("\n$ ovs-appctl chain/health")
    print(ctl.run("chain/health"))
    repairer.stop()
    print("\ncontrol-plane timeline:")
    print(timeline.render())
    establishments = timeline.spans("p2p-detected", "bypass-active",
                                    key="src")
    if establishments:
        print("\nmean establishment: %.1f ms"
              % (1e3 * sum(establishments) / len(establishments)))


if __name__ == "__main__":
    main()
