#!/usr/bin/env python3
"""Quickstart: watch a flowmod turn into a transparent bypass channel.

Builds one NFV host with two VMs, installs a single OpenFlow rule
steering all traffic from VM1's port to VM2's port, and shows:

1. the p-2-p link detector recognizing the rule,
2. the bypass channel being plugged into both VMs,
3. packets flowing VM-to-VM without touching the vSwitch,
4. the controller still seeing correct statistics (transparency).

Run:  python examples/quickstart.py
"""

from repro.orchestration import NfvNode
from repro.packet import make_udp_packet
from repro.packet.mbuf import Mbuf


def mbuf_with(packet):
    mbuf = Mbuf()
    mbuf.packet = packet
    mbuf.wire_length = packet.wire_length
    return mbuf


def main():
    # One host: vSwitch + hypervisor + compute agent, highway enabled.
    node = NfvNode()
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    print("host up:", node)

    # The controller (unmodified, speaking real OpenFlow 1.3 bytes)
    # installs: "everything from dpdkr0 -> output dpdkr1".
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    node.settle_control_plane()

    link = next(iter(node.manager.active_links.values()))
    print("\ndetector recognized: %s" % link.link)
    print("bypass memzone %r mapped into: %s" % (
        link.zone_name, node.registry.lookup(link.zone_name).mapped_by))

    # VM1's application transmits on its ordinary port; the dual-channel
    # PMD silently routes the packets through the bypass ring.
    tx_pmd = node.vms["vm1"].pmd("dpdkr0")
    rx_pmd = node.vms["vm2"].pmd("dpdkr1")
    for index in range(5):
        tx_pmd.tx_burst([mbuf_with(make_udp_packet(
            src_port=1000 + index, frame_size=64))])
    received = rx_pmd.rx_burst(32)
    print("\nVM2 received %d packets directly from VM1" % len(received))
    print("vSwitch saw %d of them (port rx counter)"
          % node.ports["dpdkr0"].rx_packets)
    print("PMD tx path used: bypass=%d normal=%d"
          % (tx_pmd.tx_via_bypass, tx_pmd.tx_via_normal))

    # Transparency: the controller's stats request returns the counters
    # the guest PMD maintained in shared memory.
    node.controller.request_flow_stats()
    node.controller.request_port_stats()
    node.settle_control_plane()
    node.controller.poll()
    flow_stat = node.controller.latest_flow_stats.stats[0]
    print("\ncontroller-visible flow stats: %d packets, %d bytes"
          % (flow_stat.packet_count, flow_stat.byte_count))
    port_stats = {s.port_no: s
                  for s in node.controller.latest_port_stats.stats}
    print("controller-visible port stats: dpdkr0 rx=%d, dpdkr1 tx=%d"
          % (port_stats[node.ofport("dpdkr0")].rx_packets,
             port_stats[node.ofport("dpdkr1")].tx_packets))

    # Dynamicity: removing the rule falls back to the vSwitch path.
    from repro.openflow.match import Match

    node.controller.delete_flow(Match(in_port=node.ofport("dpdkr0")))
    node.settle_control_plane()
    print("\nafter rule removal: active bypasses = %d, "
          "PMD back on normal channel = %s"
          % (node.active_bypasses, not tx_pmd.bypass_tx_active))


if __name__ == "__main__":
    main()
