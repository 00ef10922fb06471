#!/usr/bin/env python3
"""An operator's session: text-based management of a live highway node.

Walks the ovs-ofctl / ovs-appctl surface end to end: installing flows
from text, watching bypasses in ``bypass/show``, mirroring a port into
an IDS (and seeing the bypass yield to it), rate-limiting a port,
taking a port down, and saving/restoring the whole flow configuration.

Run:  python examples/operator_session.py
"""

from repro.openflow.messages import PortMod
from repro.orchestration import NfvNode, verify_host_invariants
from repro.packet.builder import make_udp_packet
from repro.packet.mbuf import Mbuf
from repro.vswitch.appctl import AppCtl


def shell(ctl, command, argument=""):
    prompt = "$ ovs %s %s" % (command, argument)
    print("\n%s" % prompt.rstrip())
    print(ctl.run(command, argument))


def send(node, port_name, count=3):
    pmd = node.vms[node.agent.owner_of(port_name)].pmd(port_name)
    for index in range(count):
        mbuf = Mbuf()
        mbuf.packet = make_udp_packet(src_port=4000 + index,
                                      frame_size=64)
        mbuf.wire_length = 64
        pmd.tx_burst([mbuf])
    node.switch.step_dataplane()


def main():
    node = NfvNode()
    node.create_vm("web", ["web0"])
    node.create_vm("db", ["db0"])
    node.create_vm("ids", ["ids0"])
    ctl = AppCtl(node.switch, node.manager)
    # The control plane is timed (~0.1 s per establishment): the
    # operator waits for it to settle before looking.
    settle = node.settle_control_plane

    shell(ctl, "add-flow", "in_port=1,actions=output:2")
    shell(ctl, "add-flow", "in_port=2,actions=output:1")
    settle()
    shell(ctl, "bypass/show")

    send(node, "web0")
    shell(ctl, "dump-flows")

    print("\n--- operator mirrors web0 into the IDS ---")
    node.switch.add_mirror("ids-tap", output="ids0",
                           select_src=["web0"])
    settle()
    shell(ctl, "show")
    shell(ctl, "bypass/show")
    send(node, "web0")
    captured = node.vms["ids"].pmd("ids0").rx_burst(32)
    print("IDS captured %d packets (bypass yielded to the mirror)"
          % len(captured))
    node.switch.remove_mirror("ids-tap")
    settle()
    print("mirror removed -> bypasses: %d" % node.active_bypasses)

    print("\n--- operator rate-limits db0 and takes it down ---")
    node.switch.set_ingress_policing("db0", rate_pps=10000)
    settle()
    shell(ctl, "show")
    node.connection.controller_send(
        PortMod(port_no=node.ofport("db0"), down=True)
    )
    settle()
    shell(ctl, "bypass/show")
    node.connection.controller_send(
        PortMod(port_no=node.ofport("db0"), down=False)
    )
    node.switch.set_ingress_policing("db0", rate_pps=0)
    settle()

    print("\n--- save, wipe, restore ---")
    saved = ctl.run("save-flows")
    print(saved)
    print(ctl.run("del-flows"))
    settle()
    print("bypasses after wipe: %d" % node.active_bypasses)
    print(ctl.run("restore-flows", saved))
    settle()
    print("bypasses after restore: %d" % node.active_bypasses)

    checks = verify_host_invariants(node)
    print("\ninvariant checks passed: %s" % ", ".join(checks))


if __name__ == "__main__":
    main()
