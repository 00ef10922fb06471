"""Operator CLI surface: ovs-ofctl / ovs-appctl style commands.

Text-level management of a :class:`~repro.vswitch.vswitchd.VSwitchd`,
mirroring the commands operators drive the real prototype with, plus the
one command the paper's modification would add (``bypass/show``).  All
output is plain text, and ``dump-flows`` counters include bypassed
traffic through the same stats-merge path the controller uses — the
operator sees one consistent story.  Every read view
(``pmd/stats-show``, ``coverage/show``, ``dpif/fastpath-show``,
``sched/show``, ...) is a slice of ``metrics/dump``:
:data:`~repro.obs.plane.OPERATOR_VIEWS` names the metric prefixes each
one prints.
"""

from functools import partial
from typing import Tuple

from repro.obs.plane import OPERATOR_VIEWS
from repro.openflow.flowsyntax import format_flow, parse_flow
from repro.openflow.table import FlowEntry
from repro.vswitch.ports import DpdkrOvsPort
from repro.vswitch.vswitchd import VSwitchd


def add_flow(vswitchd: VSwitchd, text: str) -> FlowEntry:
    """``ovs-ofctl add-flow``: install a rule from its text form.

    Goes through the bridge's flow table, so the p-2-p detector sees the
    change exactly as it would a controller flowmod.  A ``table=N`` key
    selects a later pipeline table.
    """
    match, actions, attributes = parse_flow(text)
    entry = FlowEntry(
        match,
        actions,
        priority=attributes.get("priority", 0x8000),
        cookie=attributes.get("cookie", 0),
        idle_timeout=float(attributes.get("idle_timeout", 0)),
        hard_timeout=float(attributes.get("hard_timeout", 0)),
        install_time=vswitchd.bridge.clock(),
    )
    vswitchd.bridge._table_for(attributes.get("table", 0)).add(entry)
    return entry


def save_flows(vswitchd: VSwitchd) -> str:
    """Serialize every installed rule as restorable text (no counters)."""
    lines = []
    bridge = vswitchd.bridge
    for table_id in sorted(bridge.tables):
        for entry in bridge.tables[table_id].entries():
            line = format_flow(entry.match, entry.actions,
                               priority=entry.priority)
            if table_id:
                line = "table=%d,%s" % (table_id, line)
            lines.append(line)
    return "\n".join(lines)


def restore_flows(vswitchd: VSwitchd, text: str) -> int:
    """Replace the flow configuration with the ``save_flows`` output.

    Returns the number of rules installed.  Runs through the normal
    table paths, so detectors and caches react as usual.
    """
    for table in list(vswitchd.bridge.tables.values()):
        table.clear()
    count = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        add_flow(vswitchd, line)
        count += 1
    return count


def del_flows(vswitchd: VSwitchd, text: str = "") -> int:
    """``ovs-ofctl del-flows``: delete rules matching a text spec.

    An empty spec deletes everything.  Returns the number removed.
    """
    if not text.strip():
        return len(vswitchd.bridge.table.clear())
    match, _actions, attributes = parse_flow(text + ",actions=drop")
    result = vswitchd.bridge.table.delete(
        match,
        strict="priority" in attributes,
        priority=attributes.get("priority", 0x8000),
    )
    return len(result.removed)


def dump_flows(vswitchd: VSwitchd) -> str:
    """``ovs-ofctl dump-flows``: one line per rule, counters merged with
    the shared-memory bypass statistics."""
    bridge = vswitchd.bridge
    lines = []
    for table_id in sorted(bridge.tables):
        for entry in bridge.tables[table_id].entries():
            packets, byte_count = bridge._merged_flow_counters(entry)
            line = format_flow(
                entry.match, entry.actions, priority=entry.priority,
                counters=(packets, byte_count),
            )
            if table_id:
                line = "table=%d, %s" % (table_id, line)
            lines.append(line)
    return "\n".join(lines)


def show(vswitchd: VSwitchd) -> str:
    """``ovs-ofctl show``-ish: bridge summary and port table."""
    lines = [
        "bridge %s (datapath id %#x): %d ports, %d flows"
        % (vswitchd.bridge.name, vswitchd.bridge.datapath_id,
           len(vswitchd.datapath.ports), len(vswitchd.bridge.table)),
    ]
    augmentor = vswitchd.bridge.stats_augmentor
    for ofport in sorted(vswitchd.datapath.ports):
        port = vswitchd.datapath.ports[ofport]
        rx_p, _rx_b, tx_p, _tx_b = augmentor.port_extra(ofport)
        flags = [port.kind.value]
        if isinstance(port, DpdkrOvsPort) and port.bypass_active:
            flags.append("BYPASS")
        policer = vswitchd.datapath.policers.get(ofport)
        if policer is not None:
            flags.append("POLICED@%.0fpps" % policer.rate_pps)
        lines.append(
            " %2d(%s): %s rx=%d tx=%d drops=%d"
            % (ofport, port.name, ",".join(flags),
               port.rx_packets + rx_p, port.tx_packets + tx_p,
               port.tx_dropped)
        )
    for mirror in vswitchd.datapath.mirrors:
        lines.append(
            " mirror %s: src=%s dst=%s -> %d"
            % (mirror.name, sorted(mirror.select_src),
               sorted(mirror.select_dst), mirror.output)
        )
    return "\n".join(lines)


def bypass_show(vswitchd: VSwitchd, manager=None) -> str:
    """``appctl bypass/show``: the command this prototype adds.

    Lists active bypass channels with their zones, rule attribution and
    shared-memory counters, and the lifecycle history.
    """
    if manager is None:
        return "transparent highway: disabled"
    lines = ["transparent highway: enabled, %d active channel(s)"
             % len(manager.active_links)]
    for src_ofport in sorted(manager.active_links):
        link = manager.active_links[src_ofport]
        if link.ring is None:
            # Establishing (or between retry attempts): nothing
            # provisioned to report yet.
            lines.append(
                " %s -> %s  state=%s flow=%d (unprovisioned, attempt %d)"
                % (link.src_port_name, link.dst_port_name,
                   link.state.value, link.link.flow_id, link.attempts)
            )
            continue
        lines.append(
            " %s -> %s  state=%s zone=%s flow=%d tx_packets=%d "
            "tx_bytes=%d ring=%d/%d enq_fail=%d partial=%d"
            % (link.src_port_name, link.dst_port_name, link.state.value,
               link.zone_name, link.link.flow_id, link.stats.tx_packets,
               link.stats.tx_bytes, len(link.ring),
               link.ring.capacity - 1, link.ring.enqueue_failures,
               link.ring.partial_enqueues)
        )
    removed = [link for link in manager.history
               if link not in manager.active_links.values()]
    if removed:
        lines.append(" history: %d channel(s) removed, %d packets "
                     "carried in total"
                     % (len(removed),
                        sum(link.stats.tx_packets for link in removed
                            if link.stats is not None)))
    return "\n".join(lines)


def overload_set(vswitchd: VSwitchd, argument: str) -> str:
    """``appctl overload/set KEY VALUE``: tune overload knobs live.

    ``fail_mode standalone|secure`` switches the fail mode; any numeric
    field of the active :class:`~repro.overload.UpcallPolicy` or
    :class:`~repro.overload.OverloadPolicy` can be set by name.
    """
    parts = argument.split()
    if len(parts) != 2:
        return "usage: overload/set KEY VALUE"
    key, raw = parts
    if key == "fail_mode":
        try:
            vswitchd.set_fail_mode(raw)
        except (ValueError, RuntimeError) as exc:
            return "error: %s" % exc
        return "fail_mode=%s" % raw
    targets = []
    if vswitchd.upcall_queue is not None:
        targets.append(vswitchd.upcall_queue.policy)
    if vswitchd.overload is not None:
        targets.append(vswitchd.overload.policy)
    for policy in targets:
        if hasattr(policy, key):
            current = getattr(policy, key)
            try:
                value = type(current)(raw)
            except ValueError:
                return "error: %r is not a valid %s" % (
                    raw, type(current).__name__)
            setattr(policy, key, value)
            return "%s=%s" % (key, value)
    known = sorted(
        {name for policy in targets for name in vars(policy)} | {"fail_mode"}
    )
    return "unknown knob %r (try: %s)" % (key, ", ".join(known))


def metrics_dump(obs=None, prefixes: Tuple[str, ...] = ()) -> str:
    """``appctl metrics/dump``: full registry, Prometheus text format.

    With ``prefixes`` it is one of the :data:`OPERATOR_VIEWS`: only the
    sample lines whose metric names start with one of them.
    """
    if obs is None:
        return "observability: not wired"
    return obs.view(prefixes) if prefixes else obs.dump()


def trace_dump(obs=None, argument: str = "") -> str:
    """``appctl trace/dump [LIMIT]``: the most recent sampled packet
    paths (10 unless told otherwise)."""
    try:
        limit = int(argument) if argument.strip() else 10
    except ValueError:
        return "usage: trace/dump [LIMIT]"
    if obs is None:
        return "observability: not wired"
    return obs.tracer.render(limit=limit)


class AppCtl:
    """Dispatcher bundling the commands (an ovs-appctl socket stand-in)."""

    def __init__(self, vswitchd: VSwitchd, manager=None, obs=None) -> None:
        self.vswitchd = vswitchd
        self.manager = manager
        self.obs = obs

    def run(self, command: str, argument: str = "") -> str:
        handlers = {
            "add-flow": lambda: str(add_flow(self.vswitchd, argument)),
            "del-flows": lambda: "%d flows removed" % del_flows(
                self.vswitchd, argument
            ),
            "dump-flows": lambda: dump_flows(self.vswitchd),
            "save-flows": lambda: save_flows(self.vswitchd),
            "restore-flows": lambda: "%d flows restored" % restore_flows(
                self.vswitchd, argument
            ),
            "show": lambda: show(self.vswitchd),
            "sched/rebalance": lambda: str(self.vswitchd.rebalance()),
            "overload/set": lambda: overload_set(self.vswitchd, argument),
            "metrics/dump": lambda: metrics_dump(self.obs),
            "trace/dump": lambda: trace_dump(self.obs, argument),
            "bypass/show": lambda: bypass_show(self.vswitchd,
                                               self.manager),
        }
        for view, prefixes in OPERATOR_VIEWS.items():
            handlers[view] = partial(metrics_dump, self.obs, prefixes)
        handler = handlers.get(command)
        if handler is None:
            return "unknown command %r (try: %s)" % (
                command, ", ".join(sorted(handlers))
            )
        return handler()
