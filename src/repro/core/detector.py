"""The p-2-p link detector: the new vswitchd module.

Watches the bridge's flow table and decides, for every dpdkr port A,
whether the installed rules currently steer *all* traffic received from
A to exactly one other dpdkr port B with no side effects — the condition
under which the vSwitch can be bypassed without changing semantics.

Detection condition (see DESIGN.md §5.1):

1. there is a *total* rule for A — match is exactly ``in_port=A`` (every
   other field wildcarded) — whose actions are a single plain
   ``output:B``;
2. every other rule that can match traffic from A (``in_port=A`` or
   in_port wildcarded) and that would win over the total rule for some
   packet (higher priority, or same priority but earlier in the table)
   also forwards purely to the same B.

Rules strictly shadowed by the total rule cannot attract any of A's
packets and are ignored.  Rules with set-field/controller/multi-output
actions in the winning set disqualify the port: the vSwitch performs
work the bypass could not reproduce.

**Stateful extension (DESIGN.md §5.1b).**  A winning rule whose actions
are exactly ``[xfsm:<program>, output:B]`` also qualifies, *provided*
the delegated program resolves in the switch's registry and is
**state-safe** (drop/allow decisions only, no header rewrites) — the
bypass PMD can execute such a program against the shared state table
and reproduce the vSwitch's verdicts exactly.  The winning set must be
uniform: every rule must carry the *same* delegation (same program,
same perimeter side) or none at all, otherwise some packets would be
evaluated on the channel that the switch would have forwarded
unexamined.

The detector is purely analytical: it emits ``on_created(P2PLink)`` /
``on_removed(P2PLink)`` callbacks; acting on them is the bypass
manager's job.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.openflow.actions import is_pure_single_output, xfsm_delegation
from repro.openflow.table import FlowEntry, FlowTable


@dataclass(frozen=True)
class P2PLink:
    """A detected directed point-to-point link.

    ``xfsm_program`` names the state-safe program every winning rule
    delegates to (None for a plain stateless link); ``xfsm_from_inside``
    is the perimeter side the delegating rules carry.
    """

    src_ofport: int
    dst_ofport: int
    flow_id: int      # the total rule implementing the link
    cookie: int = 0
    xfsm_program: Optional[str] = None
    xfsm_from_inside: bool = True

    def __str__(self) -> str:
        stateful = ("" if self.xfsm_program is None
                    else " xfsm=%s" % self.xfsm_program)
        return "p2p %d->%d (flow %d%s)" % (
            self.src_ofport, self.dst_ofport, self.flow_id, stateful
        )


LinkCallback = Callable[[P2PLink], None]


class P2PLinkDetector:
    """Analyses flowmod-driven table changes into p-2-p link events."""

    def __init__(
        self,
        table: FlowTable,
        is_eligible_port: Optional[Callable[[int], bool]] = None,
        xfsm_lookup: Optional[Callable[[str], object]] = None,
    ) -> None:
        """``is_eligible_port(ofport)`` restricts endpoints (the prototype
        only bypasses dpdkr-to-dpdkr connections); default allows all.
        ``xfsm_lookup(name)`` resolves a delegated program (normally the
        datapath registry's ``get``); without it, delegating rules never
        qualify."""
        self.table = table
        self.is_eligible_port = is_eligible_port or (lambda _ofport: True)
        self.xfsm_lookup = xfsm_lookup or (lambda _name: None)
        self.on_created: List[LinkCallback] = []
        self.on_removed: List[LinkCallback] = []
        self._links: Dict[int, P2PLink] = {}  # src ofport -> link
        self.analyses = 0
        self.events_emitted = 0
        table.add_listener(self._on_table_change)

    # -- public state ---------------------------------------------------------

    @property
    def links(self) -> Dict[int, P2PLink]:
        """Currently detected links, keyed by source ofport (copy)."""
        return dict(self._links)

    def link_for(self, src_ofport: int) -> Optional[P2PLink]:
        return self._links.get(src_ofport)

    # -- change handling ----------------------------------------------------------

    def _on_table_change(self, kind: str, entry: FlowEntry) -> None:
        affected = self._affected_ports(entry)
        for ofport in affected:
            self._reanalyze(ofport)

    def _affected_ports(self, entry: FlowEntry) -> List[int]:
        in_port = entry.match.in_port
        if in_port is not None:
            # A rule pinned to one input port can only change that port's
            # analysis... and the analyses of ports currently linked *to*
            # it are unaffected (links are directional).
            return [in_port]
        # in_port wildcarded: every currently-known or rule-referenced
        # port could be affected; re-analyse all ports seen in the table
        # plus those with existing links.
        ports = set(self._links)
        for existing in self.table.entries():
            existing_port = existing.match.in_port
            if existing_port is not None:
                ports.add(existing_port)
        return sorted(ports)

    def refresh_all(self) -> None:
        """Full recompute (used after attaching to a populated table)."""
        ports = set(self._links)
        for entry in self.table.entries():
            if entry.match.in_port is not None:
                ports.add(entry.match.in_port)
        for ofport in sorted(ports):
            self._reanalyze(ofport)

    def _reanalyze(self, ofport: int) -> None:
        new_link = self.analyze_port(ofport)
        old_link = self._links.get(ofport)
        if new_link == old_link:
            return
        if old_link is not None:
            del self._links[ofport]
            self._emit(self.on_removed, old_link)
        if new_link is not None:
            self._links[ofport] = new_link
            self._emit(self.on_created, new_link)

    def _emit(self, callbacks: List[LinkCallback], link: P2PLink) -> None:
        self.events_emitted += 1
        for callback in callbacks:
            callback(link)

    # -- the analysis itself ----------------------------------------------------------

    def _rule_steering(
        self, entry: FlowEntry
    ) -> Optional[Tuple[int, Optional[str], bool]]:
        """``(dst_ofport, program or None, from_inside)`` when a ring
        copy (plus, for the stateful shape, a state-safe program run)
        reproduces this rule's effect; None otherwise."""
        if is_pure_single_output(entry.actions):
            return entry.actions[0].port, None, True
        delegation = xfsm_delegation(entry.actions)
        if delegation is None:
            return None
        program_name, from_inside, dst_ofport = delegation
        program = self.xfsm_lookup(program_name)
        if program is None or not getattr(program, "state_safe", False):
            return None
        return dst_ofport, program_name, from_inside

    def analyze_port(self, ofport: int) -> Optional[P2PLink]:
        """Decide whether ``ofport`` currently has a p-2-p link.

        Returns the link, or None.  Pure function of the flow table
        (and of the program registry, for delegating rules).
        """
        self.analyses += 1
        if not self.is_eligible_port(ofport):
            return None
        entries = self.table.entries()  # highest priority first, FIFO ties

        # 1. Find the winning total rule for this port: the first entry in
        #    lookup order whose match is exactly in_port=ofport.
        total_rule: Optional[FlowEntry] = None
        total_index = -1
        for index, entry in enumerate(entries):
            if entry.match.is_total_for_port(ofport):
                total_rule = entry
                total_index = index
                break
        if total_rule is None:
            return None
        steering = self._rule_steering(total_rule)
        if steering is None:
            return None
        dst_ofport, program_name, from_inside = steering
        if dst_ofport == ofport or not self.is_eligible_port(dst_ofport):
            return None

        # 2. Every rule that would beat the total rule for some packet
        #    from this port must steer identically: same destination,
        #    same delegation (or uniformly none).
        for entry in entries[:total_index]:
            in_port = entry.match.in_port
            if in_port is not None and in_port != ofport:
                continue  # cannot match traffic from this port
            if self._rule_steering(entry) != steering:
                return None

        return P2PLink(
            src_ofport=ofport,
            dst_ofport=dst_ofport,
            flow_id=total_rule.flow_id,
            cookie=total_rule.cookie,
            xfsm_program=program_name,
            xfsm_from_inside=from_inside,
        )
