"""The OVS-DPDK fast path: per-PMD-core packet processing.

One :class:`Datapath` instance is the forwarding engine of a bridge; its
:meth:`process_ports` is the body of a PMD core's poll iteration.

The fast path is modelled on OVS's ``dp_netdev`` flow batches: flow keys
are computed for the whole received burst up front, packets are grouped
per distinct key, one lookup resolves every packet of a batch, and the
batch replays a plan compiled once per traversal.
Lookup itself is four-tiered, exactly like OVS-DPDK:

1. **EMC** — exact flow key -> full pipeline traversal, precise
   per-flowmod invalidation (:mod:`repro.vswitch.emc`);
2. **SMC** — key hash -> subtable hint, validated by the classifier
   before being believed (:mod:`repro.vswitch.smc`);
3. **megaflow** — minimally-masked flow key -> full pipeline traversal,
   the wildcard cache populated by lookup-driven unwildcarding
   (:mod:`repro.vswitch.megaflow`), priority-safe by construction;
4. **dpcls** — ranked tuple-space search with goto_table pipeline
   walking (:mod:`repro.vswitch.classifier`).

Every entry point returns the simulated CPU cost of the work done — the
quantity that makes the vSwitch a *shared* bottleneck for every chain
hop in the paper's Figure 3.  The pre-batching scalar lane and the
whole-cache wipe are oracles in ``tests/support/reference_datapath.py``.
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro.openflow.actions import (
    GotoTableAction,
    OutputAction,
    PORT_CONTROLLER,
    SetFieldAction,
    XfsmAction,
    goto_table_of,
)
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey, RekeyMemo, cached_flow_key
from repro.packet.headers import Ethernet, IPv4, MacAddress, Tcp, Udp, Vlan
from repro.packet.mbuf import Mbuf
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.state.xfsm import event_for
from repro.vswitch.classifier import TupleSpaceClassifier, signature_of
from repro.vswitch.emc import ExactMatchCache, Traversal
from repro.vswitch.megaflow import FlowWildcards, MegaflowCache
from repro.vswitch.ports import OvsPort, PortKind
from repro.vswitch.smc import SignatureMatchCache

# A global read, per burst, instead of an enum member's.
_PHY = PortKind.PHY

# Called with (mbuf, in_port, reason) on table miss / controller action.
UpcallHandler = Callable[[Mbuf, int, str], None]


# The stage a resolved lookup's cost is charged to, by resolving tier.
_LOOKUP_STAGE = {"smc": "smc_lookup", "megaflow": "megaflow_lookup",
                 "dpcls": "classifier_lookup"}


def _free_upcall(mbuf: Mbuf, in_port: int, reason: str) -> None:
    """The upcall handler of a datapath that has none: drop."""
    mbuf.free()


class FlowPlan:
    """What a resolved traversal does to a packet, compiled once:
    ``actions`` is its combined stateless action list (goto_table and
    XFSM delegations taken out), ``stateful`` the delegations, and
    ``output`` the port when the whole list is one plain output — the
    case where a flow batch is forwarded by one list append."""

    __slots__ = ("actions", "stateful", "output")

    def __init__(self, traversal: Traversal) -> None:
        combined = [action for entry in traversal
                    for action in entry.actions
                    if not isinstance(action, GotoTableAction)]
        self.stateful = tuple(action for action in combined
                              if isinstance(action, XfsmAction))
        self.actions = tuple(action for action in combined
                             if not isinstance(action, XfsmAction))
        only = self.actions[0] if len(self.actions) == 1 else None
        self.output = (only.port if isinstance(only, OutputAction)
                       and only.port != PORT_CONTROLLER else None)


class PlanMemo:
    """Traversal -> :class:`FlowPlan`, compiled on first use: shared
    per traversal, not per cached key, and dropped wholesale on any
    table change — a modify rewrites ``entry.actions`` under an
    unchanged traversal, so no plan may outlive a flowmod."""

    def __init__(self) -> None:
        self._plans: Dict[Traversal, FlowPlan] = {}
        self.compiles = 0
        self.flushes = 0

    @property
    def entries(self) -> int:
        return len(self._plans)

    def plan_for(self, traversal: Traversal) -> FlowPlan:
        try:
            return self._plans[traversal]
        except KeyError:
            plan = self._plans[traversal] = FlowPlan(traversal)
            self.compiles += 1
            return plan

    def flush(self) -> None:
        if self._plans:
            self._plans.clear()
            self.flushes += 1


class Datapath:
    """Forwarding engine: lookup structures + action execution."""

    def __init__(
        self,
        table: FlowTable,
        costs: CostModel = DEFAULT_COST_MODEL,
        clock: Optional[Callable[[], float]] = None,
        upcall_handler: Optional[UpcallHandler] = None,
        burst_size: int = 32,
    ) -> None:
        self.table = table
        self.costs = costs
        self.clock = clock or (lambda: 0.0)
        self.upcall_handler = upcall_handler
        self.burst_size = burst_size
        # The lookup tiers, each switched by plain assignment.
        self.emc_enabled = True
        self.smc_enabled = True
        self.megaflow_enabled = True
        self.emc = ExactMatchCache()
        self.smc = SignatureMatchCache()
        self.megaflow = MegaflowCache()
        self.classifier = TupleSpaceClassifier(table)
        table.add_listener(self._on_table_change)
        # Multi-table pipeline (OF1.3 goto_table): table 0 is the entry
        # point; later tables are attached on demand by the bridge.
        self.tables: Dict[int, FlowTable] = {0: table}
        self.classifiers: Dict[int, TupleSpaceClassifier] = {
            0: self.classifier
        }
        self.pipeline_drops = 0
        self.ports: Dict[int, OvsPort] = {}
        self.mirrors: List = []  # repro.vswitch.mirror.Mirror
        self.policers: Dict[int, object] = {}  # ofport -> IngressPolicer
        # Bounded upcall path (repro.overload.upcall.BoundedUpcallQueue).
        # None = legacy inline upcalls: the handler runs synchronously at
        # the miss, with the full slow-path cost charged there.  With a
        # queue installed, misses are admitted (or shed, accounted) and
        # dispatched at the end of the poll iteration.
        self.upcall_queue = None
        # Per-port RX shed levels (fraction of each burst dropped before
        # classification), maintained by the overload monitor.
        self.rx_shed: Dict[int, float] = {}
        self.rx_early_drops: Dict[int, int] = {}
        self._shed_debt: Dict[int, float] = {}
        # Cumulative fast-path statistics (all count packets; smc_hits
        # and megaflow_hits are the subsets of classifier_hits resolved
        # through a validated hint / a cached wildcard entry).
        self.emc_hits = 0
        self.smc_hits = 0
        self.megaflow_hits = 0
        self.classifier_hits = 0
        self.upcalls_no_match = 0
        self.upcalls_action = 0
        self.action_drops = 0
        self.unknown_port_drops = 0
        self.packets_processed = 0
        self.packets_mirrored = 0
        # Stateful fast-path tier (repro.state): programs rules may
        # delegate to via XfsmAction, keyed by program name.  Evaluation
        # runs after cache-hit resolution — a stateful decision costs
        # ovs_xfsm_exec (~EMC-hit time), not a classifier walk + VM hop.
        self.xfsm_programs: Dict[str, object] = {}
        self.xfsm_evaluated = 0
        self.xfsm_drops = 0
        self.xfsm_unknown_drops = 0
        # Flow-batch statistics.
        self.flow_batches = 0
        self.packets_batched = 0
        self.batch_fill_counts: Dict[int, int] = {}
        # Resolve once, replay per packet: one flow plan per traversal,
        # one re-keyed flow key per (flow, port).
        self.plans = PlanMemo()
        self.rekeys = RekeyMemo()
        # Optional control-path coverage hook (wired by Observability):
        # called as coverage(event_name, amount).
        self.coverage: Optional[Callable[..., None]] = None

    def _on_table_change(self, kind: str, entry: FlowEntry) -> None:
        self.plans.flush()
        if kind == "added":
            # A new rule may outrank cached resolutions for any key it
            # covers (keys are stable across the pipeline: goto+set-field
            # combinations are not produced by this control plane).
            evicted = self.emc.invalidate_matching(entry.match)
            # Any megaflow region overlapping the new rule could now
            # resolve differently somewhere inside the overlap.
            mf_evicted = self.megaflow.invalidate_matching(entry.match)
        else:
            # Removed or modified: every traversal containing the entry
            # is stale (its actions or pipeline structure changed).
            evicted = self.emc.invalidate_entry(entry)
            mf_evicted = self.megaflow.invalidate_entry(entry)
        if evicted and self.coverage is not None:
            self.coverage("emc_precise_eviction", evicted)
        if mf_evicted and self.coverage is not None:
            self.coverage("megaflow_precise_eviction", mf_evicted)
        if kind != "added":
            # Removing a delegating rule orphans the flow state it
            # created: drop exactly the entries the rule's match covers
            # (the EMC precise-invalidation contract, applied to state).
            for action in entry.actions:
                if not isinstance(action, XfsmAction):
                    continue
                program = self.xfsm_programs.get(action.program)
                if program is None:
                    continue
                stale = program.table.invalidate_matching(entry.match)
                if stale and self.coverage is not None:
                    self.coverage("xfsm_precise_invalidation", stale)

    def register_xfsm(self, program) -> None:
        """Register a :class:`repro.state.xfsm.Xfsm` for delegation."""
        if program.name in self.xfsm_programs:
            raise ValueError("xfsm program %r already registered"
                             % program.name)
        self.xfsm_programs[program.name] = program

    def attach_table(self, table_id: int, table: FlowTable) -> None:
        """Register a later pipeline table (goto_table target)."""
        if table_id in self.tables:
            raise ValueError("table %d already attached" % table_id)
        self.tables[table_id] = table
        self.classifiers[table_id] = TupleSpaceClassifier(table)
        table.add_listener(self._on_table_change)

    # -- port management ----------------------------------------------------

    def add_port(self, port: OvsPort) -> None:
        if port.ofport in self.ports:
            raise ValueError("ofport %d already in use" % port.ofport)
        self.ports[port.ofport] = port

    def remove_port(self, ofport: int) -> OvsPort:
        self.rekeys.forget(ofport)
        try:
            return self.ports.pop(ofport)
        except KeyError:
            raise ValueError("no port %d" % ofport) from None

    # -- batch statistics -----------------------------------------------------

    @property
    def avg_batch_fill(self) -> float:
        """Mean packets per flow batch (1.0 = no batching benefit)."""
        if not self.flow_batches:
            return 0.0
        return self.packets_batched / self.flow_batches

    @property
    def miss_upcalls(self) -> int:
        """Total upcalls, both reasons (kept for compatibility; the
        metrics plane exports the per-reason split)."""
        return self.upcalls_no_match + self.upcalls_action

    # -- the upcall path ------------------------------------------------------

    def _punt(self, mbuf: Mbuf, in_port: int, reason: str,
              stages=None) -> float:
        """Hand one packet to the slow path; returns the fast-path cost.

        Legacy mode (no queue): the handler runs inline — its cost was
        already charged at the lookup miss, so this contributes nothing.
        Queue mode: the packet is admitted (enqueue cost) or shed
        (accounted drop, shed cost); the slow-path cost proper is
        charged at dispatch.
        """
        if self.upcall_queue is None:
            if self.upcall_handler is not None:
                self.upcall_handler(mbuf, in_port, reason)
            else:
                mbuf.free()
            return 0.0
        if self.upcall_queue.admit(mbuf, in_port, reason):
            cost = self.costs.upcall_enqueue
        else:
            cost = self.costs.upcall_shed
        if stages is not None:
            stages.add("miss_upcall", cost, packets=1)
        return cost

    def _dispatch_upcalls(self, stages=None) -> float:
        """Drain the bounded queue (end of the poll iteration), charging
        the slow-path cost per upcall actually served."""
        dispatched = self.upcall_queue.dispatch(
            self.upcall_handler or _free_upcall)
        if not dispatched:
            return 0.0
        cost = self.costs.ovs_miss_upcall * dispatched
        if stages is not None:
            stages.add("miss_upcall", cost, packets=dispatched)
        return cost

    # -- lookup ------------------------------------------------------------------

    def _walk_pipeline(
        self, key: FlowKey, fill: int, probed: bool = False
    ) -> Tuple[Optional[Traversal], float, str]:
        """Resolve ``key`` through SMC + megaflow + the classifier.

        Returns ``(traversal, lookup cost, tier)`` where tier is "smc",
        "megaflow" or "dpcls" and traversal is None on a table-0 miss.
        ``fill`` is only used to bulk-count pipeline drops (one per
        packet served).

        Tier order at table 0: a validated SMC hint wins first; with no
        hint the megaflow cache is probed (a hit returns the cached
        full-pipeline traversal — priority-safe by mask construction,
        no revalidation); a megaflow miss walks the classifier with a
        :class:`FlowWildcards` accumulator so the resolution seeds a
        new minimally-masked megaflow entry covering the whole
        aggregate, later pipeline tables included.  ``probed`` says the
        caller already probed the megaflow cache for ``key`` and missed.
        """
        costs = self.costs
        entries: List[FlowEntry] = []
        table_id = 0
        cost = 0.0
        tier = "dpcls"
        wc: Optional[FlowWildcards] = None
        while True:
            if table_id == 0 and self.smc_enabled:
                signature = self.smc.probe(key)
            else:
                signature = None
            if table_id == 0 and signature is not None:
                entry, confirmed = self.classifier.lookup_hinted(
                    key, signature)
                validated = entry is not None and confirmed
                self.smc.account(validated)
                if validated:
                    tier = "smc"
                    cost += costs.ovs_smc_hit
                else:
                    cost += costs.ovs_classifier_hit
                    if entry is not None:
                        self.smc.insert(key, signature_of(entry))
            elif table_id == 0:
                if self.smc_enabled:
                    self.smc.account(False)
                if self.megaflow_enabled:
                    cached = None if probed else self.megaflow.lookup(key)
                    if cached is not None:
                        return cached, cost + costs.ovs_megaflow_hit, \
                            "megaflow"
                    wc = FlowWildcards()
                entry = self.classifier.lookup(key, wc=wc)
                cost += costs.ovs_classifier_hit
                if self.smc_enabled and entry is not None:
                    self.smc.insert(key, signature_of(entry))
            else:
                entry = self.classifiers[table_id].lookup(key, wc=wc)
                cost += costs.ovs_classifier_hit
            if entry is None:
                if table_id == 0:
                    return None, cost, tier
                self.pipeline_drops += fill
                break
            entries.append(entry)
            goto = goto_table_of(entry.actions)
            if goto is None:
                break
            if (goto.table_id <= table_id
                    or goto.table_id not in self.classifiers):
                self.pipeline_drops += fill
                break
            table_id = goto.table_id
        traversal = tuple(entries)
        if wc is not None and entries:
            self.megaflow.insert(key, wc, traversal)
        return traversal, cost, tier

    def classify(self, mbuf: Mbuf, in_port: int,
                 stages=None) -> "tuple[Optional[tuple], float]":
        """Resolve one packet: ``(traversal, cpu cost)``, traversal None
        on a table-0 miss — a flow batch of one, see :meth:`_resolve_miss`."""
        key = cached_flow_key(mbuf, in_port)
        traversal = self.emc.lookup(key) if self.emc_enabled else None
        if traversal is None:
            return self._resolve_miss(key, [mbuf], 1, stages,
                                      mbuf.trace is not None)
        self.emc_hits += 1
        if stages is not None:
            stages.add("emc_lookup", self.costs.ovs_emc_hit, 1)
        self._trace_batch([mbuf], "emc", result="hit")
        return traversal, self.costs.ovs_emc_hit

    def _resolve_miss(self, key: FlowKey, batch: List[Mbuf], fill: int,
                      stages, traced: bool
                      ) -> "tuple[Optional[tuple], float]":
        """Resolve a flow batch the EMC did not know: SMC -> megaflow ->
        dpcls, one walk for every packet of the batch.

        Returns ``(traversal, cpu cost)``: the flow entries matched in
        pipeline order, or None on a table-0 miss (upcall).  A miss in a
        later table, a goto to a missing table or a non-increasing goto
        end the pipeline as an OF1.3 drop (the traversal so far, whose
        combined actions produce no output).  Counters and the
        ``stages`` split of the lookup cost are bulk-incremented by the
        batch fill.  ``traced`` says some mbuf of the batch carries a
        sampled path trace.

        With the SMC off the megaflow cache is the first tier a miss
        reaches, so it is probed here and a hit walks nothing.
        """
        costs = self.costs
        if self.megaflow_enabled and not self.smc_enabled:
            traversal = self.megaflow.lookup(key)
            if traversal is not None:
                cost, tier = costs.ovs_megaflow_hit, "megaflow"
            else:
                traversal, cost, tier = self._walk_pipeline(
                    key, fill, probed=True)
        else:
            traversal, cost, tier = self._walk_pipeline(key, fill)
        if traversal is None:
            self.upcalls_no_match += fill
            if traced:
                self._trace_batch(batch, "upcall", reason="no_match")
            if self.upcall_queue is not None:
                # Bounded path: charge the failed walk; the enqueue and
                # dispatch costs are itemized by _punt and dispatch.
                if stages is not None:
                    stages.add("miss_upcall", cost, packets=fill)
                return None, cost
            upcall_cost = costs.ovs_miss_upcall * fill
            if stages is not None:
                stages.add("miss_upcall", upcall_cost, packets=fill)
            # The upcall dominates: the failed lookup's cost is folded
            # into it rather than itemized.
            return None, upcall_cost
        self.classifier_hits += fill
        if tier == "smc":
            self.smc_hits += fill
        elif tier == "megaflow":
            self.megaflow_hits += fill
        if stages is not None:
            stages.add(_LOOKUP_STAGE[tier], cost, packets=fill)
        if traced:
            self._trace_batch(batch, "classifier",
                              tables=len(traversal), tier=tier)
        if self.emc_enabled:
            self.emc.insert(key, traversal)
        return traversal, cost

    def _trace_batch(self, batch: List[Mbuf], hop: str, **attrs) -> None:
        for mbuf in batch:
            if mbuf.trace is not None:
                mbuf.trace.add(self.clock(), hop, **attrs)

    # -- the stateful tier (repro.state) ------------------------------------------------

    def _xfsm_packet(self, stateful: List[XfsmAction], mbuf: Mbuf,
                     in_port: int, now: float, stages=None
                     ) -> "tuple[float, bool]":
        """Run one packet through its rule's XFSM delegations.

        Returns ``(cpu cost, allowed)``; a denied (or unresolvable)
        packet is freed here.  Evaluation is per packet: packets of one
        flow batch share a flow key but not their TCP flags, and a SYN
        must drive a different transition than the ACK behind it.
        """
        costs = self.costs
        cost = 0.0
        allowed = True
        key = cached_flow_key(mbuf, in_port)
        for action in stateful:
            cost += costs.ovs_xfsm_exec
            self.xfsm_evaluated += 1
            program = self.xfsm_programs.get(action.program)
            if program is None:
                # Fail closed: a delegation to an unregistered program
                # must not forward unexamined packets.
                self.xfsm_unknown_drops += 1
                if mbuf.trace is not None:
                    mbuf.trace.add(now, "xfsm", program=action.program,
                                   result="unknown_program")
                allowed = False
                break
            verdict = program.evaluate(
                event_for(key, mbuf, now, from_inside=action.from_inside),
                mbuf=mbuf,
            )
            if mbuf.trace is not None:
                mbuf.trace.add(now, "xfsm", program=action.program,
                               result="allow" if verdict.allow else "drop",
                               state=verdict.state)
            if not verdict.allow:
                self.xfsm_drops += 1
                allowed = False
                break
        if stages is not None:
            stages.add("xfsm_exec", cost, packets=1)
        if not allowed:
            mbuf.free()
        return cost, allowed

    # -- action execution -----------------------------------------------------------

    @staticmethod
    def _apply_set_field(mbuf: Mbuf, field: str, value: int) -> None:
        """Rewrite a header field on the packet carried by ``mbuf``.

        Assumes per-mbuf packet objects (functional paths); benchmark
        workloads that share a template never install set-field rules.
        """
        packet = mbuf.packet
        if field in ("eth_src", "eth_dst"):
            eth = packet.get(Ethernet)
            if eth is not None:
                setattr(eth, field[4:], MacAddress(value))
        elif field in ("ip_src", "ip_dst", "ip_tos"):
            ipv4 = packet.get(IPv4)
            if ipv4 is not None:
                setattr(ipv4, field[3:] if field != "ip_tos" else "tos",
                        value)
        elif field in ("l4_src", "l4_dst"):
            l4 = packet.get(Tcp) or packet.get(Udp)
            if l4 is not None:
                setattr(l4, "src_port" if field == "l4_src" else "dst_port",
                        value)
        elif field == "vlan_vid":
            vlan = packet.get(Vlan)
            if vlan is not None:
                vlan.vid = value
        mbuf.userdata = None  # cached flow key is stale now

    def execute_actions(
        self,
        entry_actions,
        mbuf: Mbuf,
        in_port: int,
        output_batches: Dict[int, List[Mbuf]],
    ) -> None:
        """Run an action list; packets to forward land in output_batches.

        The mbuf reference is consumed: it is either batched for output,
        handed to the upcall handler, or freed (drop / unknown port).
        """
        ports = self.ports
        # One reference per consumer, all taken before the first
        # hand-off: an inline upcall handler may free its reference
        # while later outputs still need theirs.
        consumers = sum(
            1 for action in entry_actions
            if isinstance(action, OutputAction)
            and (action.port == PORT_CONTROLLER or action.port in ports))
        if consumers > 1:
            mbuf.refcnt += consumers - 1
        for action in entry_actions:
            if isinstance(action, SetFieldAction):
                self._apply_set_field(mbuf, action.field, action.value)
            elif isinstance(action, OutputAction):
                if action.port == PORT_CONTROLLER:
                    self.upcalls_action += 1
                    self._punt(mbuf, in_port, "action")
                elif action.port in ports:
                    output_batches.setdefault(action.port, []).append(mbuf)
                else:
                    # Output to an unknown port: ignored, but accounted
                    # so conservation checks can balance the books.
                    self.unknown_port_drops += 1
        if not consumers:
            self.action_drops += 1
            mbuf.free()  # empty action list = OpenFlow drop

    # -- the poll iteration body --------------------------------------------------------

    def _admit(self, port: OvsPort, mbufs: List[Mbuf],
               stages=None) -> "tuple[List[Mbuf], float]":
        """Ingress policing and overload early drop, for a datapath that
        has either configured: returns what is left of the burst and the
        cpu cost of the shedding."""
        policer = self.policers.get(port.ofport)
        if policer is not None:
            mbufs = policer.filter_burst(mbufs)
        shed_level = self.rx_shed.get(port.ofport)
        if not shed_level or not mbufs:
            return mbufs, 0.0
        # Overload early drop: shed the tail of the burst before it
        # costs a single classifier cycle.  Fractional levels carry
        # debt across bursts so the realized drop rate converges on
        # the configured level deterministically.
        debt = self._shed_debt.get(port.ofport, 0.0)
        debt += len(mbufs) * shed_level
        drop_count = min(int(debt), len(mbufs))
        self._shed_debt[port.ofport] = debt - drop_count
        if not drop_count:
            return mbufs, 0.0
        keep = len(mbufs) - drop_count
        now = self.clock()
        for mbuf in mbufs[keep:]:
            if mbuf.trace is not None:
                mbuf.trace.add(now, "rx-shed", port=port.name)
            mbuf.free()
        self.rx_early_drops[port.ofport] = (
            self.rx_early_drops.get(port.ofport, 0) + drop_count)
        if self.coverage is not None:
            self.coverage("rx_early_drop", drop_count)
        shed_cost = self.costs.upcall_shed * drop_count
        if stages is not None:
            stages.add("rx_shed", shed_cost, packets=drop_count)
        return mbufs[:keep], shed_cost

    def process_port(self, port: OvsPort, mbufs: List[Mbuf],
                     output_batches: Dict[int, List[Mbuf]],
                     stages=None) -> "tuple[float, int]":
        """Run the non-empty burst ``mbufs`` just received from ``port``
        through the pipeline; returns (cpu cost, packets processed)."""
        costs = self.costs
        shed_cost = 0.0
        if self.policers or self.rx_shed:
            mbufs, shed_cost = self._admit(port, mbufs, stages)
            if not mbufs:
                if stages is not None:
                    stages.add("housekeeping", costs.burst_overhead)
                return costs.burst_overhead + shed_cost, 0
        count = len(mbufs)
        rx_cost = (costs.nic_pmd_rx if port.kind is _PHY
                   else costs.ring_op) * count
        total_cost = shed_cost + costs.burst_overhead + rx_cost
        now = self.clock()
        if stages is not None:
            stages.add("housekeeping", costs.burst_overhead)
            stages.add("rx_normal", rx_cost, count)
        traced = False
        for mbuf in mbufs:
            if mbuf.trace is not None:
                traced = True
                mbuf.trace.add(now, "switch-rx", port=port.name)
        # Ingress mirroring: clone before the actions can consume the
        # packet.
        for mirror in self.mirrors:
            if port.ofport in mirror.select_src:
                for mbuf in mbufs:
                    output_batches.setdefault(mirror.output, []).append(
                        mbuf.retain()
                    )
                self.packets_mirrored += count
                total_cost += costs.ring_op * count
                if stages is not None:
                    stages.add("actions", costs.ring_op * count)
        total_cost += self._process_batched(
            mbufs, port.ofport, now, output_batches, stages, traced)
        self.packets_processed += count
        return total_cost, count

    def _process_batched(self, mbufs: List[Mbuf], in_port: int, now: float,
                         output_batches: Dict[int, List[Mbuf]],
                         stages=None, traced: bool = True) -> float:
        """dp_netdev-style flow batches: group the burst by flow key,
        resolve each distinct key once, apply actions batch-at-a-time.

        Packets of the same flow keep their relative order (each batch
        preserves burst order); packets of different flows may be
        reordered against each other, exactly like real OVS output
        batching.  ``traced`` says some mbuf of the burst carries a
        sampled path trace; without one no batch is walked to find out.
        """
        keys = self.rekeys.keys_at(mbufs, in_port)
        if len(mbufs) == 1:
            groups = ((keys[0], mbufs),)   # a burst of one is its batch
        else:
            batches: Dict[FlowKey, List[Mbuf]] = {}
            for mbuf, key in zip(mbufs, keys):
                batch = batches.get(key)
                if batch is None:
                    batches[key] = [mbuf]
                else:
                    batch.append(mbuf)
            groups = batches.items()
        costs = self.costs
        ports = self.ports
        emc = self.emc if self.emc_enabled else None
        fill_counts = self.batch_fill_counts
        total_cost = 0.0
        for key, batch in groups:
            fill = len(batch)
            self.flow_batches += 1
            self.packets_batched += fill
            try:
                fill_counts[fill] += 1
            except KeyError:
                fill_counts[fill] = 1
            traversal = emc.lookup(key) if emc is not None else None
            if traversal is not None:
                lookup_cost = costs.ovs_emc_hit
                self.emc_hits += fill
                if stages is not None:
                    stages.add("emc_lookup", lookup_cost, fill)
                if traced:
                    self._trace_batch(batch, "emc", result="hit")
            else:
                traversal, lookup_cost = self._resolve_miss(
                    key, batch, fill, stages, traced)
            total_cost += lookup_cost
            if traversal is None:
                for mbuf in batch:
                    total_cost += self._punt(mbuf, in_port, "no_match",
                                             stages=stages)
                continue
            plan = self.plans.plan_for(traversal)
            byte_total = 0
            for mbuf in batch:
                byte_total += mbuf.wire_length
            for entry in traversal:
                entry.account(fill, byte_total, now)
            if plan.stateful:
                # The lookup is shared by the batch; the stateful
                # verdicts are not (flags differ packet to packet).
                survivors = []
                for mbuf in batch:
                    xfsm_cost, allowed = self._xfsm_packet(
                        plan.stateful, mbuf, in_port, now, stages=stages)
                    total_cost += xfsm_cost
                    if allowed:
                        survivors.append(mbuf)
                batch = survivors
                if not batch:
                    continue
                fill = len(batch)
            action_cost = (costs.ovs_batch_action
                           + costs.ovs_action_per_packet * fill)
            total_cost += action_cost
            if stages is not None:
                stages.add("actions", action_cost, fill)
            output = plan.output
            if output not in ports:
                for mbuf in batch:
                    self.execute_actions(plan.actions, mbuf, in_port,
                                         output_batches)
            elif output in output_batches:
                output_batches[output].extend(batch)
            else:
                # The whole batch leaves by one port: hand the list on.
                output_batches[output] = batch
        return total_cost

    def flush_outputs(self, output_batches: Dict[int, List[Mbuf]],
                      stages=None) -> float:
        """Send batched outputs; returns the cpu cost of the TX work."""
        costs = self.costs
        total_cost = 0.0
        # Egress mirroring: one level only (clones are never re-mirrored).
        if self.mirrors:
            extra: Dict[int, List[Mbuf]] = {}
            for mirror in self.mirrors:
                for ofport in mirror.select_dst:
                    mbufs = output_batches.get(ofport)
                    if not mbufs:
                        continue
                    extra.setdefault(mirror.output, []).extend(
                        mbuf.retain() for mbuf in mbufs
                    )
                    self.packets_mirrored += len(mbufs)
                    total_cost += costs.ring_op * len(mbufs)
                    if stages is not None:
                        stages.add("actions", costs.ring_op * len(mbufs))
            for ofport, mbufs in extra.items():
                output_batches.setdefault(ofport, []).extend(mbufs)
        ports = self.ports
        for ofport, mbufs in output_batches.items():
            if ofport not in ports:   # a mirror's output port is gone
                for mbuf in mbufs:
                    mbuf.free()
                continue
            port = ports[ofport]
            if not port.up:
                for mbuf in mbufs:
                    port.tx_dropped += 1
                    mbuf.free()
                continue
            count = len(mbufs)
            tx_cost = (costs.nic_pmd_tx if port.kind is _PHY
                       else costs.ring_op) * count
            total_cost += tx_cost
            if stages is not None:
                stages.add("tx", tx_cost, count)
            for mbuf in mbufs:
                if mbuf.trace is not None:
                    mbuf.trace.add(self.clock(), "switch-tx",
                                   port=port.name)
            port.send_burst(mbufs)
        output_batches.clear()
        return total_cost

    def process_ports(self, ports: List[OvsPort],
                      stages=None, port_stages=None,
                      on_port_cost=None) -> float:
        """One full PMD iteration over ``ports``; returns total cpu cost.

        ``port_stages`` (optional, ofport -> stage table) selects the
        table a given port's work is attributed to — the vswitchd passes
        tees over the core table and the port's own table so the
        scheduler can reattribute when ports move.
        ``on_port_cost(ofport, cost, packets)`` (optional) is called
        after each non-idle port poll; the rxq load tracker samples
        per-(port, core) cycles there.  The final output flush is
        charged to ``stages`` only: tx work is batched across ports and
        not attributable to one of them.

        An iteration that receives nothing does nothing else: most
        iterations of a polling core are that one.
        """
        output_batches: Dict[int, List[Mbuf]] = {}
        total_cost = 0.0
        burst_size = self.burst_size
        for port in ports:
            if not port.up:
                continue  # administratively down: leave the ring alone
            mbufs = port.receive_burst(burst_size)
            if not mbufs:
                continue
            cost, count = self.process_port(
                port, mbufs, output_batches,
                stages if port_stages is None
                else port_stages.get(port.ofport))
            if on_port_cost is not None and (cost or count):
                on_port_cost(port.ofport, cost, count)
            total_cost += cost
        if output_batches:
            total_cost += self.flush_outputs(output_batches, stages=stages)
        queue = self.upcall_queue
        if queue is not None and queue.depth:
            total_cost += self._dispatch_upcalls(stages=stages)
        return total_cost

    # -- direct injection (packet-out, test harnesses) ---------------------------------

    def inject(self, mbuf: Mbuf, actions) -> None:
        """Execute ``actions`` on a packet outside the polling fast path
        (the bridge uses this for controller packet-out messages)."""
        output_batches: Dict[int, List[Mbuf]] = {}
        self.execute_actions(actions, mbuf, in_port=PORT_CONTROLLER,
                             output_batches=output_batches)
        self.flush_outputs(output_batches)
