"""The scalar lane and the whole-cache wipe, kept as the oracles the
batched ``Datapath`` is checked against.

Until flow batches became the only lane, ``Datapath(vectorized=False)``
resolved and dispatched every packet on its own — EMC, else a classifier
walk of its own that never consulted the SMC or the megaflow cache, the
action list rebuilt per packet, ``SCALAR_DISPATCH`` charged for it — and
``emc_invalidation = "generation"`` answered every flowmod by forgetting
everything.  Both are here as they stood, written against the names
production keeps (``emc``, ``classifiers``, ``_punt``, ``_xfsm_packet``,
``execute_actions``, the hit / upcall / drop counters) and installed on
one ``Datapath`` instance at a time.  The scalar lane forms no flow
batch, so ``datapath.flow_batches == 0`` is how a differential proves
which side of it ran the oracle.
"""

from repro.openflow.actions import GotoTableAction, XfsmAction, goto_table_of
from repro.packet.flowkey import cached_flow_key

# What CostModel.ovs_scalar_dispatch was: rebuilding and dispatching the
# action list, per packet.
SCALAR_DISPATCH = 50e-9


def install_scalar_lane(datapath, dispatch: float = SCALAR_DISPATCH) -> None:
    """Make ``datapath`` run every burst it receives through the scalar
    lane, charging ``dispatch`` per packet for the action-list rebuild."""

    def process(mbufs, in_port, now, output_batches, stages=None,
                traced=True):
        return _process_scalar(datapath, dispatch, mbufs, in_port, now,
                               output_batches, stages)

    datapath._process_batched = process


def install_generation_wipe(datapath) -> None:
    """Make every flowmod, on tables attached before or after, wipe the
    EMC, the megaflow cache and the plans whole."""

    def wipe(kind, entry):
        datapath.plans.flush()
        datapath.emc.invalidate_all()
        datapath.megaflow.flush()

    for table in datapath.tables.values():
        table.remove_listener(datapath._on_table_change)
        table.add_listener(wipe)
    datapath._on_table_change = wipe


def _classify(self, mbuf, in_port, stages=None):
    key = cached_flow_key(mbuf, in_port)
    if self.emc_enabled:
        traversal = self.emc.lookup(key)
        if traversal is not None:
            self.emc_hits += 1
            if stages is not None:
                stages.add("emc_lookup", self.costs.ovs_emc_hit,
                           packets=1)
            if mbuf.trace is not None:
                mbuf.trace.add(self.clock(), "emc", result="hit")
            return traversal, self.costs.ovs_emc_hit
    entries = []
    table_id = 0
    cost = 0.0
    while True:
        entry = self.classifiers[table_id].lookup(key)
        cost += self.costs.ovs_classifier_hit
        if entry is None:
            if table_id == 0:
                self.upcalls_no_match += 1
                if mbuf.trace is not None:
                    mbuf.trace.add(self.clock(), "upcall",
                                   reason="no_match")
                if self.upcall_queue is not None:
                    # Bounded path: only the failed walk is charged
                    # here; enqueue/dispatch costs land in _punt.
                    if stages is not None:
                        stages.add("miss_upcall", cost, packets=1)
                    return None, cost
                if stages is not None:
                    stages.add("miss_upcall",
                               self.costs.ovs_miss_upcall, packets=1)
                return None, self.costs.ovs_miss_upcall
            self.pipeline_drops += 1
            break
        entries.append(entry)
        goto = goto_table_of(entry.actions)
        if goto is None:
            break
        if (goto.table_id <= table_id
                or goto.table_id not in self.classifiers):
            self.pipeline_drops += 1
            break
        table_id = goto.table_id
    self.classifier_hits += 1
    if stages is not None:
        stages.add("classifier_lookup", cost, packets=1)
    if mbuf.trace is not None:
        mbuf.trace.add(self.clock(), "classifier",
                       tables=table_id + 1)
    traversal = tuple(entries)
    if self.emc_enabled:
        self.emc.insert(key, traversal)
    return traversal, cost


def _process_scalar(self, dispatch, mbufs, in_port, now, output_batches,
                    stages=None):
    action_cost = self.costs.ovs_action_per_packet + dispatch
    total_cost = 0.0
    for mbuf in mbufs:
        traversal, lookup_cost = _classify(self, mbuf, in_port,
                                           stages=stages)
        total_cost += lookup_cost
        if traversal is None:
            total_cost += self._punt(mbuf, in_port, "no_match",
                                     stages=stages)
            continue
        combined = []
        for entry in traversal:
            entry.account(1, mbuf.wire_length, now)
            combined.extend(
                action for action in entry.actions
                if not isinstance(action, GotoTableAction)
            )
        stateful = [action for action in combined
                    if isinstance(action, XfsmAction)]
        if stateful:
            combined = [action for action in combined
                        if not isinstance(action, XfsmAction)]
            xfsm_cost, allowed = self._xfsm_packet(
                stateful, mbuf, cached_flow_key(mbuf, in_port), now,
                stages=stages)
            total_cost += xfsm_cost
            if not allowed:
                continue
        total_cost += action_cost
        if stages is not None:
            stages.add("actions", action_cost, packets=1)
        self.execute_actions(combined, mbuf, in_port, output_batches)
    return total_cost
