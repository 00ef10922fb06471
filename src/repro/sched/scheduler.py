"""PmdScheduler: the owner of the core -> ports map.

:class:`~repro.vswitch.vswitchd.VSwitchd` used to compute
``ofport % n_pmd_cores`` inline at port-add time and never revisit it.
The scheduler replaces that hash: it owns the per-core port lists the
PMD poll loops iterate, places new ports by policy, and can re-plan the
whole layout from measured loads — first as a dry run (variance before
vs after), then applied move by move with safe handover.

Handover discipline: a move is applied *between* PMD iterations (the
discrete-event engine runs each iteration atomically, and the auto-LB
runs on its own housekeeping loop), so a port's in-flight burst always
finishes on the old core before the new core's next poll sees the port.
The shared dpdkr ring is the only queue involved and it is FIFO, so a
rebalance loses nothing and reorders nothing — the same ordered-
handover discipline the bypass subsystem enforces, with the test suite
asserting the zero-loss/zero-reorder property end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.sched.load import RxqLoadTracker
from repro.sched.policy import AssignmentPolicy, Rxq, make_policy


@dataclass(frozen=True)
class PortMove:
    """One port changing cores in a rebalance plan."""

    ofport: int
    port_name: str
    src_core: int
    dst_core: int


@dataclass
class RebalancePlan:
    """A dry-run reassignment and its estimated effect."""

    assignment: Dict[int, int]          # ofport -> core (complete)
    moves: List[PortMove] = field(default_factory=list)
    variance_before: float = 0.0
    variance_after: float = 0.0

    @property
    def improvement(self) -> float:
        """Fractional variance reduction (0..1); 0 when already flat."""
        if self.variance_before <= 0.0:
            return 0.0
        return ((self.variance_before - self.variance_after)
                / self.variance_before)

    def __repr__(self) -> str:
        return "<RebalancePlan moves=%d var %.3g -> %.3g>" % (
            len(self.moves), self.variance_before, self.variance_after
        )


def load_variance(loads: List[float]) -> float:
    """Population variance of per-core loads (the auto-LB's balance
    metric, matching OVS's cycles-variance check)."""
    if not loads:
        return 0.0
    mean = sum(loads) / len(loads)
    return sum((load - mean) ** 2 for load in loads) / len(loads)


class PmdScheduler:
    """Places ports on PMD cores and re-plans from measured load.

    ``core_ports`` is the authoritative map: a list of lists whose
    *objects* never change identity — the PMD poll loops close over
    them, so every mutation (add / remove / move) is immediately
    visible to the running cores without restarting anything.
    """

    def __init__(
        self,
        n_cores: int,
        policy: str = "roundrobin",
    ) -> None:
        if n_cores < 1:
            raise ValueError("need at least one PMD core")
        self.n_cores = n_cores
        self.core_ports: List[List[Rxq]] = [[] for _ in range(n_cores)]
        self.tracker = RxqLoadTracker()
        self.policy: AssignmentPolicy = make_policy(policy)
        self._pins: Dict[int, int] = {}       # ofport -> core
        self.isolated_cores: Set[int] = set()
        # Fired as (port, src_core, dst_core) for every applied move,
        # before the port joins the new core's list -- the vswitchd
        # hooks stage-accounting reattribution here.
        self.on_move: List[Callable[[Rxq, int, int], None]] = []
        # Fired with the applied RebalancePlan (manual or auto).
        self.on_apply: List[Callable[[RebalancePlan], None]] = []
        self.rebalances = 0
        self.port_moves = 0
        self.last_plan: Optional[RebalancePlan] = None

    # -- affinity configuration (pmd-rxq-affinity) ---------------------------------

    def pin(self, ofport: int, core: int) -> None:
        """Pin a port to a core (honoured by the ``cycles`` policy)."""
        if not 0 <= core < self.n_cores:
            raise ValueError("core %d out of range" % core)
        self._pins[ofport] = core

    def pinned_core(self, ofport: int) -> Optional[int]:
        return self._pins.get(ofport)

    def isolate(self, core: int, isolated: bool = True) -> None:
        """Reserve a core for its pinned ports only (``cycles`` policy)."""
        if not 0 <= core < self.n_cores:
            raise ValueError("core %d out of range" % core)
        if isolated:
            self.isolated_cores.add(core)
        else:
            self.isolated_cores.discard(core)

    def set_policy(self, name: str) -> None:
        self.policy = make_policy(name)

    # -- membership ---------------------------------------------------------------

    def add_port(self, port: Rxq) -> int:
        """Place a new port; returns the core index chosen."""
        core = self.policy.place(port, self)
        self.core_ports[core].append(port)
        return core

    def remove_port(self, port: Rxq) -> Optional[int]:
        """Forget a port everywhere; returns the core it was on."""
        removed_core = None
        for core, ports in enumerate(self.core_ports):
            if port in ports:
                ports.remove(port)
                removed_core = core
        self.tracker.forget(port.ofport)
        self._pins.pop(port.ofport, None)
        return removed_core

    def core_of(self, ofport: int) -> Optional[int]:
        for core, ports in enumerate(self.core_ports):
            for port in ports:
                if port.ofport == ofport:
                    return core
        return None

    def ports(self) -> List[Rxq]:
        return [port for ports in self.core_ports for port in ports]

    # -- planning -----------------------------------------------------------------

    def _estimated_core_loads(self, assignment: Dict[int, int]
                              ) -> List[float]:
        loads = [0.0] * self.n_cores
        for ofport, core in assignment.items():
            loads[core] += self.tracker.port_load(ofport)
        return loads

    def current_assignment(self) -> Dict[int, int]:
        return {
            port.ofport: core
            for core, ports in enumerate(self.core_ports)
            for port in ports
        }

    def plan_rebalance(self) -> RebalancePlan:
        """Dry run: what would the policy do with today's loads?

        Variance before/after is computed from the *same* measured
        port loads on both layouts, so the improvement number compares
        apples to apples.
        """
        ports = self.ports()
        current = self.current_assignment()
        proposed = self.policy.assign(ports, self)
        by_ofport = {port.ofport: port for port in ports}
        moves = [
            PortMove(ofport, by_ofport[ofport].name,
                     current[ofport], proposed[ofport])
            for ofport in sorted(current)
            if proposed.get(ofport, current[ofport]) != current[ofport]
        ]
        return RebalancePlan(
            assignment=proposed,
            moves=moves,
            variance_before=load_variance(
                self._estimated_core_loads(current)),
            variance_after=load_variance(
                self._estimated_core_loads(proposed)),
        )

    # -- application -------------------------------------------------------------

    def apply_plan(self, plan: RebalancePlan) -> int:
        """Move every port the plan relocates; returns the move count.

        Each move is atomic with respect to PMD iterations (see the
        module docstring): remove from the old core's list, notify the
        reattribution hooks, append to the new core's list, and drop
        the (port, old core) load history.
        """
        by_ofport = {port.ofport: port for port in self.ports()}
        applied = 0
        for move in plan.moves:
            port = by_ofport.get(move.ofport)
            if port is None or port not in self.core_ports[move.src_core]:
                continue  # port left or already moved since the dry run
            self.core_ports[move.src_core].remove(port)
            for hook in self.on_move:
                hook(port, move.src_core, move.dst_core)
            self.core_ports[move.dst_core].append(port)
            self.tracker.reset_pair(move.ofport, move.src_core)
            applied += 1
        self.port_moves += applied
        self.rebalances += 1
        self.last_plan = plan
        for hook in self.on_apply:
            hook(plan)
        return applied

    def rebalance(self) -> RebalancePlan:
        """Plan and apply unconditionally (the manual ``sched/rebalance``
        path; the auto-LB applies its own thresholds first)."""
        plan = self.plan_rebalance()
        self.apply_plan(plan)
        return plan

    def __repr__(self) -> str:
        return "<PmdScheduler policy=%s cores=%d ports=%d>" % (
            self.policy.name, self.n_cores, len(self.ports())
        )
