"""Assignment policies: the ``pmd-rxq-assign`` analog.

Two policies, mirroring OVS ``dpif-netdev``:

* ``roundrobin`` — the static hash this repo always had
  (``ofport % n_cores``), kept as the baseline the benchmarks beat;
* ``cycles`` — sorted-greedy over *measured* load: heaviest port to the
  least-loaded core (OVS ``pmd-rxq-assign=cycles``), honouring
  per-port pinning and core isolation (the ``pmd-rxq-affinity``
  analog): a pinned port always lands on its core, and an isolated
  core receives only ports pinned to it.

Every policy returns an exact partition: each port appears on exactly
one core (the property test pins this).  Ties are broken by ofport so
reassignment is deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Protocol


class Rxq(Protocol):
    """What the scheduler reads of a port it places: the switch hands
    it ``vswitch.ports.OvsPort``s, which import nothing from here."""

    ofport: int


class AssignmentPolicy:
    """One placement strategy; stateless, reads loads via the scheduler."""

    name = "abstract"

    def place(self, port: Rxq, scheduler) -> int:
        """Core for a newly added port (no rebalance of the others)."""
        raise NotImplementedError

    def assign(self, ports: List[Rxq], scheduler) -> Dict[int, int]:
        """Full reassignment: ``{ofport: core}`` over every port."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<%s>" % type(self).__name__


class RoundRobinPolicy(AssignmentPolicy):
    """Static ``ofport % n_cores`` hash — placement never reacts to
    load, which is exactly the failure mode the scheduler fixes."""

    name = "roundrobin"

    def place(self, port: Rxq, scheduler) -> int:
        return port.ofport % scheduler.n_cores

    def assign(self, ports: List[Rxq], scheduler) -> Dict[int, int]:
        return {port.ofport: port.ofport % scheduler.n_cores
                for port in ports}


class CyclesPolicy(AssignmentPolicy):
    """Sorted-greedy over measured cycles: heaviest port first, each to
    the currently least-loaded core.  Ports without measured history
    count as zero-load and fall to the emptiest core (ties by port
    count, then core index).  Affinity is honoured: pinned ports stick
    to their core and isolated cores serve only ports pinned to them.
    If isolation leaves no usable core for unpinned ports, isolation is
    ignored for them (matching OVS's fallback rather than stranding
    traffic)."""

    name = "cycles"

    def place(self, port: Rxq, scheduler) -> int:
        pinned = scheduler.pinned_core(port.ofport)
        if pinned is not None:
            return pinned
        return _least_loaded_core(scheduler, _usable_cores(scheduler))

    def assign(self, ports: List[Rxq], scheduler) -> Dict[int, int]:
        pinned = {
            port.ofport: scheduler.pinned_core(port.ofport)
            for port in ports
            if scheduler.pinned_core(port.ofport) is not None
        }
        return _greedy_assign(ports, scheduler,
                              usable=_usable_cores(scheduler),
                              pinned=pinned)


def _usable_cores(scheduler) -> List[int]:
    usable = [core for core in range(scheduler.n_cores)
              if core not in scheduler.isolated_cores]
    return usable or list(range(scheduler.n_cores))


def _least_loaded_core(scheduler, cores) -> int:
    tracker = scheduler.tracker
    return min(cores, key=lambda core: (tracker.core_load(core),
                                        len(scheduler.core_ports[core]),
                                        core))


def _greedy_assign(ports: List[Rxq], scheduler, usable: List[int],
                   pinned: Dict[int, int]) -> Dict[int, int]:
    """Heaviest-first greedy onto the least-charged usable core.

    ``charged`` starts from zero and accumulates the loads this very
    assignment places, so the result depends only on the measured port
    loads — not on the incumbent layout (OVS recomputes from scratch
    the same way).  Pinned ports are charged to their cores first.
    """
    tracker = scheduler.tracker
    charged = {core: 0.0 for core in range(scheduler.n_cores)}
    assignment: Dict[int, int] = {}
    for ofport, core in pinned.items():
        assignment[ofport] = core
        charged[core] += tracker.port_load(ofport)
    free = [port for port in ports if port.ofport not in pinned]
    free.sort(key=lambda port: (-tracker.port_load(port.ofport),
                                port.ofport))
    for port in free:
        core = min(usable, key=lambda c: (charged[c], c))
        assignment[port.ofport] = core
        charged[core] += tracker.port_load(port.ofport)
    return assignment


POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    CyclesPolicy.name: CyclesPolicy,
}


def make_policy(name: str) -> AssignmentPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            "unknown rxq assignment policy %r (known: %s)"
            % (name, ", ".join(sorted(POLICIES)))
        ) from None
