"""vswitchd: the daemon facade tying bridge, datapath and PMD cores.

This is the deployment surface: create a :class:`VSwitchd`, add dpdkr /
phy ports (ovs-vsctl style), connect a controller, and — when running
inside a simulation — ``start()`` the PMD poll loops and the control
loop.  The number of PMD cores is the paper's key structural constant:
the demo testbed ran OVS-DPDK with a single PMD core that every
VM-to-VM hop had to share.
"""

import dataclasses
import functools
import math
from typing import Dict, List, Optional

from repro.dpdk.dpdkr import DpdkrSharedRings
from repro.mem.memzone import MemzoneRegistry
from repro.obs.cycles import PmdCycleReport, StageAccounting, StageTee
from repro.openflow.controller import ControllerConnection
from repro.overload import (
    DEFAULT_UPCALL_POLICY,
    BoundedUpcallQueue,
    FailModeManager,
    FailModePolicy,
    OverloadMonitor,
    OverloadPolicy,
    UpcallPolicy,
)
from repro.sched.autolb import AutoLbPolicy, AutoLoadBalancer
from repro.sched.scheduler import PmdScheduler, RebalancePlan
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.nic import Nic
from repro.sim.pollloop import IdleContract, PollLoop
from repro.vswitch.bridge import Bridge
from repro.vswitch.mirror import Mirror
from repro.vswitch.policer import IngressPolicer
from repro.vswitch.ports import DpdkrOvsPort, OvsPort, PhyOvsPort


#: Simulated seconds between two passes of the control loop (controller
#: messages, flow expiry).
CONTROL_INTERVAL = 0.0005


class _CoreIdle(IdleContract):
    """When a PMD core may stop polling: every port it serves has an
    empty RX ring (or is down) and no upcall waits for dispatch.  An
    idle PMD iteration publishes nothing, so there is nothing to replay;
    the rings, the upcall queue and ``VSwitchd._wake_cores`` (ports
    added, removed, moved between cores or brought up) end the park."""

    def __init__(self, switch: "VSwitchd", core_index: int) -> None:
        self.switch = switch
        self.core_index = core_index

    def idle_until(self, loop: PollLoop) -> Optional[float]:
        switch = self.switch
        queue = switch.datapath.upcall_queue
        if queue is not None and queue.depth:
            return None
        ports = switch._core_ports[self.core_index]
        for port in ports:
            if port.up and not port.rx_ring.is_empty:
                return None
        for port in ports:
            port.rx_ring.watch(loop)
        if queue is not None:
            queue.watch(loop)
        return math.inf


class VSwitchd:
    """One vSwitch instance on a host."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        registry: Optional[MemzoneRegistry] = None,
        connection: Optional[ControllerConnection] = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        n_pmd_cores: int = 1,
        name: str = "ovs",
        rxq_assign: str = "roundrobin",
        auto_lb_policy: Optional[AutoLbPolicy] = None,
        upcall_policy: Optional[UpcallPolicy] = DEFAULT_UPCALL_POLICY,
        fail_mode: str = "standalone",
        failmode_policy: Optional[FailModePolicy] = None,
        overload_policy: Optional[OverloadPolicy] = None,
    ) -> None:
        """The three optional tiers are on iff their policy is given:
        ``auto_lb_policy`` (``None``: no auto load balancer),
        ``overload_policy`` (``None``: no RX overload monitor) and
        ``upcall_policy`` (``None``: misses upcall inline, unbounded).
        ``UpcallPolicy`` and ``OverloadPolicy`` are mutable — ``appctl
        overload/set`` edits a live switch — so the switch works on its
        own copies."""
        if n_pmd_cores < 1:
            raise ValueError("need at least one PMD core")
        self.env = env
        self.registry = registry if registry is not None else MemzoneRegistry()
        self.costs = costs
        self.name = name
        self.n_pmd_cores = n_pmd_cores
        clock = (lambda: env.now) if env is not None else None
        self.bridge = Bridge(
            name="br0", connection=connection, costs=costs, clock=clock
        )
        self.datapath = self.bridge.datapath
        self.bridge.on_port_mod.append(self._wake_cores)
        # Overload control: bounded upcalls + fail-mode routing.  The
        # fail-mode manager interposes on the upcall handler (it passes
        # through to bridge._upcall while the controller is reachable).
        self.upcall_queue: Optional[BoundedUpcallQueue] = None
        if upcall_policy is not None:
            self.upcall_queue = BoundedUpcallQueue(
                dataclasses.replace(upcall_policy),
                clock=clock or (lambda: 0.0),
            )
            self.datapath.upcall_queue = self.upcall_queue
        self.failmode: Optional[FailModeManager] = None
        if connection is not None:
            self.failmode = FailModeManager(
                self.bridge,
                connection,
                mode=fail_mode,
                policy=failmode_policy,
                clock=clock or (lambda: 0.0),
            )
            self.datapath.upcall_handler = self.failmode.handle_upcall
        self._next_ofport = 1
        # The scheduler owns the core -> ports map; ``_core_ports``
        # aliases its lists (same objects — the PMD loops close over
        # them, so scheduler moves are live).
        self.scheduler = PmdScheduler(n_pmd_cores, policy=rxq_assign)
        self.scheduler.on_move.append(self._on_port_moved)
        self._core_ports: List[List[OvsPort]] = self.scheduler.core_ports
        # Per-core datapath stage accounting (pmd/stats-show): the
        # Datapath is shared, so attribution to a core happens by
        # passing the core's StageAccounting through process_ports.
        self._core_stages: List[StageAccounting] = [
            StageAccounting() for _ in range(n_pmd_cores)
        ]
        # Per-port stage tables (the reattribution unit when the
        # scheduler moves a port) and the per-port tees combining them
        # with the owning core's table.
        self._port_stages: Dict[int, StageAccounting] = {}
        self._port_tees: Dict[int, StageTee] = {}
        # Built once per core: a PMD iteration allocates no closures.
        self._port_cost_hooks = [
            self._port_cost_hook(core_index)
            for core_index in range(n_pmd_cores)
        ]
        self.auto_lb: Optional[AutoLoadBalancer] = (
            AutoLoadBalancer(self, auto_lb_policy)
            if auto_lb_policy is not None else None
        )
        # The overload monitor needs the scheduler (rebalance grace) and
        # cross-links with the auto-lb (shedding masks the busy signal).
        self.overload: Optional[OverloadMonitor] = (
            OverloadMonitor(self, dataclasses.replace(overload_policy))
            if overload_policy is not None else None
        )
        if self.auto_lb is not None and self.overload is not None:
            self.auto_lb.overload_monitor = self.overload
        self._pmd_loops: List[PollLoop] = []
        self._control_loop = None
        self._running = False
        self._starts = 0   # start() calls so far
        # Called with the Mirror after add/remove; the transparent
        # highway subscribes to revoke bypasses on mirrored ports.
        self.on_mirror_change: List = []

    # -- port management (ovs-vsctl add-port) ---------------------------------

    def _allocate_ofport(self, ofport: Optional[int]) -> int:
        if ofport is None:
            ofport = self._next_ofport
        self._next_ofport = max(self._next_ofport, ofport + 1)
        return ofport

    def add_dpdkr_port(
        self,
        port_name: str,
        ofport: Optional[int] = None,
        ring_size: int = 1024,
    ) -> DpdkrOvsPort:
        """Create a dpdkr port: reserves its memzone + shared rings."""
        rings = DpdkrSharedRings(self.registry, port_name,
                                 ring_size=ring_size)
        port = DpdkrOvsPort(self._allocate_ofport(ofport), rings)
        self._register(port)
        return port

    def add_phy_port(self, port_name: str, nic: Nic,
                     ofport: Optional[int] = None) -> PhyOvsPort:
        port = PhyOvsPort(self._allocate_ofport(ofport), port_name, nic)
        self._register(port)
        return port

    def _register(self, port: OvsPort) -> None:
        self.datapath.add_port(port)
        core_index = self.scheduler.add_port(port)
        port_stages = StageAccounting()
        self._port_stages[port.ofport] = port_stages
        self._port_tees[port.ofport] = StageTee(
            self._core_stages[core_index], port_stages
        )
        self._wake_cores()

    def _wake_cores(self, *_changed) -> None:
        """Which ports a core polls, or whether one is up, changed: a
        parked core's ring waiters no longer describe its next poll, so
        every core polls for real and parks afresh."""
        for loop in self._pmd_loops:
            loop.wake()

    def del_port(self, ofport: int) -> OvsPort:
        port = self.datapath.remove_port(ofport)
        core_index = self.scheduler.remove_port(port)
        self._wake_cores()
        # Reattribution: the core's aggregate stage table stops
        # claiming work done for a port it no longer owns — without
        # this, pmd/stats-show silently mixes departed ports into the
        # core's story forever.
        port_stages = self._port_stages.pop(ofport, None)
        self._port_tees.pop(ofport, None)
        if port_stages is not None and core_index is not None:
            self._core_stages[core_index].subtract(port_stages)
        return port

    def _on_port_moved(self, port: OvsPort, src_core: int,
                       dst_core: int) -> None:
        """Scheduler move hook: reattribute stage accounting.

        The port's accumulated stages leave the old core's table (that
        work is history the new core never did) and the port table
        restarts from zero on the new core — never silently mixing two
        cores' attributions.  The loops' busy/idle accounting is
        untouched: it is the authority and already correct per core.
        """
        port_stages = self._port_stages.get(port.ofport)
        if port_stages is not None:
            self._core_stages[src_core].subtract(port_stages)
            port_stages.reset()
        tee = self._port_tees.get(port.ofport)
        if tee is not None:
            tee.retarget(self._core_stages[dst_core])
        self._wake_cores()

    def port_by_name(self, port_name: str) -> OvsPort:
        for port in self.datapath.ports.values():
            if port.name == port_name:
                return port
        raise KeyError("no port named %r" % port_name)

    # -- mirrors (ovs-vsctl create mirror) ------------------------------------

    def add_mirror(self, name: str, output: str,
                   select_src: Optional[List[str]] = None,
                   select_dst: Optional[List[str]] = None):
        """Mirror traffic of the named ports to the ``output`` port."""
        if any(m.name == name for m in self.datapath.mirrors):
            raise ValueError("mirror %r already exists" % name)
        mirror = Mirror(
            name=name,
            output=self.port_by_name(output).ofport,
            select_src=frozenset(
                self.port_by_name(p).ofport for p in select_src or []
            ),
            select_dst=frozenset(
                self.port_by_name(p).ofport for p in select_dst or []
            ),
        )
        self.datapath.mirrors.append(mirror)
        for listener in self.on_mirror_change:
            listener(mirror)
        return mirror

    def remove_mirror(self, name: str) -> None:
        for mirror in list(self.datapath.mirrors):
            if mirror.name == name:
                self.datapath.mirrors.remove(mirror)
                for listener in self.on_mirror_change:
                    listener(mirror)
                return
        raise ValueError("no mirror named %r" % name)

    # -- ingress policing (ovs-vsctl ingress_policing_rate) --------------------

    def set_ingress_policing(self, port_name: str, rate_pps: float,
                             burst: Optional[float] = None):
        """Rate-limit packets received from ``port_name``.

        ``rate_pps <= 0`` removes the policer.  Notifies the same
        listeners as mirror changes (bypass eligibility is affected the
        same way).
        """
        port = self.port_by_name(port_name)
        clock = (lambda: self.env.now) if self.env is not None \
            else (lambda: 0.0)
        if rate_pps <= 0:
            removed = self.datapath.policers.pop(port.ofport, None)
            if removed is not None:
                for listener in self.on_mirror_change:
                    listener(removed)
            return None
        policer = IngressPolicer(
            port.ofport, rate_pps,
            burst=burst if burst is not None else max(32.0, rate_pps / 100),
            clock=clock,
        )
        self.datapath.policers[port.ofport] = policer
        for listener in self.on_mirror_change:
            listener(policer)
        return policer

    def policed_ports(self) -> set:
        return set(self.datapath.policers)

    def mirrored_ports(self) -> set:
        """Ofports whose traffic some mirror wants to observe."""
        selected = set()
        for mirror in self.datapath.mirrors:
            selected |= mirror.selected_ports
        return selected

    # -- synchronous stepping (unit tests, env-less use) -------------------------

    def step_dataplane(self) -> float:
        """Run one PMD iteration on every core; returns total cpu cost."""
        return sum(
            self._core_iteration(core_index)()
            for core_index in range(self.n_pmd_cores)
        )

    def _port_cost_hook(self, core_index: int):
        """``core_index``'s feed into the scheduler's load tracker."""
        record = self.scheduler.tracker.record

        def on_port_cost(ofport: int, cost: float, packets: int) -> None:
            record(ofport, core_index, cost, packets)

        return on_port_cost

    def _core_iteration(self, core_index: int):
        """The PMD iteration of ``core_index``, as a callable: one call
        into ``process_ports`` and nothing around it.

        Closes over the scheduler-owned port list (moves are live), tees
        per-port stage costs into the core table *and* the port's own
        table, and feeds measured per-port cost into the scheduler's
        load tracker.
        """
        return functools.partial(
            self.datapath.process_ports,
            self._core_ports[core_index],
            self._core_stages[core_index],
            self._port_tees,
            self._port_cost_hooks[core_index],
        )

    def step_control(self) -> int:
        """Process pending controller messages + flow expirations."""
        now = self.env.now if self.env is not None else 0.0
        if self.failmode is not None:
            self.failmode.tick(now)
        handled = self.bridge.pump()
        if self.failmode is not None and self.failmode.expiry_frozen:
            self.failmode.frozen_expiry_skips += 1
        else:
            self.bridge.expire_flows(now)
        return handled

    def set_fail_mode(self, mode: str) -> None:
        """Switch the controller-loss behavior (``standalone|secure``)."""
        if self.failmode is None:
            raise RuntimeError("no controller connection: fail mode moot")
        self.failmode.set_mode(mode)

    # -- simulation lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start PMD poll loops and the control loop (needs an env)."""
        if self.env is None:
            raise RuntimeError("VSwitchd.start() requires an Environment")
        if self._running:
            raise RuntimeError("vswitchd already running")
        self._running = True
        for core_index in range(self.n_pmd_cores):
            loop = PollLoop(
                self.env,
                "%s.pmd%d" % (self.name, core_index),
                self._core_iteration(core_index),
                costs=self.costs,
                idle=_CoreIdle(self, core_index),
            ).start()
            self._pmd_loops.append(loop)
        self._starts += 1
        self._control_loop = self.env.process(
            self._control_process(self._starts),
            name="%s.control" % self.name
        )
        if self.auto_lb is not None:
            self.auto_lb.start(self.env)
        if self.overload is not None:
            self.overload.start(self.env)

    def _control_process(self, started: int):
        """The control loop of the ``started``-th :meth:`start`: it ends
        with the :meth:`stop` that follows, even if the switch has been
        started again by the time it next looks."""
        while self._running and self._starts == started:
            handled = self.step_control()
            delay = CONTROL_INTERVAL
            if handled:
                delay += handled * self.costs.flowmod_processing
            yield self.env.timeout(delay)

    def stop(self) -> None:
        self._running = False
        if self.auto_lb is not None:
            self.auto_lb.stop()
        if self.overload is not None:
            self.overload.stop()
        for loop in self._pmd_loops:
            loop.stop()
        self._pmd_loops = []

    # -- rxq scheduling (pmd-rxq-assign / pmd-auto-lb) -------------------------

    def set_rxq_assign(self, policy: str) -> None:
        """Switch the assignment policy (``pmd-rxq-assign=...``)."""
        self.scheduler.set_policy(policy)

    def pin_port(self, port_name: str, core: int) -> None:
        """Pin a port to a core (``pmd-rxq-affinity`` analog); honored
        by the ``group`` policy."""
        self.scheduler.pin(self.port_by_name(port_name).ofport, core)

    def isolate_core(self, core: int, isolated: bool = True) -> None:
        """Exclude a core from non-pinned assignment (``group`` only)."""
        self.scheduler.isolate(core, isolated)

    def sample_core_busy(self) -> List[float]:
        """Per-core busy fractions since the previous sample.

        Empty when the PMD loops are not running (synchronous tests) so
        callers can fall back to tracker-attributed load.
        """
        fractions: List[float] = []
        for loop in self._pmd_loops:
            busy, idle = loop.sample_activity()
            total = busy + idle
            fractions.append(busy / total if total > 0.0 else 0.0)
        return fractions

    def rebalance(self) -> RebalancePlan:
        """Close the load interval and rebalance now (manual trigger)."""
        self.scheduler.tracker.roll()
        return self.scheduler.rebalance()

    # -- introspection ------------------------------------------------------------------

    @property
    def pmd_utilization(self) -> List[float]:
        return [loop.utilization for loop in self._pmd_loops]

    def reset_pmd_accounting(self) -> None:
        """Zero PMD busy/idle counters at a measurement-window start."""
        for loop in self._pmd_loops:
            loop.reset_accounting()
        for stages in self._core_stages:
            stages.reset()
        # Port tables must reset with the core tables: a stale port
        # table would over-subtract from the freshly-zeroed core table
        # at the next move or del_port.
        for stages in self._port_stages.values():
            stages.reset()

    def pmd_cycle_report(self) -> PmdCycleReport:
        """``pmd/stats-show``-style cycle report over the PMD cores."""
        report = PmdCycleReport()
        for loop, stages in zip(self._pmd_loops, self._core_stages):
            report.track(loop, stages)
        return report

    def core_assignment(self) -> Dict[int, List[str]]:
        return {
            core_index: [port.name for port in ports]
            for core_index, ports in enumerate(self._core_ports)
        }

    def __repr__(self) -> str:
        return "<VSwitchd %s ports=%d cores=%d>" % (
            self.name, len(self.datapath.ports), self.n_pmd_cores
        )
