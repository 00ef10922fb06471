"""Chain self-healing: detect dead NFs, re-create them, re-steer traffic.

The bypass manager's crash handling (emergency teardown, ledger
reclamation, ``peer_crashed`` quarantine) keeps the *switch* consistent
when a guest dies; nothing yet puts the *service* back together.  The
:class:`ChainRepairer` is that supervisor.  It runs on a housekeeping
:class:`~repro.sim.pollloop.PollLoop` and, for every VNF of a deployed
service graph:

* **detects** death — the VM vanished from the hypervisor.  Only
  *crashes* are repaired; a graceful destroy is an operator decision
  the repairer must not fight.
* **repairs** — re-creates the VM on the same dpdkr ports (the port
  zones survive the crash, so the replacement PMD drains whatever
  backlog accumulated while the NF was down), rebuilds the app from the
  graph's ``app_factory``, and replays the NF's steering flows
  (delete + re-install: precise EMC invalidation plus fresh p-2-p
  detection, which re-establishes the bypass).  Restarts are bounded
  with exponential backoff.
* **demotes** — an NF that exhausts its restart budget is removed from
  the chain: its steering rules are withdrawn and *bridging* rules are
  installed that steer each inbound link directly to the dead hop's
  outbound neighbour, so the (degraded) chain keeps forwarding.
  Packets already queued toward the dead hop are flushed and counted.

All decisions run synchronously inside one poll iteration; the repairer
never re-enters ``env.run`` (orchestrator calls use ``settle=False``).
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.orchestration.graph import Endpoint, GraphLink
from repro.orchestration.orchestrator import Deployment, Orchestrator
from repro.sim.pollloop import PollLoop


@dataclass(frozen=True)
class RepairPolicy:
    """Restart budget and pacing of the chain supervisor."""

    poll_interval: float = 0.002   # seconds between health passes
    max_restarts: int = 5          # per NF, before demotion
    base_backoff: float = 0.002    # delay before restart attempt n+1
    backoff_factor: float = 2.0
    max_backoff: float = 0.05

    def restart_delay(self, restarts: int) -> float:
        return min(
            self.base_backoff * self.backoff_factor ** max(restarts - 1, 0),
            self.max_backoff,
        )


DEFAULT_REPAIR_POLICY = RepairPolicy()

#: Simulated CPU per health pass.
CHECK_COST = 2e-6


@dataclass
class NfRecord:
    """The repairer's per-VNF memory."""

    name: str
    state: str = "running"     # running | down | demoted | removed
    restarts: int = 0          # repair attempts consumed
    crashes_seen: int = 0
    next_attempt: float = 0.0  # earliest restart time (simulated seconds)


class ChainRepairer:
    """Supervises one deployment; puts crashed NFs back into the chain."""

    def __init__(
        self,
        orchestrator: Orchestrator,
        deployment: Deployment,
        policy: RepairPolicy = DEFAULT_REPAIR_POLICY,
    ) -> None:
        self.orchestrator = orchestrator
        self.deployment = deployment
        self.node = orchestrator.node
        self.policy = policy
        self.records: Dict[str, NfRecord] = {
            name: NfRecord(name) for name in deployment.graph.vnfs
        }
        self.bridges: List[GraphLink] = []  # demotion detour rules
        # Monotonic counters (``appctl chain/health``, obs collectors).
        self.crashes_detected = 0
        self.repairs_started = 0
        self.repairs_succeeded = 0
        self.repairs_failed = 0
        self.demotions = 0
        self.flows_replayed = 0
        self.packets_flushed = 0
        # Called with (event, nf_name) on every lifecycle transition:
        # nf-down, nf-repair-started, nf-repaired, nf-repair-failed,
        # nf-demoted, nf-removed.
        self.on_event: List[Callable[[str, str], None]] = []
        self.loop: Optional[PollLoop] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, env) -> "ChainRepairer":
        """Run the health pass on a housekeeping loop."""
        if self.loop is not None:
            raise RuntimeError("chain repairer already started")
        self.loop = PollLoop(
            env, "chain.repairer", self._iteration,
            period=self.policy.poll_interval,
        ).start()
        return self

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None

    def _iteration(self) -> float:
        self.check_once()
        return CHECK_COST

    def _emit(self, event: str, nf_name: str) -> None:
        for callback in self.on_event:
            callback(event, nf_name)

    # -- the health pass ---------------------------------------------------

    def check_once(self) -> int:
        """One pass over every VNF; returns how many needed action."""
        now = self.node.env.now
        acted = 0
        for record in self.records.values():
            if record.state == "running":
                if record.name in self.node.hypervisor.vms:
                    continue
                acted += 1
                self._on_nf_down(record, now)
            elif record.state == "down":
                if now >= record.next_attempt:
                    acted += 1
                    if record.restarts >= self.policy.max_restarts:
                        self._demote(record)
                    else:
                        self._attempt_repair(record, now)
            elif record.state == "demoted":
                # Stragglers cached toward the dead hop before the EMC
                # invalidation landed keep trickling in; flush them.
                self.packets_flushed += self._flush_nf_rings(record.name)
        return acted

    def _on_nf_down(self, record: NfRecord, now: float) -> None:
        name = record.name
        app = self.deployment.apps.get(name)
        if app is not None:
            # The poll loop of the dead guest's app burns simulated CPU
            # against killed PMDs; stop it.
            app.stop()
        if not self.node.hypervisor.was_crashed(name):
            # Graceful destroy: the operator removed it on purpose.
            record.state = "removed"
            self._emit("nf-removed", name)
            return
        self.crashes_detected += 1
        record.crashes_seen += 1
        record.state = "down"
        record.next_attempt = now  # first attempt immediately
        self._emit("nf-down", name)

    # -- repair ------------------------------------------------------------

    def _nf_links(self, name: str) -> List[GraphLink]:
        return [
            link for link in self.deployment.graph.links
            if name in (link.src.vnf, link.dst.vnf)
        ]

    def _attempt_repair(self, record: NfRecord, now: float) -> None:
        name = record.name
        graph = self.deployment.graph
        spec = graph.vnfs[name]
        record.restarts += 1
        self.repairs_started += 1
        self._emit("nf-repair-started", name)
        port_names = [
            graph.port_key(Endpoint(name, port)) for port in spec.ports
        ]
        try:
            handle = self.node.create_vm(name, port_names)
        except Exception:  # noqa: BLE001 - boot failed: back off, retry
            self.repairs_failed += 1
            record.next_attempt = now + self.policy.restart_delay(
                record.restarts
            )
            self._emit("nf-repair-failed", name)
            return
        self.deployment.vm_handles[name] = handle
        if spec.app_factory is not None:
            pmds = {
                logical: handle.pmd(graph.port_key(Endpoint(name, logical)))
                for logical in spec.ports
            }
            app = spec.app_factory(pmds)
            self.deployment.apps[name] = app
            app.start(self.node.env)
        # Replay the NF's steering flows: the delete half invalidates
        # exactly the cached entries that pointed at the dead instance,
        # the install half re-triggers p-2-p detection so eligible
        # bypasses come back on their own.
        for link in self._nf_links(name):
            self.orchestrator.redeploy_link(
                graph, link, self.deployment, settle=False
            )
            self.flows_replayed += 1
        record.state = "running"
        self.repairs_succeeded += 1
        self._emit("nf-repaired", name)

    # -- demotion ----------------------------------------------------------

    def _demote(self, record: NfRecord) -> None:
        name = record.name
        graph = self.deployment.graph
        self.demotions += 1
        record.state = "demoted"
        in_links = [l for l in graph.links if l.dst.vnf == name]
        out_links = [l for l in graph.links if l.src.vnf == name]
        for link in in_links + out_links:
            self.orchestrator.undeploy_link(
                graph, link, self.deployment, settle=False
            )
        # Steer around the dead hop: each inbound link is bridged to the
        # outbound link leaving through a *different* port of the dead
        # NF (the one its app would have forwarded to).
        for in_link in in_links:
            for out_link in out_links:
                if out_link.src.port == in_link.dst.port:
                    continue
                bridge = GraphLink(
                    src=in_link.src,
                    dst=out_link.dst,
                    match_fields=dict(in_link.match_fields),
                    priority=in_link.priority,
                )
                self.orchestrator.deploy_link(graph, bridge, settle=False)
                self.bridges.append(bridge)
                break
        self.packets_flushed += self._flush_nf_rings(name)
        self._emit("nf-demoted", name)

    def _flush_nf_rings(self, name: str) -> int:
        """Free everything queued toward the dead NF's ports."""
        graph = self.deployment.graph
        spec = graph.vnfs[name]
        flushed = 0
        for port in spec.ports:
            zone_name = dpdkr_zone_name(
                graph.port_key(Endpoint(name, port))
            )
            if zone_name not in self.node.registry:
                continue
            zone = self.node.registry.lookup(zone_name)
            for mbuf in zone.get("rx").drain():
                flushed += 1
                mbuf.free()
        return flushed

    # -- introspection -----------------------------------------------------

    def rows(self) -> List[List]:
        """``[nf, state, restarts, crashes]`` rows for ``chain/health``."""
        return [
            [record.name, record.state, record.restarts,
             record.crashes_seen]
            for record in sorted(self.records.values(),
                                 key=lambda r: r.name)
        ]

    def __repr__(self) -> str:
        return "<ChainRepairer nfs=%d crashes=%d repaired=%d>" % (
            len(self.records), self.crashes_detected, self.repairs_succeeded
        )
