"""Deterministic, seedable control-plane fault injection.

Real NFV control planes lose RPCs, time out on hypervisor monitor
commands and drop virtio-serial messages; the bypass establishment
sequence must degrade to the switch path instead of wedging.  A
:class:`FaultPlan` is the single source of injected misbehaviour: named
*injection points* scattered through the control plane call
:meth:`FaultPlan.fire` on every occurrence, and the plan — driven by a
seeded PRNG or exact nth-occurrence triggers — decides whether that
occurrence is dropped, delayed, errored or escalated to a crash.

Because the simulation engine is deterministic and the plan's PRNG is
seeded, a given (seed, plan, workload) triple always injects the same
faults at the same points: every failure a test observes is replayable.

Injection points wired through the library:

========================  ====================================================
point                     where it fires
========================  ====================================================
``agent.rpc.send``        OVS -> compute-agent request transmission
``agent.rpc.reply``       compute-agent -> OVS completion reply
``qemu.plug``             QEMU monitor ``device_add`` (ivshmem hot-plug)
``qemu.unplug``           QEMU monitor ``device_del``
``serial.to_guest``       virtio-serial host -> guest message delivery
``serial.to_host``        virtio-serial guest -> host message delivery
``memzone.reserve``       bypass memzone allocation
``pmd.rx_poll``           guest PMD receive poll (consumer freeze/stall)
``ring.corrupt``          shared-ring slot/generation corruption on enqueue
``controller.conn``       OpenFlow channel send (either direction)
``controller.reconnect``  fail-mode manager reconnect attempt
``vm.crash``              hypervisor chaos tick: kill one running VM
``vm.crash_during_setup`` compute agent: the receiver VM dies mid-setup
========================  ====================================================

Mode semantics at a point:

* ``DROP`` — the operation/message silently vanishes; the waiting side
  only recovers through its own timeout.  (Synchronous, env-less
  components cannot "hang", so they surface DROP as an error instead.)
* ``DELAY`` — the operation completes after ``delay`` extra seconds.
* ``ERROR`` — the operation fails immediately with an explicit error.
* ``CRASH`` — where a VM is in scope (the QEMU points) the target VM is
  destroyed mid-operation; elsewhere CRASH degrades to DROP/ERROR.

The two runtime data-path points reinterpret the modes locally:
``pmd.rx_poll`` maps DROP/DELAY to skipping one poll / freezing the
consumer for ``delay`` seconds and ERROR/CRASH to a permanent wedge;
``ring.corrupt`` smashes the oldest occupied slot to ``None`` (CRASH
instead bumps the ring's generation tag).  Both are documented with
their consumers in :mod:`repro.core.pmd` and :mod:`repro.mem.ring`.

The two VM-lifecycle points ignore the mode entirely — any triggered
occurrence kills a VM via :meth:`Hypervisor.crash_vm` (abrupt process
death, not graceful teardown).  ``vm.crash`` is polled by the
hypervisor's chaos tick and picks victims round-robin (or the VM named
by the spec's ``message``); ``vm.crash_during_setup`` fires inside the
compute agent's establishment sequence, after the bypass zones are
plugged but before the receiver's PMD is configured — the worst-case
crash window for channel state.
"""

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.waiters import Waitable

AGENT_RPC_SEND = "agent.rpc.send"
AGENT_RPC_REPLY = "agent.rpc.reply"
QEMU_PLUG = "qemu.plug"
QEMU_UNPLUG = "qemu.unplug"
SERIAL_TO_GUEST = "serial.to_guest"
SERIAL_TO_HOST = "serial.to_host"
MEMZONE_RESERVE = "memzone.reserve"
PMD_RX_POLL = "pmd.rx_poll"
RING_CORRUPT = "ring.corrupt"
CONTROLLER_CONN = "controller.conn"
CONTROLLER_RECONNECT = "controller.reconnect"
VM_CRASH = "vm.crash"
VM_CRASH_DURING_SETUP = "vm.crash_during_setup"

KNOWN_POINTS = (
    AGENT_RPC_SEND,
    AGENT_RPC_REPLY,
    QEMU_PLUG,
    QEMU_UNPLUG,
    SERIAL_TO_GUEST,
    SERIAL_TO_HOST,
    MEMZONE_RESERVE,
    PMD_RX_POLL,
    RING_CORRUPT,
    CONTROLLER_CONN,
    CONTROLLER_RECONNECT,
    VM_CRASH,
    VM_CRASH_DURING_SETUP,
)


class FaultMode(enum.Enum):
    """What happens to an operation selected for injection."""

    DROP = "drop"
    DELAY = "delay"
    ERROR = "error"
    CRASH = "crash"


@dataclass
class FaultSpec:
    """One rule: when ``point`` fires, maybe inject ``mode``.

    Either probabilistic (``probability`` per occurrence, drawn from the
    plan's seeded PRNG) or exact (``occurrences`` — 1-based occurrence
    indices of the point that always trigger; probability is ignored).
    ``max_triggers`` bounds how often the spec fires in total.
    """

    point: str
    mode: FaultMode
    probability: float = 1.0
    occurrences: Tuple[int, ...] = ()
    max_triggers: Optional[int] = None
    delay: float = 0.05
    message: str = ""
    triggered: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.mode, str):
            self.mode = FaultMode(self.mode)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                "probability must be in [0, 1], got %r" % self.probability
            )
        self.occurrences = tuple(self.occurrences)
        if any(n < 1 for n in self.occurrences):
            raise ValueError("occurrence indices are 1-based")

    @property
    def exhausted(self) -> bool:
        if self.max_triggers is not None:
            return self.triggered >= self.max_triggers
        if self.occurrences:
            return self.triggered >= len(self.occurrences)
        return False


@dataclass(frozen=True)
class FaultAction:
    """One injected fault, as recorded in :attr:`FaultPlan.injected`."""

    point: str
    mode: FaultMode
    occurrence: int
    delay: float
    message: str


class FaultPlan(Waitable):
    """A seeded set of fault specs plus the occurrence bookkeeping.

    One plan instance is shared by every component of a node; occurrence
    counts are therefore global per point (the third ``qemu.plug`` on the
    host is occurrence 3 regardless of which VM it targets).

    Parked poll loops register on the plan (:class:`Waitable`): a
    consumer that skips idle polls must resume real ones before they
    start counting as occurrences, so adding a spec wakes them.
    """

    def __init__(self, seed: int = 0,
                 specs: Sequence[FaultSpec] = ()) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._specs: Dict[str, List[FaultSpec]] = {}
        self.occurrences: Dict[str, int] = {}
        self.injected: List[FaultAction] = []
        for spec in specs:
            self.add(spec)

    def add(self, spec: FaultSpec) -> FaultSpec:
        self.wake_waiters()
        self._specs.setdefault(spec.point, []).append(spec)
        return spec

    def inject(self, point: str, mode, **kwargs) -> FaultSpec:
        """Shorthand: build and register a :class:`FaultSpec`."""
        return self.add(FaultSpec(point=point, mode=mode, **kwargs))

    @property
    def specs(self) -> List[FaultSpec]:
        return [spec for specs in self._specs.values() for spec in specs]

    def has_specs(self, point: str) -> bool:
        """True if any spec is registered at ``point``.

        Data-path injection points sit on per-packet hot loops; callers
        gate :meth:`fire` on this so an armed-but-irrelevant plan costs
        one dict probe instead of polluting occurrence counts.
        """
        return bool(self._specs.get(point))

    # -- the hot call ------------------------------------------------------

    def fire(self, point: str) -> Optional[FaultAction]:
        """Record one occurrence of ``point``; return the fault to
        inject, or None for a clean pass-through.

        At most one spec triggers per occurrence (first registered
        wins), so composed plans stay easy to reason about.
        """
        occurrence = self.occurrences.get(point, 0) + 1
        self.occurrences[point] = occurrence
        for spec in self._specs.get(point, ()):
            if spec.exhausted:
                continue
            if spec.occurrences:
                hit = occurrence in spec.occurrences
            else:
                hit = self._rng.random() < spec.probability
            if not hit:
                continue
            spec.triggered += 1
            action = FaultAction(
                point=point,
                mode=spec.mode,
                occurrence=occurrence,
                delay=spec.delay,
                message=spec.message
                or "injected %s at %s (occurrence %d)"
                % (spec.mode.value, point, occurrence),
            )
            self.injected.append(action)
            return action
        return None

    # -- reporting ---------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return len(self.injected)

    def injected_at(self, point: str) -> List[FaultAction]:
        return [a for a in self.injected if a.point == point]

    def summary_rows(self) -> List[List]:
        """``[point, occurrences, injected]`` rows for report tables."""
        points = sorted(
            set(self.occurrences) | set(self._specs)
        )
        return [
            [point, self.occurrences.get(point, 0),
             len(self.injected_at(point))]
            for point in points
        ]

    def __repr__(self) -> str:
        return "<FaultPlan seed=%d specs=%d injected=%d>" % (
            self.seed, len(self.specs), len(self.injected)
        )
