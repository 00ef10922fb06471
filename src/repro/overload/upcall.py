"""Bounded upcall admission: the datapath's miss-storm pressure valve.

Historically OVS performed upcalls synchronously and without limit; the
megaflow era moved them behind a bounded queue served by handler threads
(``upcall_max_queue``), because an unbounded upcall path lets a flow-miss
storm consume the entire PMD cycle budget and collapse goodput for the
flows that *do* hit the caches.  This module reproduces that design for
the simulated datapath:

* every miss is ``admit()``-ed into a :class:`BoundedUpcallQueue` instead
  of invoking the handler inline;
* admission is gated by (in order) an optional per-port token bucket, a
  per-port fairness quota, and a global depth cap with a reserve carved
  out for the control class;
* two priority classes: ``CONTROL`` (packet-ins from explicit
  ``output:CONTROLLER`` actions and revalidation traffic) and ``MISS``
  (bulk ``no_match`` upcalls).  Control upcalls may evict the newest
  queued miss when the queue is full, so the control plane stays
  responsive while bulk misses shed;
* every shed packet is freed *and accounted* — conservation is
  ``rx == delivered + accounted drops``, never silent loss.

Dispatch happens at the end of each ``process_ports()`` poll iteration
(the simulated analogue of handler threads running on separate cores),
bounded by ``dispatch_batch`` per iteration.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.overload.tokenbucket import TokenBucket
from repro.packet.mbuf import Mbuf
from repro.waiters import Waitable

#: Upcall reasons that ride in the high-priority control class.
CONTROL_REASONS = ("action", "revalidation")

#: Shed reasons, in the order admission applies them.
SHED_REASONS = (
    "rate_limited",      # per-port token bucket exhausted
    "port_quota",        # per-port fairness quota reached
    "queue_full",        # global depth cap (minus control reserve)
    "evicted",           # queued miss evicted to make room for control
    "control_overflow",  # control class overflow (queue full of control)
)


@dataclass
class UpcallPolicy:
    """Tunable knobs for the bounded upcall path.

    Deliberately mutable so ``appctl overload/set`` can adjust a live
    switch, mirroring ``ovs-vsctl set Open_vSwitch . other_config:...``.

    ``port_rate_pps == 0`` disables the per-port token bucket (the
    fairness quota and global cap still apply); this is the default
    because the synchronous test harness runs with a frozen clock, under
    which a bucket would never refill.
    """

    max_queue: int = 256
    control_reserve: int = 32
    port_quota: int = 64
    port_rate_pps: float = 0.0
    port_burst: float = 64.0
    dispatch_batch: int = 64

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not 0 <= self.control_reserve < self.max_queue:
            raise ValueError("control_reserve must be in [0, max_queue)")
        if self.port_quota < 1:
            raise ValueError("port_quota must be >= 1")
        if self.dispatch_batch < 1:
            raise ValueError("dispatch_batch must be >= 1")
        if self.port_rate_pps < 0:
            raise ValueError("port_rate_pps must be >= 0")


DEFAULT_UPCALL_POLICY = UpcallPolicy()


class BoundedUpcallQueue(Waitable):
    """Two-class bounded queue between the fast path and the slow path.

    Entries are ``(mbuf, in_port, reason)``.  The queue owns admitted
    mbufs until dispatch; shed mbufs are freed immediately with the shed
    reason recorded in counters, per-port accounting, the packet trace,
    and the coverage map.

    Parked PMD poll loops register on the queue (:class:`Waitable`):
    any core's iteration dispatches a non-empty queue, so every admitted
    upcall wakes them.
    """

    def __init__(self, policy: Optional[UpcallPolicy] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.policy = policy if policy is not None else UpcallPolicy()
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._control: Deque[Tuple[Mbuf, int, str]] = deque()
        self._miss: Deque[Tuple[Mbuf, int, str]] = deque()
        # Upcalls queued, both classes.  Kept as a count rather than
        # derived: every PMD iteration and every park reads it.
        self.depth = 0
        self._port_counts: Dict[int, int] = {}
        self._buckets: Dict[int, TokenBucket] = {}
        # Cumulative outcome counters.
        self.admitted_miss = 0
        self.admitted_control = 0
        self.dispatched = 0
        self.shed: Dict[str, int] = {}
        self.evicted_for_control = 0
        self.high_watermark = 0
        # Per-port cumulative accounting (the overload monitor diffs
        # these to find which ports are generating upcall pressure).
        self.port_admitted: Dict[int, int] = {}
        self.port_shed: Dict[int, int] = {}
        # Hooks: coverage(name) and on_event(name, attrs) listeners.
        self.coverage: Optional[Callable[..., None]] = None
        self.on_event: List[Callable[[str, dict], None]] = []

    # -- introspection -------------------------------------------------

    @property
    def control_depth(self) -> int:
        return len(self._control)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def admitted_total(self) -> int:
        return self.admitted_miss + self.admitted_control

    def queued_for(self, ofport: int) -> int:
        return self._port_counts.get(ofport, 0)

    # -- internals -----------------------------------------------------

    def _emit(self, name: str, **attrs) -> None:
        for listener in self.on_event:
            listener(name, attrs)

    def _account_shed(self, mbuf: Mbuf, in_port: int, why: str) -> bool:
        self.shed[why] = self.shed.get(why, 0) + 1
        self.port_shed[in_port] = self.port_shed.get(in_port, 0) + 1
        if self.coverage is not None:
            self.coverage("upcall_shed_" + why)
        if mbuf.trace is not None:
            mbuf.trace.add(self.clock(), "upcall-shed", reason=why)
        self._emit("upcall-shed", port=in_port, reason=why)
        mbuf.free()
        return False

    # -- admission -----------------------------------------------------

    def admit(self, mbuf: Mbuf, in_port: int, reason: str) -> bool:
        """Admit an upcall or shed it (freeing the mbuf). Returns True
        iff the upcall was queued."""
        policy = self.policy
        if reason in CONTROL_REASONS:
            if self.depth >= policy.max_queue:
                if self._miss:
                    # Newest miss makes room for control traffic.
                    victim, victim_port, _ = self._miss.pop()
                    self.depth -= 1
                    self._port_counts[victim_port] -= 1
                    if not self._port_counts[victim_port]:
                        del self._port_counts[victim_port]
                    self.evicted_for_control += 1
                    self._account_shed(victim, victim_port, "evicted")
                else:
                    return self._account_shed(mbuf, in_port,
                                              "control_overflow")
            self._control.append((mbuf, in_port, reason))
            self.depth += 1
            self.admitted_control += 1
            self.port_admitted[in_port] = (
                self.port_admitted.get(in_port, 0) + 1)
            if self.depth > self.high_watermark:
                self.high_watermark = self.depth
            if self.waiters:
                self.wake_waiters()
            return True

        # Bulk miss class: token bucket -> port quota -> global cap.
        if policy.port_rate_pps > 0:
            bucket = self._buckets.get(in_port)
            if bucket is None or bucket.rate != policy.port_rate_pps:
                bucket = TokenBucket(policy.port_rate_pps,
                                     policy.port_burst, self.clock)
                self._buckets[in_port] = bucket
            if not bucket.admit():
                return self._account_shed(mbuf, in_port, "rate_limited")
        if self._port_counts.get(in_port, 0) >= policy.port_quota:
            return self._account_shed(mbuf, in_port, "port_quota")
        miss_cap = policy.max_queue - policy.control_reserve
        if self.depth >= policy.max_queue or len(self._miss) >= miss_cap:
            return self._account_shed(mbuf, in_port, "queue_full")
        self._miss.append((mbuf, in_port, reason))
        self.depth += 1
        self._port_counts[in_port] = self._port_counts.get(in_port, 0) + 1
        self.admitted_miss += 1
        self.port_admitted[in_port] = self.port_admitted.get(in_port, 0) + 1
        if self.depth > self.high_watermark:
            self.high_watermark = self.depth
        if self.waiters:
            self.wake_waiters()
        return True

    # -- dispatch ------------------------------------------------------

    def dispatch(self, handler: Callable[[Mbuf, int, str], None],
                 budget: Optional[int] = None) -> int:
        """Drain up to ``budget`` upcalls, control class first, invoking
        ``handler(mbuf, in_port, reason)`` for each. Returns the number
        dispatched."""
        if budget is None:
            budget = self.policy.dispatch_batch
        count = 0
        while count < budget:
            if self._control:
                mbuf, in_port, reason = self._control.popleft()
            elif self._miss:
                mbuf, in_port, reason = self._miss.popleft()
                self._port_counts[in_port] -= 1
                if not self._port_counts[in_port]:
                    del self._port_counts[in_port]
            else:
                break
            self.depth -= 1
            self.dispatched += 1
            count += 1
            handler(mbuf, in_port, reason)
        return count

    def stats(self) -> Dict[str, float]:
        """Flat snapshot for appctl / debugging."""
        out: Dict[str, float] = {
            "depth": self.depth,
            "control_depth": self.control_depth,
            "high_watermark": self.high_watermark,
            "admitted_miss": self.admitted_miss,
            "admitted_control": self.admitted_control,
            "dispatched": self.dispatched,
            "evicted_for_control": self.evicted_for_control,
        }
        for why in SHED_REASONS:
            out["shed_" + why] = self.shed.get(why, 0)
        return out
