"""Overload control and graceful degradation for the switch path.

The paper's transparency story needs the *switch* path to stay alive in
exactly the regimes where software dataplanes fall over: flow-miss
storms (unbounded synchronous upcalls) and controller outages (unbounded
packet-in queues).  This package turns "fast until it falls over" into
"fast, then predictably degraded":

* :mod:`repro.overload.upcall` — the bounded upcall path: a per-port
  token bucket plus a depth- and fairness-bounded global queue with
  priority classes, replacing the inline per-miss upcall;
* :mod:`repro.overload.failmode` — OVS-style ``fail_mode`` handling for
  controller loss: ``standalone`` falls back to a learning switch,
  ``secure`` freezes flow state, both reconnect with backoff and
  re-synchronize without wiping the EMC/SMC;
* :mod:`repro.overload.shedding` — the per-core overload monitor that
  drives qlen-based early drop at RX and cooperates with the PMD auto
  load balancer instead of fighting it.
"""

from repro.overload.failmode import (
    FALLBACK_COOKIE,
    FailMode,
    FailModeManager,
    FailModePolicy,
    StandaloneFallback,
)
from repro.overload.shedding import OverloadMonitor, OverloadPolicy
from repro.overload.upcall import (
    CONTROL_REASONS,
    DEFAULT_UPCALL_POLICY,
    BoundedUpcallQueue,
    UpcallPolicy,
)

__all__ = [
    "BoundedUpcallQueue",
    "CONTROL_REASONS",
    "DEFAULT_UPCALL_POLICY",
    "FALLBACK_COOKIE",
    "FailMode",
    "FailModeManager",
    "FailModePolicy",
    "OverloadMonitor",
    "OverloadPolicy",
    "StandaloneFallback",
    "UpcallPolicy",
]
