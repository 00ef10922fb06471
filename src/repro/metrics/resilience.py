"""Control-plane resilience counters (retries, quarantines, damping).

The self-healing :class:`~repro.core.bypass.BypassManager` reports every
recovery action through one :class:`ResilienceCounters` block; the
``appctl bypass/faults`` view (through the metrics registry) and the
fault-injection benchmarks read it.  Counters only ever increase, so
deterministic tests can assert exact values under a seeded
:class:`~repro.faults.FaultPlan`.
"""

from dataclasses import dataclass


@dataclass
class ResilienceCounters:
    """Monotonic counters for the bypass control plane's self-healing."""

    establish_attempts: int = 0    # agent setup requests issued
    timeouts: int = 0              # attempts abandoned by the step timeout
    rpc_errors: int = 0            # attempts that returned an explicit error
    provision_failures: int = 0    # memzone/ring provisioning failures
    rollbacks: int = 0             # partial-state rollbacks executed
    retries: int = 0               # re-attempts scheduled with backoff
    quarantines: int = 0           # links that exhausted the retry budget
    quarantine_reattempts: int = 0  # establishments retried out of quarantine
    flaps_damped: int = 0          # detector churn events absorbed
    links_recovered: int = 0       # links that went ACTIVE after >= 1 retry
    links_abandoned: int = 0       # recovery stopped (revoked / endpoint died)
    teardown_failures: int = 0     # teardowns that needed the janitor path
    # Runtime health (the watchdog's ledger; see PROTOCOL.md
    # "Runtime failure model").
    stalled_consumers: int = 0     # occupancy > 0, dequeue cursor frozen
    wedged_guests: int = 0         # heartbeat frozen, normal channel backing up
    dead_peer_fallbacks: int = 0   # endpoint dead per agent, link still ACTIVE
    ring_integrity_failures: int = 0  # Ring.validate() caught corruption
    links_degraded: int = 0        # live fallbacks executed (any reason)
    packets_salvaged: int = 0      # ring leftovers re-homed during fallback
    degraded_readmissions: int = 0  # DEGRADED links re-admitted to bypass
    readmissions_deferred: int = 0  # re-admission held: peer still silent
    # Crash lifecycle (abrupt VM death; see PROTOCOL.md "Crash failure
    # model").
    peer_crashes: int = 0          # VM crashes that touched bypass state
    mbufs_reclaimed: int = 0       # mbufs swept off dead holders' ledgers
    crashed_peer_readmissions: int = 0  # re-admitted after a peer crash

    @property
    def total_faults_survived(self) -> int:
        """Attempt-level failures the control plane absorbed."""
        return (self.timeouts + self.rpc_errors + self.provision_failures
                + self.teardown_failures)

    def __repr__(self) -> str:
        return "<ResilienceCounters attempts=%d retries=%d quarantines=%d>" % (
            self.establish_attempts, self.retries, self.quarantines
        )
