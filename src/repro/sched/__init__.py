"""PMD scheduling: measured rxq load, assignment policies, auto-LB.

The paper's testbed pinned every port to one PMD core; our reproduction
until now froze ports onto cores with a static ``ofport % n`` hash.
This package is the OVS ``dpif-netdev`` answer to that problem:

* :mod:`repro.sched.load` — per-(port, core) processing-cycle EWMAs
  sampled from the datapath's own cost attribution;
* :mod:`repro.sched.policy` — the assignment policies
  (``roundrobin`` / ``cycles``, the ``pmd-rxq-assign``
  analog, with ``pmd-rxq-affinity``-style pinning and isolation);
* :mod:`repro.sched.scheduler` — :class:`PmdScheduler`, the owner of
  the core → ports map, dry-run rebalance planning and safe handover;
* :mod:`repro.sched.autolb` — the PMD auto-load-balancer riding a
  housekeeping :class:`~repro.sim.pollloop.PollLoop`.
"""

from repro.sched.autolb import (
    AutoLbPolicy,
    AutoLoadBalancer,
    DEFAULT_AUTO_LB_POLICY,
)
from repro.sched.load import RxqLoadTracker
from repro.sched.policy import (
    AssignmentPolicy,
    CyclesPolicy,
    POLICIES,
    RoundRobinPolicy,
    make_policy,
)
from repro.sched.scheduler import PmdScheduler, PortMove, RebalancePlan

__all__ = [
    "AssignmentPolicy",
    "AutoLbPolicy",
    "AutoLoadBalancer",
    "CyclesPolicy",
    "DEFAULT_AUTO_LB_POLICY",
    "POLICIES",
    "PmdScheduler",
    "PortMove",
    "RebalancePlan",
    "RoundRobinPolicy",
    "RxqLoadTracker",
    "make_policy",
]
