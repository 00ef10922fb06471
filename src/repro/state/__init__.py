"""repro.state — the stateful fast-path tier (OpenState/XFSM).

Per-flow :class:`~repro.state.table.StateTable` storage plus the
:class:`~repro.state.xfsm.Xfsm` program model, executed (1) in the
vSwitch datapath after cache-hit resolution (the ``xfsm_exec`` stage)
and (2) inside the bypass PMD, so p-2-p channels can carry stateful
NFs without tearing down.  :mod:`repro.state.programs` holds the
network functions (connection tracking, the stateful firewall the guest
app runs too, ACL, NAT, rate limiting) as programs over the abstraction.
"""

from repro.state.table import (
    StateEntry,
    StateTable,
    canonical_scope,
    exact_scope,
    source_scope,
)
from repro.state.xfsm import (
    ALLOW,
    DROP,
    ChannelProgram,
    Event,
    TokenBucket,
    Transition,
    Verdict,
    Xfsm,
    event_for,
)
from repro.state.programs import (
    acl_program,
    conntrack_program,
    firewall_program,
    nat_program,
    token_bucket_program,
)

__all__ = [
    "ALLOW",
    "DROP",
    "ChannelProgram",
    "Event",
    "StateEntry",
    "StateTable",
    "TokenBucket",
    "Transition",
    "Verdict",
    "Xfsm",
    "acl_program",
    "canonical_scope",
    "conntrack_program",
    "event_for",
    "exact_scope",
    "firewall_program",
    "nat_program",
    "source_scope",
    "token_bucket_program",
]
