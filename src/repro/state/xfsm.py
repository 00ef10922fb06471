"""The XFSM program model: states, guarded transitions, verdicts.

An :class:`Xfsm` is OpenState's eXtended Finite State Machine: per-flow
state (held in a :class:`~repro.state.table.StateTable`) plus an ordered
transition list per state.  Each packet becomes an :class:`Event`; the
machine looks the flow's state up, fires the first transition whose
guard accepts the event, and returns a :class:`Verdict` — allow or
drop, plus the state the flow moved to.  Optional per-program features:

* a **token-bucket rate limit** (tokens are per-entry registers refilled
  from the simulated clock, so replays are exact);
* a **rewrite** hook (NAT); a program with a rewrite is *not*
  state-safe — the bypass PMD only copies mbuf references between
  rings and cannot reproduce header mutation, so the detector refuses
  to put such a program on a p-2-p channel.

The same program object is executed by the vSwitch datapath tier and by
the bypass PMD.  That sharing *is* the state-conservation mechanism:
when a channel is established or degraded the flows change executor,
but the table they read and write never moves.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.packet.flowkey import FlowKey
from repro.packet.headers import Tcp
from repro.state.table import StateTable

ALLOW = "allow"
DROP = "drop"

#: The state an unknown flow is in before its first transition fires.
DEFAULT_STATE = "DEFAULT"


@dataclass(frozen=True)
class Event:
    """One packet, reduced to what guards may predicate on."""

    key: FlowKey
    now: float
    from_inside: bool = True   # which side of the perimeter sent it
    tcp_flags: int = 0         # 0 for non-TCP traffic
    ip_proto: int = 0
    wire_length: int = 0


def event_for(key: FlowKey, mbuf, now: float,
              from_inside: bool = True) -> Event:
    """Build the event for one packet (shared by datapath and PMD)."""
    tcp = None
    wire_length = 0
    if mbuf is not None:
        wire_length = mbuf.wire_length
        if mbuf.packet is not None:
            tcp = mbuf.packet.get(Tcp)
    return Event(
        key=key, now=now, from_inside=from_inside,
        tcp_flags=tcp.flags if tcp is not None else 0,
        ip_proto=key.ip_proto, wire_length=wire_length,
    )


Guard = Callable[[Event, Dict[str, Any]], bool]
Update = Callable[[Event, Dict[str, Any]], None]


@dataclass(frozen=True)
class Transition:
    """One guarded edge of the machine.

    ``to_state=None`` keeps the current state; ``persist=False`` stops
    a matched transition from creating an entry for a yet-unknown flow
    (dropped strangers must not occupy table slots — the SYN-flood
    boundedness argument).
    """

    when: Guard
    to_state: Optional[str] = None
    verdict: str = ALLOW
    update: Optional[Update] = None
    persist: bool = True
    name: str = ""


def always(_event: Event, _data: Dict[str, Any]) -> bool:
    return True


@dataclass(frozen=True)
class TokenBucket:
    """Per-entry token-bucket spec; token state lives in the entry's
    registers so it migrates with the flow.

    Kept apart from ``repro.overload.tokenbucket.TokenBucket``, which
    owns its tokens and a clock: one shared class would have to branch
    on whether its caller holds the state."""

    rate_pps: float
    burst: float

    def admit(self, data: Dict[str, Any], now: float) -> bool:
        tokens = data.get("tokens")
        if tokens is None:
            tokens = self.burst
            data["token_mark"] = now
        else:
            tokens = min(self.burst,
                         tokens + (now - data["token_mark"]) * self.rate_pps)
            data["token_mark"] = now
        if tokens >= 1.0:
            data["tokens"] = tokens - 1.0
            return True
        data["tokens"] = tokens
        return False


@dataclass(frozen=True)
class Verdict:
    """What the executor must do with the packet."""

    allow: bool
    state: str
    reason: str = ""


class Xfsm:
    """One compiled stateful program over one state table."""

    def __init__(
        self,
        name: str,
        table: StateTable,
        transitions: Dict[str, List[Transition]],
        default_state: str = DEFAULT_STATE,
        default_verdict: str = ALLOW,
        rate_limit: Optional[TokenBucket] = None,
        rewrite: Optional[Callable[[Event, Any, Dict[str, Any]], None]] = None,
    ) -> None:
        self.name = name
        self.table = table
        self.transitions = transitions
        self.default_state = default_state
        self.default_verdict = default_verdict
        self.rate_limit = rate_limit
        self.rewrite = rewrite
        self.states = sorted(
            {default_state}
            | set(transitions)
            | {t.to_state for edges in transitions.values()
               for t in edges if t.to_state is not None}
        )
        self.evaluations = 0
        self.allowed = 0
        self.dropped = 0
        self.rate_limited = 0
        self.state_transitions = 0

    @property
    def state_safe(self) -> bool:
        """True when a ring copy reproduces this program's effect on an
        allowed packet — i.e. the program never mutates headers.  Drop
        and rate-limit decisions are fine (the PMD executes them); a
        rewrite is not."""
        return self.rewrite is None

    def evaluate(self, event: Event, mbuf=None) -> Verdict:
        """Run one packet through the machine; state effects included."""
        self.evaluations += 1
        entry = self.table.lookup(event.key, event.now)
        state = entry.state if entry is not None else self.default_state
        data = entry.data if entry is not None else {}
        fired: Optional[Transition] = None
        for transition in self.transitions.get(state, ()):
            if transition.when(event, data):
                fired = transition
                break
        verdict = fired.verdict if fired is not None else self.default_verdict
        next_state = state
        if fired is not None and fired.to_state is not None:
            next_state = fired.to_state
        if fired is not None and fired.update is not None:
            fired.update(event, data)
        reason = fired.name if fired is not None else "default"
        if verdict == ALLOW and self.rate_limit is not None:
            if not self.rate_limit.admit(data, event.now):
                verdict = DROP
                reason = "rate_limited"
                self.rate_limited += 1
        persist = entry is not None or (
            fired is not None and fired.persist
            and (verdict == ALLOW or self.rate_limit is not None)
        )
        if persist:
            if entry is not None and entry.state != next_state:
                self.state_transitions += 1
            elif entry is None and next_state != self.default_state:
                self.state_transitions += 1
            self.table.update(event.key, next_state, event.now, data)
        if verdict == ALLOW:
            if self.rewrite is not None and mbuf is not None:
                self.rewrite(event, mbuf, data)
            self.allowed += 1
            return Verdict(True, next_state, reason)
        self.dropped += 1
        return Verdict(False, next_state, reason)

    def counters(self) -> Dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "allowed": self.allowed,
            "dropped": self.dropped,
            "rate_limited": self.rate_limited,
            "state_transitions": self.state_transitions,
        }

    def __repr__(self) -> str:
        return "<Xfsm %r states=%d occupancy=%d%s>" % (
            self.name, len(self.states), self.table.occupancy,
            "" if self.state_safe else " !state-safe",
        )


@dataclass(frozen=True)
class ChannelProgram:
    """The handle a bypass zone carries: which program the channel's
    packets must run through, and which perimeter side the channel's
    direction corresponds to.  The program object is shared with the
    datapath registry — that identity is the state-conservation
    guarantee across establish/degrade/re-admit."""

    program: Xfsm
    from_inside: bool = True
