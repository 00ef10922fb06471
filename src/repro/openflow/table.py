"""The OpenFlow flow table: priority lookup, modify/delete semantics,
timeouts, counters and change notification.

The table is the contract between three parties: the controller (programs
it with flowmods), the datapath (looks packets up in it), and the paper's
p-2-p link detector (subscribes to change events to re-analyse port
connectivity).  Change listeners receive ``(kind, entry)`` with kind in
``{"added", "modified", "removed"}`` — exactly the hook the prototype adds
inside vswitchd.
"""

import enum
import itertools
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence

from repro.openflow.actions import Action, output_ports
from repro.openflow.match import Match
from repro.packet.flowkey import FlowKey


class FlowEntry:
    """One installed rule."""

    __slots__ = (
        "match",
        "priority",
        "actions",
        "cookie",
        "idle_timeout",
        "hard_timeout",
        "install_time",
        "last_used",
        "packet_count",
        "byte_count",
        "flow_id",
    )

    _ids = itertools.count(1)

    def __init__(
        self,
        match: Match,
        actions: Sequence[Action],
        priority: int = 0x8000,
        cookie: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        install_time: float = 0.0,
    ) -> None:
        if not 0 <= priority <= 0xFFFF:
            raise ValueError("priority out of range: %d" % priority)
        self.match = match
        self.priority = priority
        self.actions = list(actions)
        self.cookie = cookie
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.install_time = install_time
        self.last_used = install_time
        self.packet_count = 0
        self.byte_count = 0
        self.flow_id = next(FlowEntry._ids)

    def account(self, packets: int, byte_count: int, now: float) -> None:
        """Bump counters (called by the datapath or the stats merger)."""
        self.packet_count += packets
        self.byte_count += byte_count
        self.last_used = now

    def is_expired(self, now: float) -> Optional["ExpiryReason"]:
        if self.hard_timeout and now - self.install_time >= self.hard_timeout:
            return ExpiryReason.HARD
        if self.idle_timeout and now - self.last_used >= self.idle_timeout:
            return ExpiryReason.IDLE
        return None

    def __repr__(self) -> str:
        return "<FlowEntry prio=%d %r -> %s n_packets=%d>" % (
            self.priority, self.match, self.actions, self.packet_count
        )


class ExpiryReason(enum.Enum):
    IDLE = "idle"
    HARD = "hard"


class TableModResult(NamedTuple):
    """Outcome of a table mutation (what the bridge reports/notifies)."""

    added: List[FlowEntry]
    modified: List[FlowEntry]
    removed: List[FlowEntry]


ChangeListener = Callable[[str, FlowEntry], None]


class FlowTable:
    """A single OpenFlow table (the paper's pipeline is one table)."""

    def __init__(self, table_id: int = 0) -> None:
        self.table_id = table_id
        self._entries: List[FlowEntry] = []  # kept sorted by -priority
        self._listeners: List[ChangeListener] = []
        self.lookup_count = 0
        self.matched_count = 0

    # -- subscription -------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        """Register for (kind, entry) change events."""
        self._listeners.append(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        self._listeners.remove(listener)

    def _notify(self, kind: str, entry: FlowEntry) -> None:
        for listener in self._listeners:
            listener(kind, entry)

    # -- read access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterable[FlowEntry]:
        return iter(self._entries)

    def entries(self) -> List[FlowEntry]:
        """Snapshot of entries, highest priority first."""
        return list(self._entries)

    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """Highest-priority entry matching ``key`` (None = table miss).

        Ties between equal-priority overlapping entries resolve to the
        earliest inserted, matching OVS behaviour.
        """
        self.lookup_count += 1
        for entry in self._entries:
            if entry.match.matches(key):
                self.matched_count += 1
                return entry
        return None

    def entries_for_in_port(self, port: int) -> List[FlowEntry]:
        """Entries that could match traffic from ``port``.

        Includes entries that wildcard in_port; the detector uses this to
        reason about everything that might touch a port's traffic.
        """
        result = []
        for entry in self._entries:
            in_port = entry.match.in_port
            if in_port is None or in_port == port:
                result.append(entry)
        return result

    # -- mutation ----------------------------------------------------------------

    def add(
        self,
        entry: FlowEntry,
        *,
        replace: bool = True,
        check_overlap: bool = False,
    ) -> TableModResult:
        """OFPFC_ADD: insert, replacing an identical (match, priority) rule.

        With ``check_overlap`` the add is refused (ValueError) when an
        existing same-priority entry overlaps the new one — OpenFlow's
        OFPFF_CHECK_OVERLAP flag.
        """
        if check_overlap:
            for existing in self._entries:
                if (
                    existing.priority == entry.priority
                    and existing.match.overlaps(entry.match)
                    and existing.match != entry.match
                ):
                    raise ValueError(
                        "overlap check failed against %r" % existing
                    )
        removed: List[FlowEntry] = []
        if replace:
            for existing in list(self._entries):
                if (
                    existing.priority == entry.priority
                    and existing.match == entry.match
                ):
                    self._entries.remove(existing)
                    removed.append(existing)
        self._insert_sorted(entry)
        for old in removed:
            self._notify("removed", old)
        self._notify("added", entry)
        return TableModResult(added=[entry], modified=[], removed=removed)

    def _insert_sorted(self, entry: FlowEntry) -> None:
        # Insert after existing entries of the same priority (FIFO ties).
        index = len(self._entries)
        for position, existing in enumerate(self._entries):
            if existing.priority < entry.priority:
                index = position
                break
        self._entries.insert(index, entry)

    def modify(
        self,
        match: Match,
        actions: Sequence[Action],
        *,
        strict: bool = False,
        priority: int = 0x8000,
        cookie: Optional[int] = None,
    ) -> TableModResult:
        """OFPFC_MODIFY(_STRICT): update actions of matching entries.

        Non-strict updates every entry whose match is *covered by*
        ``match``; strict requires identical match and priority.  Counters
        and timeouts are preserved (per spec).
        """
        modified: List[FlowEntry] = []
        for entry in self._entries:
            if cookie is not None and entry.cookie != cookie:
                continue
            if strict:
                selected = (
                    entry.priority == priority and entry.match == match
                )
            else:
                selected = match.covers(entry.match)
            if selected:
                entry.actions = list(actions)
                modified.append(entry)
        for entry in modified:
            self._notify("modified", entry)
        return TableModResult(added=[], modified=modified, removed=[])

    def delete(
        self,
        match: Match,
        *,
        strict: bool = False,
        priority: int = 0x8000,
        cookie: Optional[int] = None,
        out_port: Optional[int] = None,
    ) -> TableModResult:
        """OFPFC_DELETE(_STRICT): remove matching entries.

        ``out_port`` additionally restricts deletion to entries with an
        output action to that port (OpenFlow's out_port filter).
        """
        removed: List[FlowEntry] = []
        for entry in list(self._entries):
            if cookie is not None and entry.cookie != cookie:
                continue
            if strict:
                selected = (
                    entry.priority == priority and entry.match == match
                )
            else:
                selected = match.covers(entry.match)
            if selected and out_port is not None:
                selected = out_port in output_ports(entry.actions)
            if selected:
                self._entries.remove(entry)
                removed.append(entry)
        for entry in removed:
            self._notify("removed", entry)
        return TableModResult(added=[], modified=[], removed=removed)

    def expire(self, now: float) -> List["tuple[FlowEntry, ExpiryReason]"]:
        """Remove timed-out entries; returns (entry, reason) pairs."""
        expired = []
        for entry in list(self._entries):
            reason = entry.is_expired(now)
            if reason is not None:
                self._entries.remove(entry)
                expired.append((entry, reason))
        for entry, _reason in expired:
            self._notify("removed", entry)
        return expired

    def clear(self) -> List[FlowEntry]:
        """Remove everything (bridge deletion / controller flush)."""
        removed, self._entries = self._entries, []
        for entry in removed:
            self._notify("removed", entry)
        return removed
