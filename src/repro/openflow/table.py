"""The OpenFlow flow table: priority lookup, modify/delete semantics,
timeouts, counters and change notification.

The table is the contract between three parties: the controller (programs
it with flowmods), the datapath (looks packets up in it), and the paper's
p-2-p link detector (subscribes to change events to re-analyse port
connectivity).  Change listeners receive ``(kind, entry)`` with kind in
``{"added", "modified", "removed"}`` — exactly the hook the prototype adds
inside vswitchd.

Every mutation costs at most one pass over the table.  The entry list is
kept in priority order beside ``_ranks`` (each entry's negated priority,
so ``bisect`` finds a priority's run without calling back into Python)
and ``_index``, which maps ``(priority, match)`` to the one entry holding
it: an add replaces an identical rule, so there is never a second.
"""

import bisect
import enum
import itertools
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

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
        self._entries: List[FlowEntry] = []  # by -priority, FIFO ties
        self._ranks: List[int] = []  # -entry.priority, beside _entries
        self._index: Dict[Tuple[int, Match], FlowEntry] = {}
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
        self, entry: FlowEntry, *, check_overlap: bool = False
    ) -> TableModResult:
        """OFPFC_ADD: insert, replacing the rule with the same match and
        priority if there is one.

        With ``check_overlap`` the add is refused (ValueError) when an
        existing same-priority entry overlaps the new one — OpenFlow's
        OFPFF_CHECK_OVERLAP flag.
        """
        rank = -entry.priority
        if check_overlap:
            ranks = self._ranks
            for existing in self._entries[
                    bisect.bisect_left(ranks, rank):
                    bisect.bisect_right(ranks, rank)]:
                if (
                    existing.match.overlaps(entry.match)
                    and existing.match != entry.match
                ):
                    raise ValueError(
                        "overlap check failed against %r" % existing
                    )
        key = (entry.priority, entry.match)
        old = self._index.get(key)
        if old is not None:
            self._unlink(old)  # its index slot is the new entry's
        # After the last entry of equal or higher priority (FIFO ties).
        position = bisect.bisect_right(self._ranks, rank)
        self._entries.insert(position, entry)
        self._ranks.insert(position, rank)
        self._index[key] = entry
        if old is not None:
            self._notify("removed", old)
        self._notify("added", entry)
        return TableModResult(added=[entry], modified=[],
                              removed=[] if old is None else [old])

    def _unlink(self, entry: FlowEntry) -> None:
        """Take ``entry``, which is in the table, out of the ordered list
        (the caller sees to the index)."""
        position = self._entries.index(
            entry, bisect.bisect_left(self._ranks, -entry.priority))
        del self._entries[position]
        del self._ranks[position]

    def _strict(self, match: Match, priority: int,
                cookie: Optional[int]) -> List[FlowEntry]:
        """The entry at exactly (priority, match), if its cookie fits."""
        entry = self._index.get((priority, match))
        if entry is None or (cookie is not None and entry.cookie != cookie):
            return []
        return [entry]

    def _drop(self, verdicts: List) -> List["tuple[FlowEntry, object]"]:
        """Drop, in one pass, each entry whose verdict (one per entry, in
        table order) is truthy; returns ``(entry, verdict)`` pairs in table
        order."""
        removed = [(entry, verdict)
                   for entry, verdict in zip(self._entries, verdicts)
                   if verdict]
        if removed:
            self._entries = [entry for entry, verdict
                             in zip(self._entries, verdicts) if not verdict]
            self._ranks = [-entry.priority for entry in self._entries]
            for entry, _verdict in removed:
                del self._index[entry.priority, entry.match]
        return removed

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
        if strict:
            modified = self._strict(match, priority, cookie)
        else:
            modified = [
                entry for entry in self._entries
                if (cookie is None or entry.cookie == cookie)
                and match.covers(entry.match)
            ]
        for entry in modified:
            entry.actions = list(actions)
        # Every entry is rewritten before a listener hears of any.
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
        if strict:
            removed = [
                entry for entry in self._strict(match, priority, cookie)
                if out_port is None
                or out_port in output_ports(entry.actions)
            ]
            for entry in removed:
                del self._index[priority, match]
                self._unlink(entry)
        else:
            removed = [entry for entry, _selected in self._drop([
                (cookie is None or entry.cookie == cookie)
                and match.covers(entry.match)
                and (out_port is None
                     or out_port in output_ports(entry.actions))
                for entry in self._entries])]
        for entry in removed:
            self._notify("removed", entry)
        return TableModResult(added=[], modified=[], removed=removed)

    def expire(self, now: float) -> List["tuple[FlowEntry, ExpiryReason]"]:
        """Remove timed-out entries; returns (entry, reason) pairs."""
        expired = self._drop(
            [entry.is_expired(now) for entry in self._entries])
        for entry, _reason in expired:
            self._notify("removed", entry)
        return expired

    def clear(self) -> List[FlowEntry]:
        """Remove everything (bridge deletion / controller flush)."""
        removed, self._entries = self._entries, []
        self._ranks = []
        self._index = {}
        for entry in removed:
            self._notify("removed", entry)
        return removed
