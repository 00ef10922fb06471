"""The linear ``FlowTable``, kept as the oracle the indexed one is
checked against.

Until the table kept a ``(priority, match)`` index and bisected its
priority order, every mutation scanned the whole list: an add compared
its match with every entry's to find the rule it replaces and walked to
its insertion point, strict modify and delete scanned for their one
entry, and bulk removal called ``list.remove`` once per victim.
``LinearFlowTable`` is the class as it stood (an add always replaces),
so a differential can hold the new one to the same entry order, results,
errors and change notifications.
"""

from typing import List, Optional, Sequence

from repro.openflow.actions import Action, output_ports
from repro.openflow.match import Match
from repro.openflow.table import ChangeListener, FlowEntry, TableModResult


class LinearFlowTable:
    def __init__(self, table_id: int = 0) -> None:
        self.table_id = table_id
        self._entries: List[FlowEntry] = []  # kept sorted by -priority
        self._listeners: List[ChangeListener] = []

    def add_listener(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    def _notify(self, kind: str, entry: FlowEntry) -> None:
        for listener in self._listeners:
            listener(kind, entry)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[FlowEntry]:
        return list(self._entries)

    def add(self, entry: FlowEntry, *,
            check_overlap: bool = False) -> TableModResult:
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

    def modify(self, match: Match, actions: Sequence[Action], *,
               strict: bool = False, priority: int = 0x8000,
               cookie: Optional[int] = None) -> TableModResult:
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

    def delete(self, match: Match, *, strict: bool = False,
               priority: int = 0x8000, cookie: Optional[int] = None,
               out_port: Optional[int] = None) -> TableModResult:
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

    def expire(self, now: float):
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
        removed, self._entries = self._entries, []
        for entry in removed:
            self._notify("removed", entry)
        return removed
