"""Property: the indexed flow table is the linear one.

``FlowTable`` finds the rule an add replaces, and the one rule a strict
modify or delete names, in its ``(priority, match)`` index, bisects its
priority order for the insertion point and the same-priority run an
overlap check scans, and removes in bulk in one pass;
``tests/support/reference_flowtable.py`` keeps the class that scanned.
Hypothesis drives one of each through the same adds (with and without
``check_overlap``), strict and non-strict modifies and deletes (with and
without ``cookie`` and ``out_port``), counter bumps, expiries at later
times and clears, over three priorities and masked matches that overlap,
cover and equal one another (each rebuilt afresh, so equal is not
identical).  After every step the two must agree on the result, the
``ValueError`` raised, the entries in order with their actions, and the
``(kind, flow_id)`` stream their listeners heard.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable

from tests.support.reference_flowtable import LinearFlowTable

PRIORITIES = (1, 5, 9)
IP = {"eth_type": 0x0800}
# Keyword sets, built into a fresh Match at each use.
MATCHES = [
    {},
    {"in_port": 1},
    {"in_port": 2},
    {"in_port": 1, **IP},
    {**IP, "ip_dst": (0x0A000000, 0xFF000000)},
    {**IP, "ip_dst": (0x0A010000, 0xFFFF0000)},
    {**IP, "ip_dst": (0x0B000000, 0xFF000000)},
    {"in_port": 1, **IP, "ip_proto": 17},
    {"eth_src": (0x0A0000000000, 0xFF0000000000)},
]
ACTIONS = [[], [OutputAction(1)], [OutputAction(2)],
           [OutputAction(1), OutputAction(3)]]
COOKIES = (0, 7)
IDLE_TIMEOUTS = (0.0, 1.0, 2.5)
HARD_TIMEOUTS = (0.0, 1.5, 4.0)


def pick(pool):
    """An index into ``pool``."""
    return st.integers(0, len(pool) - 1)


maybe_cookie = st.sampled_from((None,) + COOKIES)
operations = st.one_of(
    st.tuples(st.just("add"), pick(MATCHES),
              st.sampled_from(PRIORITIES), pick(ACTIONS),
              st.sampled_from(COOKIES), st.sampled_from(IDLE_TIMEOUTS),
              st.sampled_from(HARD_TIMEOUTS), st.booleans()),
    st.tuples(st.just("modify"), pick(MATCHES),
              st.booleans(), st.sampled_from(PRIORITIES),
              pick(ACTIONS), maybe_cookie),
    st.tuples(st.just("delete"), pick(MATCHES),
              st.booleans(), st.sampled_from(PRIORITIES), maybe_cookie,
              st.sampled_from((None, 1, 2, 3))),
    st.tuples(st.just("touch"), st.integers(0, 1 << 16)),
    st.tuples(st.just("expire"), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
    st.tuples(st.just("clear")),
)


class Twins:
    """One indexed and one linear table, fed the same script, with each
    added rule built twice under one ``flow_id``."""

    def __init__(self):
        self.tables = (FlowTable(), LinearFlowTable())
        self.heard = ([], [])
        for table, heard in zip(self.tables, self.heard):
            table.add_listener(lambda kind, entry, heard=heard:
                               heard.append((kind, entry.flow_id)))
        self.now = 0.0

    def step(self, operation):
        """Apply ``operation`` to both; returns each side's outcome."""
        kind, *args = operation
        if kind == "add":
            spec, priority, actions, cookie, idle, hard, check = args
            first = None
            outcomes = []
            for table in self.tables:
                entry = FlowEntry(Match(**MATCHES[spec]), ACTIONS[actions],
                                  priority=priority, cookie=cookie,
                                  idle_timeout=idle, hard_timeout=hard,
                                  install_time=self.now)
                if first is None:
                    first = entry
                else:
                    entry.flow_id = first.flow_id
                outcomes.append(self._call(
                    table.add, entry, check_overlap=check))
            return outcomes
        if kind == "modify":
            spec, strict, priority, actions, cookie = args
            return [self._call(table.modify, Match(**MATCHES[spec]),
                               ACTIONS[actions], strict=strict,
                               priority=priority, cookie=cookie)
                    for table in self.tables]
        if kind == "delete":
            spec, strict, priority, cookie, out_port = args
            return [self._call(table.delete, Match(**MATCHES[spec]),
                               strict=strict, priority=priority,
                               cookie=cookie, out_port=out_port)
                    for table in self.tables]
        if kind == "touch":
            # The datapath's counter bump, which keeps a rule from idling.
            for table in self.tables:
                entries = table.entries()
                if entries:
                    entries[args[0] % len(entries)].account(1, 64, self.now)
            return [None, None]
        if kind == "expire":
            self.now += args[0]
            return [[(entry.flow_id, reason)
                     for entry, reason in table.expire(self.now)]
                    for table in self.tables]
        return [[entry.flow_id for entry in table.clear()]
                for table in self.tables]

    @staticmethod
    def _call(method, *args, **kwargs):
        try:
            result = method(*args, **kwargs)
        except ValueError as exc:
            return ("ValueError", str(exc))
        return tuple([entry.flow_id for entry in entries]
                     for entries in result)

    def state(self, table):
        return [(entry.flow_id, entry.priority, entry.actions)
                for entry in table.entries()]


def run_both(script):
    """Run ``script`` on twins; returns the indexed table's outcomes."""
    twins = Twins()
    indexed, linear = twins.tables
    outcomes = []
    for step, operation in enumerate(script):
        got, expected = twins.step(operation)
        assert got == expected, (step, operation)
        assert twins.state(indexed) == twins.state(linear), (step, operation)
        assert twins.heard[0] == twins.heard[1], (step, operation)
        assert len(indexed) == len(linear)
        outcomes.append(got)
    return outcomes


ADD = ("add",)


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60))
# FIFO ties: a third same-priority rule goes after the first two, and a
# replaced rule moves to the end of its priority's run.
@example([ADD + (1, 5, 1, 0, 0.0, 0.0, False),
          ADD + (2, 5, 1, 0, 0.0, 0.0, False),
          ADD + (0, 9, 0, 0, 0.0, 0.0, False),
          ADD + (4, 5, 2, 0, 0.0, 0.0, False),
          ADD + (1, 5, 3, 0, 0.0, 0.0, False),
          ("delete", 1, True, 5, None, None)])
# An expired rule leaves no trace: re-adding it replaces nothing.
@example([ADD + (3, 5, 1, 0, 0.0, 1.5, False),
          ADD + (3, 1, 1, 0, 0.0, 0.0, False),
          ("expire", 2.0),
          ADD + (3, 5, 2, 0, 0.0, 0.0, False),
          ("delete", 3, True, 5, None, None)])
# An overlap check refuses against the first overlapping rule only.
@example([ADD + (4, 5, 1, 0, 0.0, 0.0, False),
          ADD + (6, 5, 1, 0, 0.0, 0.0, False),
          ADD + (5, 1, 1, 0, 0.0, 0.0, False),
          ADD + (0, 5, 2, 0, 0.0, 0.0, True),
          ADD + (5, 5, 2, 0, 0.0, 0.0, True)])
def test_indexed_table_is_the_linear_table(script):
    run_both(script)


def test_a_long_script_reaches_every_path():
    """One seeded script long enough that every kind of outcome
    happens: the differential above is only as good as the paths its
    scripts reach."""
    rng = random.Random(11)
    script = []
    for _ in range(2000):
        kind = rng.choice(["add"] * 6 + ["modify", "delete", "delete",
                                         "touch", "expire"]
                          + ["clear"] * (rng.random() < 0.05))
        if kind == "add":
            operation = ("add", rng.randrange(len(MATCHES)),
                         rng.choice(PRIORITIES), rng.randrange(len(ACTIONS)),
                         rng.choice(COOKIES), rng.choice(IDLE_TIMEOUTS),
                         rng.choice(HARD_TIMEOUTS), rng.random() < 0.3)
        elif kind == "modify":
            operation = ("modify", rng.randrange(len(MATCHES)),
                         rng.random() < 0.5, rng.choice(PRIORITIES),
                         rng.randrange(len(ACTIONS)),
                         rng.choice((None,) + COOKIES))
        elif kind == "delete":
            operation = ("delete", rng.randrange(len(MATCHES)),
                         rng.random() < 0.5, rng.choice(PRIORITIES),
                         rng.choice((None,) + COOKIES),
                         rng.choice((None, 1, 2, 3)))
        elif kind == "touch":
            operation = ("touch", rng.randrange(1 << 16))
        elif kind == "expire":
            operation = ("expire", rng.choice((0.0, 0.5, 1.0, 2.0)))
        else:
            operation = ("clear",)
        script.append(operation)
    reached = set()
    for operation, got in zip(script, run_both(script)):
        if isinstance(got, tuple) and got[0] == "ValueError":
            reached.add("refused")
        elif operation[0] == "add" and got[2]:
            reached.add("replaced")
        elif operation[0] == "modify" and len(got[1]) > 1:
            reached.add("bulk modify")
        elif operation[0] == "delete" and len(got[2]) > 1:
            reached.add("bulk delete")
        elif operation[0] == "expire" and got:
            reached.add("expired")
    assert reached == {"refused", "replaced", "bulk modify", "bulk delete",
                       "expired"}
