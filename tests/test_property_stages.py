"""Stage accounting against its oracle, bit for bit.

``StageAccounting.add`` and ``StageTee.add`` are the per-burst hot path
of every PMD core; ``tests/support/reference_stages.py`` keeps them as
they were when an attribution cost three calls and four ``dict.get``s.
Random sequences of what ``VSwitchd`` does to its tables — a port's tee
adding, the core table adding alone (tx), a port moving cores, a port
leaving, a measurement-window reset — run through both; floats are
compared with ``==``: every table must receive the same values in the
same order, whichever dict they land in.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.cycles import STAGES, StageAccounting, StageTee
from tests.support.reference_stages import (
    ReferenceStageAccounting,
    ReferenceStageTee,
)

CORES = 2
PORTS = 3

stage_names = st.sampled_from(STAGES + ("custom_b", "custom_a"))
# Costs as the CostModel produces them — a few to a few thousand
# nanoseconds — plus zero (not stored) and awkward magnitudes, so
# ``subtract``'s 1e-18 clamp and float rounding both get exercised.
seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=5e-6),
    st.floats(min_value=1e-21, max_value=1e-17),
    st.sampled_from([4e-9, 1.1e-8, 2.5e-8, 1e-7, 3.2e-6]),
)
packets = st.integers(min_value=0, max_value=64)

operations = st.lists(st.one_of(
    st.tuples(st.just("tee"), st.integers(0, PORTS - 1), stage_names,
              seconds, packets),
    st.tuples(st.just("core"), st.integers(0, CORES - 1), stage_names,
              seconds, packets),
    st.tuples(st.just("move"), st.integers(0, PORTS - 1),
              st.integers(0, CORES - 1)),
    st.tuples(st.just("leave"), st.integers(0, PORTS - 1)),
    st.tuples(st.just("reset")),
), max_size=60)


class Rig:
    """The tables of a two-core switch with three ports, built from one
    pair of classes, and ``VSwitchd``'s bookkeeping over them."""

    def __init__(self, table_class, make_tee, retarget):
        self.cores = [table_class() for _ in range(CORES)]
        self.ports = [table_class() for _ in range(PORTS)]
        self.owner = [port % CORES for port in range(PORTS)]
        self.tees = [make_tee(self.cores[self.owner[port]], self.ports[port])
                     for port in range(PORTS)]
        self.retarget = retarget

    def apply(self, operation):
        kind = operation[0]
        if kind == "tee":
            _, port, stage, cost, count = operation
            self.tees[port].add(stage, cost, count)
        elif kind == "core":
            _, core, stage, cost, count = operation
            self.cores[core].add(stage, cost, packets=count)
        elif kind == "move":      # VSwitchd._on_port_moved
            _, port, core = operation
            self.cores[self.owner[port]].subtract(self.ports[port])
            self.ports[port].reset()
            self.retarget(self.tees[port], self.cores[core])
            self.owner[port] = core
        elif kind == "leave":     # VSwitchd.del_port (tables only)
            _, port = operation
            self.cores[self.owner[port]].subtract(self.ports[port])
        else:                     # VSwitchd.reset_pmd_accounting
            for table in self.cores + self.ports:
                table.reset()

    def observe(self):
        return [
            (dict(table.seconds), dict(table.packets), table.rows(),
             table.total_seconds, table.stages_in_order(),
             list(table.seconds), list(table.packets))
            for table in self.cores + self.ports
        ]


def _reference_retarget(tee, core):
    tee.targets[0] = core


@settings(max_examples=300, deadline=None)
@given(operations)
def test_stage_tables_match_the_reference(sequence):
    real = Rig(StageAccounting, StageTee, StageTee.retarget)
    reference = Rig(ReferenceStageAccounting, ReferenceStageTee,
                    _reference_retarget)
    for operation in sequence:
        real.apply(operation)
        reference.apply(operation)
        assert real.observe() == reference.observe()


def test_a_tee_survives_its_tables_being_reset_and_subtracted():
    # The tee binds the tables' dicts once; reset() and subtract() must
    # therefore work in place.
    core, port = StageAccounting(), StageAccounting()
    tee = StageTee(core, port)
    tee.add("rx_normal", 1e-6, 8)
    core.reset()
    port.reset()
    tee.add("rx_normal", 2e-6, 4)
    assert core.seconds == port.seconds == {"rx_normal": 2e-6}
    core.subtract(port)
    assert core.rows() == []
    tee.add("actions", 3e-6, 1)
    assert core.seconds == {"actions": 3e-6}
    assert port.packets == {"rx_normal": 4, "actions": 1}


def test_retarget_moves_only_the_core_side():
    old_core, new_core, port = (StageAccounting() for _ in range(3))
    tee = StageTee(old_core, port)
    tee.add("tx", 1e-6, 1)
    tee.retarget(new_core)
    tee.add("tx", 1e-6, 1)
    assert old_core.packets == new_core.packets == {"tx": 1}
    assert port.packets == {"tx": 2}
    assert tee.core is new_core and tee.port is port
