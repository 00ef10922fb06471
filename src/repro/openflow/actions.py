"""OpenFlow actions.

Only the actions the paper's steering rules need: output to a port,
punt to the controller, and header rewrites (SetField, used by the
negative tests — a rule that rewrites headers is *not* eligible for a
p-2-p bypass even if it outputs to a single port, because the vSwitch
performs the rewrite).
"""

from typing import List, Sequence

from repro.openflow.match import FIELD_WIDTHS, MatchError

PORT_CONTROLLER = 0xFFFFFFFD  # OFPP_CONTROLLER
PORT_FLOOD = 0xFFFFFFFB       # OFPP_FLOOD


class Action:
    """Base class; concrete actions are small value objects."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class OutputAction(Action):
    """Forward the packet to ``port``."""

    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        if port < 0:
            raise ValueError("invalid output port %d" % port)
        self.port = port

    def _key(self):
        return (self.port,)

    @property
    def is_controller(self) -> bool:
        return self.port == PORT_CONTROLLER

    def __repr__(self) -> str:
        if self.is_controller:
            return "output:CONTROLLER"
        return "output:%d" % self.port


class ControllerAction(OutputAction):
    """Punt to the controller (sugar for output:CONTROLLER)."""

    __slots__ = ()

    def __init__(self, max_len: int = 128) -> None:
        super().__init__(PORT_CONTROLLER)
        # max_len kept implicit; PacketIn always carries the whole frame.

    def __repr__(self) -> str:
        return "controller"


class GotoTableAction(Action):
    """Continue pipeline processing in a later table (OF1.3 goto_table).

    Modelled as a terminal pseudo-action: it must be the last entry in
    an action list and cannot be combined with SetField (header rewrites
    would invalidate the lookup key for the next table — a deliberate
    subset restriction, enforced by the bridge).
    """

    __slots__ = ("table_id",)

    def __init__(self, table_id: int) -> None:
        if not 0 <= table_id <= 254:
            raise ValueError("invalid goto table id %d" % table_id)
        self.table_id = table_id

    def _key(self):
        return (self.table_id,)

    def __repr__(self) -> str:
        return "goto_table:%d" % self.table_id


def goto_table_of(actions: Sequence[Action]):
    """The GotoTableAction in ``actions``, or None."""
    for action in actions:
        if isinstance(action, GotoTableAction):
            return action
    return None


class SetFieldAction(Action):
    """Rewrite one match-capable field before subsequent actions."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value: int) -> None:
        if field not in FIELD_WIDTHS:
            raise MatchError("unknown settable field %r" % field)
        self.field = field
        self.value = value

    def _key(self):
        return (self.field, self.value)

    def __repr__(self) -> str:
        return "set_field:%s=%#x" % (self.field, self.value)


class XfsmAction(Action):
    """Run the packet through a registered XFSM program (by name).

    The program decides allow/drop (and may update per-flow state)
    before the remaining actions execute; ``from_inside`` tells the
    executor which side of the program's perimeter this rule carries —
    a rule is a *directed* attachment point, and the bypass PMD has no
    ``in_port`` context to derive the side from.

    The action itself performs no output; the installing controller
    pairs it with a plain ``output`` action.
    """

    __slots__ = ("program", "from_inside")

    def __init__(self, program: str, from_inside: bool = True) -> None:
        if not program:
            raise ValueError("xfsm action needs a program name")
        self.program = program
        self.from_inside = from_inside

    def _key(self):
        return (self.program, self.from_inside)

    def __repr__(self) -> str:
        return "xfsm:%s/%s" % (self.program,
                               "inside" if self.from_inside else "outside")


def xfsm_delegation(actions: Sequence[Action]):
    """``(program, from_inside, dst_port)`` when the list is exactly an
    XFSM delegation followed by one plain output — the *stateful*
    action shape the p-2-p detector may additionally accept — else
    None."""
    if len(actions) != 2:
        return None
    xfsm, output = actions
    if not isinstance(xfsm, XfsmAction):
        return None
    if not (isinstance(output, OutputAction)
            and not output.is_controller
            and output.port != PORT_FLOOD):
        return None
    return xfsm.program, xfsm.from_inside, output.port


def output_ports(actions: Sequence[Action]) -> List[int]:
    """All ports the action list outputs to (controller port included)."""
    return [
        action.port for action in actions if isinstance(action, OutputAction)
    ]


def is_pure_single_output(actions: Sequence[Action]) -> bool:
    """True when the list is exactly one plain output to a real port.

    This is the action shape required for p-2-p bypass eligibility:
    no header rewrites, no controller copy, no multicast.
    """
    if len(actions) != 1:
        return False
    action = actions[0]
    return (
        isinstance(action, OutputAction)
        and not action.is_controller
        and action.port != PORT_FLOOD
    )
