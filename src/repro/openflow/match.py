"""OpenFlow match: masked field constraints plus the set algebra the
p-2-p link detector relies on (overlap, cover, totality).

A :class:`Match` constrains a subset of the :class:`~repro.packet.flowkey.
FlowKey` fields; unconstrained fields are wildcards.  Fields may carry a
bitmask (``None`` mask = exact).  Besides per-packet matching, matches
support the region algebra used for flow-table semantics and detector
analysis:

* :meth:`overlaps` — do two matches share at least one packet?
* :meth:`covers` — does this match's region contain another's entirely?
* :meth:`is_total_for_port` — is this exactly "everything from port N"?
"""

from typing import Dict, Iterator, Optional, Tuple

from repro.packet.flowkey import FlowKey
from repro.packet.headers import ETH_TYPE_IPV4, ETH_TYPE_IPV6

# Field name -> bit width. The field set mirrors FlowKey.
FIELD_WIDTHS: Dict[str, int] = {
    "in_port": 32,
    "eth_src": 48,
    "eth_dst": 48,
    "eth_type": 16,
    "vlan_vid": 12,
    "ip_src": 32,
    "ip_dst": 32,
    "ip_proto": 8,
    "ip_tos": 8,
    "l4_src": 16,
    "l4_dst": 16,
}

# Fields OpenFlow treats as exact-only (no arbitrary bitmasks).
_EXACT_ONLY = frozenset(
    {"in_port", "eth_type", "vlan_vid", "ip_proto", "ip_tos",
     "l4_src", "l4_dst"}
)

# Prerequisite chains (OpenFlow 1.3 §7.2.3.8): constraining an upper-layer
# field requires pinning the lower-layer demux field.
_PREREQUISITES = {
    "ip_src": "eth_type",
    "ip_dst": "eth_type",
    "ip_proto": "eth_type",
    "ip_tos": "eth_type",
    "l4_src": "ip_proto",
    "l4_dst": "ip_proto",
}


class MatchError(ValueError):
    """Raised for malformed matches (unknown field, bad mask, prereqs)."""


def _full_mask(width: int) -> int:
    return (1 << width) - 1


class Match:
    """An immutable set of masked field constraints.

    Construct with keyword arguments; each value is either an ``int``
    (exact match) or an ``(int value, int mask)`` tuple::

        Match(in_port=1)
        Match(eth_type=0x0800, ip_dst=(0x0A000000, 0xFF000000))  # 10/8
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, **constraints) -> None:
        fields: Dict[str, Tuple[int, int]] = {}
        for name, raw in constraints.items():
            width = FIELD_WIDTHS.get(name)
            if width is None:
                raise MatchError("unknown match field %r" % name)
            if isinstance(raw, tuple):
                value, mask = raw
            else:
                value, mask = raw, _full_mask(width)
            full = _full_mask(width)
            if not 0 <= value <= full:
                raise MatchError(
                    "value %#x out of range for %s" % (value, name)
                )
            if not 0 <= mask <= full:
                raise MatchError("mask %#x out of range for %s" % (mask, name))
            if mask == 0:
                continue  # all-zero mask is a wildcard: drop the field
            if name in _EXACT_ONLY and mask != full:
                raise MatchError("field %s supports exact match only" % name)
            if value & ~mask:
                raise MatchError(
                    "value %#x has bits outside mask %#x for %s"
                    % (value, mask, name)
                )
            fields[name] = (value, mask)
        self._check_prerequisites(fields)
        self._fields = fields
        self._hash = hash(frozenset(fields.items()))

    @staticmethod
    def _check_prerequisites(fields: Dict[str, Tuple[int, int]]) -> None:
        for name in fields:
            prereq = _PREREQUISITES.get(name)
            if prereq is None:
                continue
            if prereq not in fields:
                raise MatchError(
                    "field %s requires %s to be set" % (name, prereq)
                )
            if prereq == "eth_type":
                eth_type = fields["eth_type"][0]
                if eth_type not in (ETH_TYPE_IPV4, ETH_TYPE_IPV6):
                    raise MatchError(
                        "field %s requires an IP eth_type, got %#x"
                        % (name, eth_type)
                    )

    # -- accessors -----------------------------------------------------------

    @property
    def fields(self) -> Dict[str, Tuple[int, int]]:
        """Constrained fields as ``{name: (value, mask)}`` (copy)."""
        return dict(self._fields)

    def get(self, name: str) -> Optional[Tuple[int, int]]:
        return self._fields.get(name)

    def constrains(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    @property
    def is_wildcard_all(self) -> bool:
        """True when the match accepts every packet."""
        return not self._fields

    # -- packet matching -------------------------------------------------------

    def matches(self, key: FlowKey) -> bool:
        """True when ``key`` falls inside this match's region."""
        for name, (value, mask) in self._fields.items():
            if (getattr(key, name) & mask) != value:
                return False
        return True

    # -- region algebra ---------------------------------------------------------

    def overlaps(self, other: "Match") -> bool:
        """True when some packet satisfies both matches.

        For each field constrained by both, the constraints must agree on
        the intersection of their masks; fields constrained by only one
        side never exclude overlap.
        """
        for name, (value_a, mask_a) in self._fields.items():
            other_constraint = other._fields.get(name)
            if other_constraint is None:
                continue
            value_b, mask_b = other_constraint
            common = mask_a & mask_b
            if (value_a & common) != (value_b & common):
                return False
        return True

    def covers(self, other: "Match") -> bool:
        """True when every packet matching ``other`` also matches self."""
        for name, (value_a, mask_a) in self._fields.items():
            other_constraint = other._fields.get(name)
            if other_constraint is None:
                return False  # other is wider on this field
            value_b, mask_b = other_constraint
            if (mask_a & mask_b) != mask_a:
                return False  # other's mask misses bits self pins
            if (value_b & mask_a) != value_a:
                return False
        return True

    def is_total_for_port(self, port: int) -> bool:
        """True when this match is exactly "all traffic from ``port``".

        This is the pattern the p-2-p link detector looks for: the only
        constraint is an exact ``in_port``.
        """
        if len(self._fields) != 1:
            return False
        constraint = self._fields.get("in_port")
        return constraint == (port, _full_mask(32))

    @property
    def in_port(self) -> Optional[int]:
        """The exact in_port constraint, if any."""
        constraint = self._fields.get("in_port")
        return constraint[0] if constraint else None

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._fields:
            return "Match(*)"
        parts = []
        for name in FIELD_WIDTHS:
            constraint = self._fields.get(name)
            if constraint is None:
                continue
            value, mask = constraint
            if mask == _full_mask(FIELD_WIDTHS[name]):
                parts.append("%s=%#x" % (name, value))
            else:
                parts.append("%s=%#x/%#x" % (name, value, mask))
        return "Match(%s)" % ", ".join(parts)
