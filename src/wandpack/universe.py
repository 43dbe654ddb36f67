"""Finite universes: the configuration that bounds every enumeration.

A universe declares the reference objects, the heap locations rooted at
them (each with a finite value domain), optional non-recursive predicate
definitions, and the permission granularity used when enumerating states.
Permission *arithmetic* is always exact (``fractions.Fraction``); the
granularity only restricts which amounts enumeration visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

NULL = "null"

# Heap values: references are their names (including "null"), plus Python
# ints and bools.  A location's domain never mixes value types.
Value = Union[str, int, bool]

REF = "ref"
INT = "int"
BOOL = "bool"


class UniverseError(Exception):
    """Raised for ill-formed universe declarations."""


def value_type(v: Value) -> str:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return INT
    return REF


def value_key(v: Value) -> tuple:
    """Total deterministic order over heterogeneous values."""
    return (value_type(v), str(v) if not isinstance(v, bool) else str(v).lower())


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


@dataclass(frozen=True, order=True)
class FieldLoc:
    """A concrete heap location: a (reference, field) pair."""

    ref: str
    field: str

    def __str__(self) -> str:
        return f"{self.ref}.{self.field}"


@dataclass(frozen=True)
class PredInst:
    """A predicate-instance resource; the held fraction lives in the mask."""

    name: str
    args: tuple[Value, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(format_value(a) for a in self.args)})"


@dataclass(frozen=True)
class WandInst:
    """A recorded wand instance, keyed by its closed, printed form."""

    key: str

    def __str__(self) -> str:
        return f"wand[{self.key}]"


ResourceId = Union[FieldLoc, PredInst, WandInst]

_RID_RANK = {FieldLoc: 0, PredInst: 1, WandInst: 2}


def rid_key(rid: ResourceId) -> tuple:
    """Deterministic order: field locations, then predicates, then wands."""
    if isinstance(rid, FieldLoc):
        return (0, rid.ref, rid.field)
    if isinstance(rid, PredInst):
        return (1, rid.name, tuple(value_key(a) for a in rid.args))
    return (2, rid.key)


@dataclass(frozen=True)
class PredicateDef:
    name: str
    params: tuple[str, ...]
    body: "object"  # an assertions.Assertion; kept loose to avoid an import cycle


@dataclass(frozen=True)
class Universe:
    """Immutable description of a finite state space.

    ``refs`` excludes ``null`` (null carries no locations).  ``locations``
    maps each declared FieldLoc to its finite value domain; domains are
    stored sorted for determinism.
    """

    refs: tuple[str, ...]
    locations: Mapping[FieldLoc, tuple[Value, ...]]
    granularity: int
    predicates: Mapping[str, PredicateDef] = field(default_factory=dict)

    def __post_init__(self):
        if self.granularity < 1:
            raise UniverseError("granularity must be a positive integer")
        if NULL in self.refs:
            raise UniverseError("null is implicit and declares no locations")
        for loc, dom in self.locations.items():
            if loc.ref == NULL:
                raise UniverseError("locations rooted at null are not allowed")
            if loc.ref not in self.refs:
                raise UniverseError(f"location {loc} roots at undeclared reference")
            if not dom:
                raise UniverseError(f"location {loc} has an empty value domain")
            types = {value_type(v) for v in dom}
            if len(types) != 1:
                raise UniverseError(f"location {loc} mixes value types in its domain")
            for v in dom:
                if value_type(v) == REF and v != NULL and v not in self.refs:
                    raise UniverseError(f"location {loc} domain names undeclared reference {v}")
        # Fields must be consistently typed across references so expressions
        # can be typechecked per field.
        ftypes: dict[str, str] = {}
        for loc, dom in self.locations.items():
            t = value_type(dom[0])
            if ftypes.setdefault(loc.field, t) != t:
                raise UniverseError(f"field {loc.field} has inconsistent value types")

    # -- lookups -----------------------------------------------------------

    def has_location(self, loc: FieldLoc) -> bool:
        return loc in self.locations

    def domain(self, loc: FieldLoc) -> tuple[Value, ...]:
        return self.locations[loc]

    def field_type(self, fld: str) -> Optional[str]:
        for loc, dom in self.locations.items():
            if loc.field == fld:
                return value_type(dom[0])
        return None

    def ref_values(self) -> tuple[str, ...]:
        return tuple(sorted(self.refs)) + (NULL,)

    def sorted_locations(self) -> list[FieldLoc]:
        return sorted(self.locations)

    def fraction_lattice(self) -> list[Fraction]:
        g = self.granularity
        return [Fraction(i, g) for i in range(g + 1)]

    def predicate(self, name: str) -> PredicateDef:
        if name not in self.predicates:
            raise UniverseError(f"undeclared predicate {name}")
        return self.predicates[name]

    def predicate_instances(self) -> list[PredInst]:
        """All predicate-instance resources over non-null reference args."""
        out: list[PredInst] = []
        refs = tuple(sorted(self.refs))
        for name in sorted(self.predicates):
            params = self.predicates[name].params
            out.extend(_arg_tuples(name, params, refs))
        return out


def _arg_tuples(name: str, params: Sequence[str], refs: Sequence[str]) -> list[PredInst]:
    insts = [()]
    for _ in params:
        insts = [t + (r,) for t in insts for r in refs]
    return [PredInst(name, t) for t in insts]


def make_universe(
    refs: Iterable[str],
    locations: Mapping[tuple[str, str], Iterable[Value]],
    granularity: int,
    predicates: Mapping[str, PredicateDef] | None = None,
) -> Universe:
    locs = {
        FieldLoc(r, f): tuple(sorted(dom, key=value_key))
        for (r, f), dom in locations.items()
    }
    return Universe(
        refs=tuple(sorted(set(refs))),
        locations=locs,
        granularity=granularity,
        predicates=dict(predicates or {}),
    )
