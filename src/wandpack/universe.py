"""Finite universes: the configuration that bounds every enumeration.

A universe declares the reference objects, the heap locations rooted at
them (each with a finite value domain), optional non-recursive predicate
definitions, and the permission granularity used when enumerating states.
Permission *arithmetic* is always exact (``fractions.Fraction``); the
granularity only restricts which amounts enumeration visits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Union

NULL = "null"

# Heap values: references are their names (including "null"), plus Python
# ints and bools.  A location's domain never mixes value types.
Value = Union[str, int, bool]

REF = "ref"
INT = "int"
BOOL = "bool"


class UniverseError(Exception):
    """Raised for ill-formed universe declarations.  ``subject`` names the
    declaration at fault, where there is one: "granularity", or a
    location's ``FieldLoc``."""

    def __init__(self, message: str, subject=None):
        super().__init__(message)
        self.subject = subject


def value_type(v: Value) -> str:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return INT
    return REF


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# Resource ids are dict and set keys and sort keys throughout the state
# algebra, so each is a tuple that is its own sort key: (0, ref, field),
# (1, name, each argument as (value type, value), args) or (2, key).
# Hashing, equality and ordering are the tuple's own, run in C; the leading
# tag keeps ids of different kinds apart and orders field locations before
# predicate instances before wands, and the type tags keep ``P(1)`` and
# ``P(true)`` apart (``True == 1`` in Python) and never compare values of
# two types.  Pickling and copying rebuild an id through its constructor
# (``__getnewargs__``), so it hashes as the receiving process hashes strings.


class FieldLoc(tuple):
    """A concrete heap location: a (reference, field) pair."""

    __slots__ = ()
    ref: str = property(itemgetter(1))
    field: str = property(itemgetter(2))

    def __new__(cls, ref: str, field: str):
        return tuple.__new__(cls, (0, ref, field))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self) -> str:
        return f"FieldLoc(ref={self.ref!r}, field={self.field!r})"

    def __str__(self) -> str:
        return f"{self.ref}.{self.field}"


class PredInst(tuple):
    """A predicate-instance resource; the held fraction lives in the mask."""

    __slots__ = ()
    name: str = property(itemgetter(1))
    args: tuple[Value, ...] = property(itemgetter(3))

    def __new__(cls, name: str, args: tuple[Value, ...]):
        return tuple.__new__(cls, (1, name, tuple((value_type(a), a) for a in args), args))

    def __getnewargs__(self):
        return self[1], self[3]

    def __repr__(self) -> str:
        return f"PredInst(name={self.name!r}, args={self.args!r})"

    def __str__(self) -> str:
        return f"{self.name}({', '.join(format_value(a) for a in self.args)})"


class WandInst(tuple):
    """A recorded wand instance, keyed by its closed, printed form."""

    __slots__ = ()
    key: str = property(itemgetter(1))

    def __new__(cls, key: str):
        return tuple.__new__(cls, (2, key))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self) -> str:
        return f"WandInst(key={self.key!r})"

    def __str__(self) -> str:
        return f"wand[{self.key}]"


ResourceId = Union[FieldLoc, PredInst, WandInst]


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
    _subs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.granularity < 1:
            raise UniverseError("granularity must be a positive integer", "granularity")
        if NULL in self.refs:
            raise UniverseError("null is implicit and declares no locations")
        for loc, dom in self.locations.items():
            if loc.ref == NULL:
                raise UniverseError("locations rooted at null are not allowed", loc)
            if loc.ref not in self.refs:
                raise UniverseError(f"location {loc} roots at undeclared reference", loc)
            if not dom:
                raise UniverseError(f"location {loc} has an empty value domain", loc)
            types = {value_type(v) for v in dom}
            if len(types) != 1:
                raise UniverseError(f"location {loc} mixes value types in its domain", loc)
            for v in dom:
                if value_type(v) == REF and v != NULL and v not in self.refs:
                    raise UniverseError(f"location {loc} domain names undeclared reference {v}", loc)
        # Fields must be consistently typed across references so expressions
        # can be typechecked per field; the fault is the first location, in
        # declaration order, that disagrees with an earlier one.
        ftypes: dict[str, str] = {}
        for loc, dom in self.locations.items():
            t = value_type(dom[0])
            if ftypes.setdefault(loc.field, t) != t:
                raise UniverseError(f"field {loc.field} has inconsistent value types", loc)

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

    def sub_universe(self, fields: frozenset, preds: frozenset) -> "Universe":
        """The locations of ``fields`` and the predicates ``preds``: this
        universe if that drops nothing, else one memoised in ``_subs``."""
        if fields >= {loc.field for loc in self.locations} and preds >= self.predicates.keys():
            return self
        sub = self._subs.get((fields, preds))
        if sub is None:
            locs = {loc: d for loc, d in self.locations.items() if loc.field in fields}
            kept = {n: d for n, d in self.predicates.items() if n in preds}
            sub = self._subs[fields, preds] = Universe(self.refs, locs, self.granularity, kept)
        return sub

    def predicate_instances(self) -> list[PredInst]:
        """All predicate-instance resources over non-null reference args."""
        refs = sorted(self.refs)
        return [
            PredInst(name, args)
            for name in sorted(self.predicates)
            for args in itertools.product(refs, repeat=len(self.predicates[name].params))
        ]


def make_universe(
    refs: Iterable[str],
    locations: Mapping[tuple[str, str], Iterable[Value]],
    granularity: int,
    predicates: Mapping[str, PredicateDef] | None = None,
) -> Universe:
    locs = {
        FieldLoc(r, f): tuple(sorted(dom, key=lambda v: (value_type(v), v)))
        for (r, f), dom in locations.items()
    }
    return Universe(
        refs=tuple(sorted(set(refs))),
        locations=locs,
        granularity=granularity,
        predicates=dict(predicates or {}),
    )
