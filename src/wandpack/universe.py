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
from typing import Iterable, Mapping, Optional, Union

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


# Resource ids are dict and set keys throughout the state algebra, so each
# computes its hash and its ``rid_key`` once, in its constructor.  The hash
# is the one the dataclass would generate (the hash of the tuple of the
# compared fields), so iteration orders do not depend on the caching; the
# cached values are not dataclass fields, so equality, order and ``repr``
# ignore them.  Slots keep the two cached values from costing an instance
# dict.  Pickling and copying rebuild through the constructor: a string's
# hash differs between processes.

_set = object.__setattr__


def _cached_hash(rid) -> int:
    return rid._hash


@dataclass(frozen=True, order=True, init=False)
class FieldLoc:
    """A concrete heap location: a (reference, field) pair."""

    __slots__ = ("ref", "field", "_hash", "_key")
    ref: str
    field: str

    def __init__(self, ref: str, field: str):
        _set(self, "ref", ref)
        _set(self, "field", field)
        _set(self, "_hash", hash((ref, field)))
        _set(self, "_key", (0, ref, field))

    __hash__ = _cached_hash

    def __reduce__(self):
        return FieldLoc, (self.ref, self.field)

    def __str__(self) -> str:
        return f"{self.ref}.{self.field}"


@dataclass(frozen=True, init=False)
class PredInst:
    """A predicate-instance resource; the held fraction lives in the mask."""

    __slots__ = ("name", "args", "_hash", "_key")
    name: str
    args: tuple[Value, ...]

    def __init__(self, name: str, args: tuple[Value, ...]):
        _set(self, "name", name)
        _set(self, "args", args)
        _set(self, "_hash", hash((name, args)))
        _set(self, "_key", (1, name, tuple(value_key(a) for a in args)))

    __hash__ = _cached_hash

    def __reduce__(self):
        return PredInst, (self.name, self.args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(format_value(a) for a in self.args)})"


@dataclass(frozen=True, init=False)
class WandInst:
    """A recorded wand instance, keyed by its closed, printed form."""

    __slots__ = ("key", "_hash", "_key")
    key: str

    def __init__(self, key: str):
        _set(self, "key", key)
        _set(self, "_hash", hash((key,)))
        _set(self, "_key", (2, key))

    __hash__ = _cached_hash

    def __reduce__(self):
        return WandInst, (self.key,)

    def __str__(self) -> str:
        return f"wand[{self.key}]"


ResourceId = Union[FieldLoc, PredInst, WandInst]


def rid_key(rid: ResourceId) -> tuple:
    """Deterministic order: field locations, then predicates, then wands.
    Stored at construction: (0, ref, field), (1, name, the ``value_key``
    of each argument) or (2, key)."""
    return rid._key


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
        FieldLoc(r, f): tuple(sorted(dom, key=value_key))
        for (r, f), dom in locations.items()
    }
    return Universe(
        refs=tuple(sorted(set(refs))),
        locations=locs,
        granularity=granularity,
        predicates=dict(predicates or {}),
    )
