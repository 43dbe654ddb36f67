"""Seeded random generators for the differential sweeps.

Everything is driven by random.Random instances so the acceptance runs
are reproducible; assertions are built well-formed by construction
(dereferences only over locations already guarded by an accessibility
atom to their left).
"""

from fractions import Fraction
import random

from wandpack.assertions import Acc, Imp, OrA, PredA, Pure, Star, Wand, format_assertion
from wandpack.exprs import Eq, FieldAcc, Lit, Var
from wandpack.states import State
from wandpack.universe import FieldLoc, PredicateDef, PredInst, Universe, WandInst, make_universe

HALF = Fraction(1, 2)
ONE = Fraction(1)


def random_universe(rng: random.Random, with_predicate: bool = False, granularity: int = 2) -> Universe:
    nlocs = rng.choice([2, 2, 3])
    fields = ["f", "g", "h"][:nlocs]
    locations = {}
    for f in fields:
        kind = rng.choice(["int", "int", "bool"])
        if kind == "bool":
            locations[("x", f)] = [False, True]
        else:
            locations[("x", f)] = [0, 1] if rng.random() < 0.5 else [0]
    predicates = {}
    if with_predicate:
        fld = rng.choice(fields)
        predicates["Cell"] = PredicateDef("Cell", ("r",), Acc(Var("r"), fld, ONE))
    return make_universe(["x"], locations, granularity, predicates)


def _loc_expr(loc: FieldLoc):
    return Var(loc.ref), loc.field


def _random_value(rng, u: Universe, loc: FieldLoc):
    return rng.choice(list(u.domain(loc)))


def random_assertion(rng: random.Random, u: Universe, depth: int, framed=frozenset(), binary=False):
    """Returns (assertion, locations framed by it)."""
    locs = u.sorted_locations()
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        if u.predicates and rng.random() < 0.25:
            name = rng.choice(sorted(u.predicates))
            frac = ONE if binary or rng.random() < 0.7 else HALF
            return PredA(name, (Var("x"),), frac), frozenset()
        loc = rng.choice(locs)
        base, fld = _loc_expr(loc)
        amount = ONE if binary or rng.random() < 0.6 else HALF
        return Acc(base, fld, amount), frozenset({loc})
    if roll < 0.6 and framed:
        loc = rng.choice(sorted(framed))
        base, fld = _loc_expr(loc)
        return Pure(Eq(FieldAcc(base, fld), Lit(_random_value(rng, u, loc)))), frozenset()
    if roll < 0.8:
        left, f1 = random_assertion(rng, u, depth - 1, framed, binary)
        right, f2 = random_assertion(rng, u, depth - 1, framed | f1, binary)
        return Star(left, right), f1 | f2
    if roll < 0.9 and framed:
        loc = rng.choice(sorted(framed))
        base, fld = _loc_expr(loc)
        guard = Eq(FieldAcc(base, fld), Lit(_random_value(rng, u, loc)))
        body, _ = random_assertion(rng, u, depth - 1, framed, binary)
        return Imp(guard, body), frozenset()
    left, f1 = random_assertion(rng, u, depth - 1, framed, binary)
    right, f2 = random_assertion(rng, u, depth - 1, framed, binary)
    return OrA(left, right), f1 & f2


def random_wand(rng: random.Random, u: Universe, combinable=False, binary_lhs=False) -> Wand:
    lhs, framed = random_assertion(rng, u, rng.choice([0, 1, 2]), binary=binary_lhs)
    rhs, _ = random_assertion(rng, u, rng.choice([1, 2]), framed=framed)
    return Wand(lhs, rhs, combinable)


def random_outer(rng: random.Random, u: Universe) -> State:
    """A random stable state; biased toward rich states so packaging has
    material to extract."""
    mask = {}
    heap = {}
    for loc in u.sorted_locations():
        p = rng.choice([ONE, ONE, ONE, HALF, Fraction(0)])
        if p > 0:
            mask[loc] = p
            heap[loc] = _random_value(rng, u, loc)
    for pid in u.predicate_instances():
        p = rng.choice([Fraction(0), Fraction(0), ONE, HALF])
        if p > 0:
            mask[pid] = p
    return State.make(mask, heap)


ARGS = ["x", "y", "null", 0, 1, 2, 10, True, False]


def random_mixed_state(rng: random.Random, u: Universe) -> State:
    """``random_outer`` plus up to three predicate instances with ref, int
    and bool arguments and, half the time, a wand instance: resources a
    universe need not declare, for tests of order rather than of the
    algebra."""
    outer = random_outer(rng, u)
    mask = outer.mask_dict()
    for _ in range(rng.randint(0, 3)):
        args = tuple(rng.choice(ARGS) for _ in range(rng.randint(0, 2)))
        mask[PredInst(rng.choice(["Cell", "Flag"]), args)] = rng.choice([ONE, HALF])
    if rng.random() < 0.5:
        mask[WandInst(format_assertion(random_wand(rng, u)))] = rng.choice([ONE, HALF])
    heap = {loc: _random_value(rng, u, loc) for loc in u.sorted_locations() if rng.random() < 0.5}
    return State.make(mask, {**heap, **outer.heap_dict()})


def identity_store(u: Universe) -> dict:
    return {r: r for r in u.refs}
