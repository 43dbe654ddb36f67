"""The oracle over the sub-universe a query reaches, against the whole universe.

Every oracle entry point quantifies over ``assertions.reach`` of its
assertions.  Patching ``Universe.sub_universe`` to the identity gives back
the enumeration over the whole universe, so each query of a seeded
``tests/gen.py`` stream runs both ways here and must give the same
answers: the same verdicts and minimal footprints, and combinability
counterexamples with the same split that are real counterexamples of the
whole universe, equal to the full sweep's wherever that one lies inside
the sub-universe.
"""

import random

import pytest

import wandpack.oracle as orc
import wandpack.states as st
from wandpack.assertions import Wand, reach, sat
from wandpack.parser import parse_assertion_text, parse_universe_text
from wandpack.universe import FieldLoc, Universe

import gen


def whole(fn, *args, **kw):
    """``fn`` with every projection the identity: the full enumeration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Universe, "sub_universe", lambda self, fields, preds: self)
        return fn(*args, **kw)


def both(fn, *args, **kw):
    return fn(*args, **kw), whole(fn, *args, **kw)


def inside(s, r: Universe) -> bool:
    """Does ``s`` hold locations and predicate instances of ``r`` alone?"""
    declared = set(r.predicate_instances())
    return all(
        r.has_location(rid) if isinstance(rid, FieldLoc) else rid in declared for rid, _ in s.mask
    ) and all(r.has_location(loc) for loc, _ in s.heap)


def draws(seed: int, count: int, nlocs=(2, 3)):
    rng = random.Random(seed)
    made = 0
    while made < count:
        u = gen.random_universe(rng, with_predicate=made % 3 == 0)
        w = gen.random_wand(rng, u, combinable=made % 2 == 1, binary_lhs=made % 4 == 0)
        if len(u.locations) in nlocs:
            made += 1
            yield rng, u, gen.identity_store(u), w


NAMES = parse_universe_text(
    """
    universe v1
    granularity 2
    refs x, y
    loc x.f: ref {x, y, null}
    loc x.g: int {0}
    loc y.g: int {0}
    loc y.h: int {0}
    loc y.k: int {0}
    pred Cell(r) = acc(r.g)
    pred Pair(r) = Cell(r) * acc(r.h)
    """
)


@pytest.mark.parametrize(
    "text, locations, predicates",
    [
        ("perm(y.h) == 1/2", ["y.h"], []),
        ("y.k == 0", ["y.k"], []),
        ("acc(x.f) * acc(x.f.g)", ["x.f", "x.g", "y.g"], []),
        ("acc(x.f) --* x.f == y", ["x.f"], []),
        ("acc(y.k) * Cell(x)", ["x.g", "y.g", "y.k"], ["Cell"]),
        ("Pair(y)", ["x.g", "y.g", "y.h"], ["Cell", "Pair"]),
    ],
)
def test_reach_keeps_every_field_and_predicate_named(text, locations, predicates):
    # fields at every reference; predicates through their bodies
    r = reach(NAMES, parse_assertion_text(text))
    assert [str(loc) for loc in r.sorted_locations()] == locations
    assert sorted(r.predicates) == predicates
    assert (r.refs, r.granularity) == (NAMES.refs, NAMES.granularity)


def test_reach_of_everything_is_the_universe_itself():
    # so the query shares the universe's cached left-hand-side pools
    assert reach(NAMES, parse_assertion_text("acc(x.f) * acc(y.k) * Pair(x)")) is NAMES


def test_footprint_queries_match_the_full_enumeration():
    narrowed = 0
    for i, (rng, u, store, w) in enumerate(draws(11, 24)):
        plan, stable = orc.plan(u), orc.plan(u, stable_only=True)
        narrowed += len(reach(u, w).locations) < len(u.locations)
        for a in (w.lhs, w.rhs):
            for p in (plan, stable):
                got, full = both(orc.sat_states, a, p, store)
                assert got == [s for s in full if inside(s, reach(u, a))]
        candidates = [gen.random_outer(rng, u) for _ in range(4)]
        for kind in (orc.STANDARD, orc.COMBINABLE):
            got, full = both(orc.minimal_footprints, w, kind, plan, store, i % 2 == 1)
            assert got == full, (w, kind)
            candidates += got
        for fp in candidates:
            for kind in (orc.STANDARD, orc.COMBINABLE):
                assert len({*both(orc.is_footprint, fp, w, kind, plan, store)}) == 1
                assert len({*both(orc.audit_footprint, fp, w, kind, plan, store)}) == 1
    assert narrowed >= 10


def split_exists(sigma, fp, fq, sats) -> bool:
    return any(st.add(st.mult(fp, s1), st.mult(fq, s2)) == sigma for s1 in sats for s2 in sats)


def test_combinability_entailment_and_binarity_match_the_full_enumeration():
    refuted = inside_full = 0
    for i, (rng, u, store, w) in enumerate(draws(16, 30, nlocs=(2,))):
        plan = orc.plan(u)
        wc = Wand(w.lhs, w.rhs, True)
        for a, b in ((wc, w), (w.lhs, w.rhs))[i % 2 :]:
            assert len({*both(orc.check_entailment, a, b, plan, store)}) == 1
        for a in (w.lhs, w.rhs):
            assert len({*both(orc.is_binary, a, plan, store)}) == 1
        deep, _ = gen.random_assertion(rng, u, 3)
        for a in (w.lhs, w.rhs, deep) + ((wc,) if i % 10 == 0 else ()):
            (ok, cex), (full_ok, full_cex) = both(orc.check_combinable, a, plan, store)
            assert ok == full_ok, a
            if ok:
                continue
            refuted += 1
            fp, fq, sigma = cex
            assert (fp, fq) == full_cex[:2]
            r = reach(u, a)
            assert inside(sigma, r)
            # a real counterexample of the whole universe: a split of two
            # satisfying states whose sum does not recombine
            assert split_exists(sigma, fp, fq, whole(orc.sat_states, a, plan, store))
            recombined = st.mult(1 / (fp + fq), sigma)
            assert recombined is None or not sat(u, recombined, a, store)
            if inside(full_cex[2], r):
                inside_full += 1
                assert cex == full_cex
    # both kinds occur: full counterexamples inside the sub-universe and beyond it
    assert refuted > inside_full >= 1
