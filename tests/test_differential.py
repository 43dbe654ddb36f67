"""Exhaustive differential checks on a tiny universe.

Unlike the seeded random sweeps, this enumerates *every* well-formed wand
over a small atom pool and packages it in several outer states; each
success must be an oracle-valid footprint, and the restricted wand must
entail the standard one.  Small enough to run on every test invocation.

The witness-set checks compare the demand-built minimal LHS states with
the enumeration they replace: the minimal elements of every enumerated
stable state satisfying the LHS.  The per-case baseline's LHS cases are
compared with the separate interpreter that built them before they came
from the same demand walk.
"""

import itertools
import random
from fractions import Fraction

import pytest

import wandpack.oracle as orc
import wandpack.states as st
from wandpack.algorithms import package_combinable, package_sound
from wandpack.assertions import (
    FRESH_FORK,
    Acc,
    Imp,
    OrA,
    Pure,
    Star,
    Wand,
    contains_wand,
    demands,
    lhs_cases,
    lhs_states,
    minimal_lhs_states,
    wf,
)
from wandpack.exprs import Eq, FieldAcc, Lit, Unframed, Var, eval_bool
from wandpack.states import EMPTY, state_key
from wandpack.package_logic import CombinableR, init_witness_set
from wandpack.parser import parse_assertion_text, parse_state_text, parse_universe_text

from gen import identity_store, random_assertion, random_universe, random_wand

HALF = Fraction(1, 2)

U = parse_universe_text(
    """
    universe v1
    granularity 2
    refs x
    loc x.f: int {0}
    loc x.g: int {0}
    """
)
STORE = {"x": "x"}

ATOMS = [
    Acc(Var("x"), "f", Fraction(1)),
    Acc(Var("x"), "f", HALF),
    Acc(Var("x"), "g", Fraction(1)),
    Pure(Lit(False)),
    Pure(Eq(FieldAcc(Var("x"), "f"), Lit(0))),
]
GUARD = Eq(FieldAcc(Var("x"), "f"), Lit(0))


def _pool():
    pool = list(ATOMS)
    for a, b in itertools.product(ATOMS, repeat=2):
        pool.append(Star(a, b))
        pool.append(OrA(a, b))
    for a in ATOMS:
        pool.append(Imp(GUARD, a))
    return pool


OUTERS = [
    parse_state_text("{x.f @ 1 = 0, x.g @ 1 = 0}"),
    parse_state_text("{x.g @ 1 = 0, x.f @ 1/2 = 0}"),
]


def test_every_small_wand_packages_soundly():
    plan = orc.plan(U)
    pool = _pool()
    runs = successes = 0
    for lhs, rhs in itertools.product(pool, repeat=2):
        w = Wand(lhs, rhs, False)
        if not wf(w):
            continue
        wc = Wand(lhs, rhs, True)
        for outer in OUTERS:
            for kind, fn, ww in (("standard", package_sound, w), ("combinable", package_combinable, wc)):
                runs += 1
                out = fn(outer, ww, (), STORE, U)
                if out.success:
                    successes += 1
                    assert orc.is_footprint(out.footprint, ww, kind, plan, STORE), (
                        kind,
                        ww,
                        outer,
                        out.footprint,
                    )
    assert runs > 3000 and successes > 1000


def test_restricted_wand_entails_standard_exhaustively():
    plan = orc.plan(U)
    pool = _pool()
    checked = 0
    for i, (lhs, rhs) in enumerate(itertools.product(pool, repeat=2)):
        if i % 17:  # stride for runtime; still hundreds of wands
            continue
        w = Wand(lhs, rhs, False)
        if not wf(w):
            continue
        assert orc.check_entailment(Wand(lhs, rhs, True), w, plan, STORE)
        checked += 1
    assert checked > 60


# -- demand-built witness sets ---------------------------------------------------


def enumerated_minimal(u, a, store):
    return st.minimal_elements(lhs_states(u, a, store))


def assert_same_minimal(u, a, store):
    assert minimal_lhs_states(u, a, store) == enumerated_minimal(u, a, store), a
    pairs = init_witness_set(a, u, True, store, combinable=True)
    assert [p.sigma_a for p in pairs] == enumerated_minimal(u, a, store), a
    assert all(p.transformer == CombinableR(p.sigma_a) for p in pairs)


def test_demand_witness_sets_match_enumeration_on_atom_pool():
    pool = [a for a in _pool() if wf(a)]
    pool += [Star(a, b) for a, b in itertools.product(pool, repeat=2)]
    checked = 0
    for a in pool:
        if wf(a):
            assert_same_minimal(U, a, STORE)
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("with_predicate", [False, True])
def test_demand_witness_sets_match_enumeration_on_generated(with_predicate):
    rng = random.Random(2205 + with_predicate)
    checked = 0
    for _ in range(60):
        u = random_universe(rng, with_predicate=with_predicate)
        store = identity_store(u)
        for _ in range(5):
            a, framed = random_assertion(rng, u, rng.choice([0, 1, 2, 3]))
            assert wf(a) and not contains_wand(a)
            assert_same_minimal(u, a, store)
            # a body reading the locations the first conjunct framed
            b, _ = random_assertion(rng, u, 2, framed=framed)
            if wf(Star(a, b)):
                assert_same_minimal(u, Star(a, b), store)
            checked += 1
    assert checked == 300


OFF_LATTICE = parse_universe_text(
    """
    universe v1
    granularity 2
    refs x, y
    loc x.f: int {0, 1}
    loc x.g: ref {x, y, null}
    loc y.f: int {0}
    pred Cell(r) = acc(r.f)
    """
)


@pytest.mark.parametrize(
    "text",
    [
        "acc(x.f, 1/3)",
        "acc(x.f, 1/3) * acc(x.f, 1/3)",
        "acc(x.f, 1/3) * acc(x.f, 2/3)",
        "acc(x.f, 2/3) * acc(x.f, 2/3)",
        "acc(x.f, 1/3) * acc(x.f, 1/2) * x.f == 1",
        "acc(x.f, 1/3) * acc(y.f, 1/3) || acc(x.f, 1/2)",
        "acc(x.f, 1/4) || acc(x.f, 3/4)",
        "acc(x.g, 1/3) * acc(x.g.f, 1/3)",
        "acc(x.g) * (x.g == y ==> acc(x.g.f, 1/5))",
        "acc(Cell(x), 1/3) * acc(x.f, 1/3)",
        "acc(x.g, 1/3) * acc(Cell(x.g), 1/3)",
        "acc(x.g) * Cell(x.g) * Cell(x.g)",
    ],
)
def test_demand_witness_sets_round_off_lattice_amounts(text):
    assert_same_minimal(OFF_LATTICE, parse_assertion_text(text), {"x": "x", "y": "y"})


def test_init_witness_set_never_enumerates_a_wand_free_lhs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_states called")

    monkeypatch.setattr(st, "enumerate_states", refuse)
    a = parse_assertion_text("acc(x.g) * (x.g == y ==> acc(x.g.f, 1/3)) * acc(x.f)")
    pairs = init_witness_set(a, OFF_LATTICE, True, {"x": "x", "y": "y"})
    assert len(pairs) == 6


def test_init_witness_set_enumerates_a_wand_lhs(monkeypatch):
    from wandpack import assertions

    a = parse_assertion_text("acc(x.f, 1/2) || (acc(x.g) --* acc(x.g))")
    expected = enumerated_minimal(U, a, STORE)
    # the demands read the wand atom as a token, satisfaction semantically
    assert minimal_lhs_states(U, a, STORE) != expected
    calls = []
    enumerate_states = st.enumerate_states

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_states(*args, **kwargs)

    monkeypatch.setattr(st, "enumerate_states", spy)
    monkeypatch.setattr(assertions, "_LHS_CACHE", {})
    monkeypatch.setattr(assertions, "_LHS_KEYS", {})
    pairs = init_witness_set(a, U, True, STORE)
    assert calls
    assert [p.sigma_a for p in pairs] == expected


# -- left-hand-side cases of the per-case baseline ------------------------------------


def reference_cons_lhs(states, pc, a, u, store):
    """Construct the minimal states satisfying ``a`` on top of each given
    state: stars chain, implications extend the path condition, pure
    atoms filter, resource atoms add each of their demands (forking over
    the values of locations not yet held), and disjunctions split into
    branch unions."""
    if isinstance(a, Star):
        return reference_cons_lhs(reference_cons_lhs(states, pc, a.left, u, store), pc, a.right, u, store)
    if isinstance(a, Imp):
        return reference_cons_lhs(states, pc + (a.guard,), a.body, u, store)
    if isinstance(a, OrA):
        both = reference_cons_lhs(states, pc, a.left, u, store) + reference_cons_lhs(states, pc, a.right, u, store)
        return sorted(set(both), key=state_key)
    out = []
    for s in states:
        heap = s.heap_dict()
        try:
            if not all(eval_bool(g, heap, store) for g in pc):
                out.append(s)
                continue
            if isinstance(a, Pure):
                if eval_bool(a.expr, heap, store):
                    out.append(s)
                continue
            ds = demands(u, a, heap, store, fresh=FRESH_FORK)
        except Unframed:
            continue
        out.extend(g for d in ds if (g := st.add(s, d)) is not None)
    return sorted(set(out), key=state_key)


@pytest.mark.parametrize("granularity", [2, 3])
def test_lhs_cases_match_reference_on_generated(granularity):
    rng = random.Random(4711 + granularity)
    compared = differences = 0
    for i in range(150):
        u = random_universe(rng, with_predicate=i % 3 == 0, granularity=granularity)
        store = identity_store(u)
        a, framed = random_assertion(rng, u, rng.choice([0, 1, 2, 3]))
        b, _ = random_assertion(rng, u, 2, framed=framed)
        for lhs in (a, Star(a, b)):
            if wf(lhs):
                differences += lhs_cases(u, lhs, store) != reference_cons_lhs([EMPTY], (), lhs, u, store)
                compared += 1
    assert compared > 250 and differences == 0


def test_lhs_cases_of_a_non_self_framing_lhs_are_empty():
    # the reference dropped only the branch that read x.g unframed
    a = parse_assertion_text("acc(x.f) || x.g == 0")
    assert not wf(a)
    assert reference_cons_lhs([EMPTY], (), a, U, STORE) == [parse_state_text("{x.f @ 1 = 0}")]
    assert lhs_cases(U, a, STORE) == []


# -- the combinability sweep ----------------------------------------------------------


def reference_check_combinable(a, p, store):
    """The full (fp, fq, s1, s2) sweep that ``check_combinable`` halves:
    every ordered split and every ordered pair of satisfying states."""
    fracs = [f for f in p.universe.fraction_lattice() if f > 0]
    sats = orc.sat_states(a, p, store)
    memo = {}
    for fp in fracs:
        for fq in fracs:
            if fp + fq > 1:
                continue
            for s1 in sats:
                left = st.mult(fp, s1)
                if left is None:
                    continue
                for s2 in sats:
                    right = st.mult(fq, s2)
                    if right is None:
                        continue
                    combined = st.add(left, right)
                    if combined is None:
                        continue
                    key = (combined, fp + fq)
                    if key not in memo:
                        memo[key] = orc.sat_fraction(combined, a, fp + fq, p, store)
                    if not memo[key]:
                        return False, (fp, fq, combined)
    return True, None


def assert_same_combinability(a, p, store) -> bool:
    got = orc.check_combinable(a, p, store)
    assert got == reference_check_combinable(a, p, store), a
    return got[0]


def test_combinable_sweep_matches_reference_on_known_cases(u1, u2, store1, store2):
    assert not assert_same_combinability(parse_assertion_text("acc(x.f) || acc(x.g)"), orc.plan(u2), store2)
    guard_dependent = parse_assertion_text(
        "acc(x.f) * (x.f == y || x.f == z) * acc(x.f.g, 1/2) --* acc(y.g)"
    )
    assert not assert_same_combinability(guard_dependent, orc.plan(u1), store1)
    # every equal split recombines; only 1/3 + 2/3, with the larger part
    # taken from the state that sorts first, does not
    thirds = parse_universe_text(
        "universe v1\ngranularity 3\nrefs x\nloc x.f: int {0}\nloc x.g: int {0}\n"
    )
    unequal = parse_assertion_text("acc(x.f, 1/6) * acc(x.g, 2/3) || acc(x.f, 1/2) * acc(x.g, 1/3)")
    assert not assert_same_combinability(unequal, orc.plan(thirds), STORE)
    assert orc.check_combinable(unequal, orc.plan(thirds), STORE)[1][:2] == (Fraction(1, 3), Fraction(2, 3))


# granularity 2 splits only into halves; granularity 3 adds the unequal
# split 1/3 + 2/3, where both orders of the split states are swept
@pytest.mark.parametrize("with_predicate,granularity,count", [(False, 2, 90), (True, 2, 30), (False, 3, 15)])
def test_combinable_sweep_matches_reference_on_generated(with_predicate, granularity, count):
    rng = random.Random(3407 + 10 * granularity + with_predicate)
    queries = refuted = 0
    while queries < count:
        u = random_universe(rng, with_predicate=with_predicate, granularity=granularity)
        if len(u.locations) != 2:
            continue
        store = identity_store(u)
        w = random_wand(rng, u)
        p = orc.plan(u)
        for a in (w.rhs, Wand(w.lhs, w.rhs, True), w):
            refuted += not assert_same_combinability(a, p, store)
            queries += 1
    assert refuted > 0
