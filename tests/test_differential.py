"""Exhaustive differential checks on a tiny universe.

Unlike the seeded random sweeps, this enumerates *every* well-formed wand
over a small atom pool and packages it in several outer states; each
success must be an oracle-valid footprint, and the restricted wand must
entail the standard one.  Small enough to run on every test invocation.

The witness-set checks compare the demand-built minimal LHS states with
the enumeration they replace: the minimal elements of every enumerated
stable state satisfying the LHS.  The per-case baseline's LHS cases are
compared with the separate interpreter that built them before they came
from the same demand walk.  The walkers built on the generic child
traversal are compared with the hand-written recursions they replaced.
``sat`` and ``oracle.desugar_state`` are compared with the copies they
replaced, which read predicate instances and stars and forked predicate
bodies with code of their own.
"""

import itertools
import random
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest

import wandpack.assertions as asr
import wandpack.exprs as ex
import wandpack.oracle as orc
import wandpack.states as st
from wandpack.algorithms import package_combinable, package_sound
from wandpack.assertions import (
    FRESH_FORK,
    Acc,
    Assertion,
    AssertionError_,
    Imp,
    OrA,
    PredA,
    Pure,
    Star,
    Wand,
    _expr_path,
    contains_wand,
    demands,
    lhs_cases,
    lhs_states,
    minimal_lhs_states,
    sat,
    wf,
)
from wandpack.exprs import (
    BoolOp,
    Eq,
    Expr,
    ExprError,
    FieldAcc,
    Ite,
    Lit,
    Not,
    PermOf,
    Store,
    Unframed,
    Var,
    eval_bool,
)
from wandpack.oracle import EnumerationPlan
from wandpack.states import EMPTY, State, state_key
from wandpack.package_logic import init_witness_set
from wandpack.parser import parse_assertion_text, parse_state_text, parse_universe_text
from wandpack.universe import NULL, FieldLoc, PredInst, Universe, UniverseError

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
    expected = enumerated_minimal(u, a, store)
    assert minimal_lhs_states(u, a, store) == expected, a
    pairs = init_witness_set(a, u, True, store, combinable=True)
    assert [p.sigma_a for p in pairs] == expected, a
    assert all(p.anchor == p.sigma_a for p in pairs)


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
    monkeypatch.setattr(assertions, "_KEYS", {})
    monkeypatch.setattr(assertions, "_CHECKS", {})
    pairs = init_witness_set(a, U, True, STORE)
    assert calls
    assert [p.sigma_a for p in pairs] == expected


@pytest.mark.parametrize("with_predicate", [False, True])
def test_wand_lhs_witness_sets_match_the_whole_universe(with_predicate):
    # a wand LHS enumerates the sub-universe it reaches; with every
    # projection the identity, the same call enumerates the whole universe
    rng = random.Random(3301 + with_predicate)
    checked = 0
    while checked < 40:
        u = random_universe(rng, with_predicate=with_predicate)
        store = identity_store(u)
        w = random_wand(rng, u, combinable=rng.random() < 0.5)
        a, _ = random_assertion(rng, u, 1)
        lhs = rng.choice([w, Star(a, w), OrA(a, w)])
        if not wf(lhs):
            continue
        reached = [p.sigma_a for p in init_witness_set(lhs, u, True, store)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Universe, "sub_universe", lambda self, fields, preds: self)
            assert reached == enumerated_minimal(u, lhs, store), lhs
        checked += 1


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


def sat_fraction(sigma: State, a: Assertion, frac: Fraction, p: EnumerationPlan, store: Store = {}) -> bool:
    """sigma satisfies a fraction ``frac`` of the assertion.

    Decided exactly by inverting the scaling (masks divide exactly with
    rational arithmetic), so it works for states off the enumeration
    lattice too.
    """
    whole = st.mult(Fraction(1) / frac, sigma) if frac != 1 else sigma
    return whole is not None and sat(p.universe, whole, a, store)


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
                        memo[key] = sat_fraction(combined, a, fp + fq, p, store)
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
# split 1/3 + 2/3, where both orders of the split states are swept;
# at granularity 4, 1/4 + 3/4 and 1/2 + 1/2 share the total 1
@pytest.mark.parametrize(
    "with_predicate,granularity,count", [(False, 2, 90), (True, 2, 30), (False, 3, 15), (False, 4, 15)]
)
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


QUARTERS = parse_universe_text(
    "universe v1\ngranularity 4\nrefs x\nloc x.f: int {0, 1}\nloc x.g: int {0}\n"
)
CELLS = parse_universe_text(
    "universe v1\ngranularity 2\nrefs x\nloc x.f: int {0, 1}\nloc x.g: bool\npred Cell(r) = acc(r.f)\n"
)


@pytest.mark.parametrize(
    "u, text, combinable",
    [
        # several splits share a total
        (QUARTERS, "acc(x.f) || acc(x.g)", False),
        (QUARTERS, "acc(x.f, 1/4) * acc(x.g, 3/4) || acc(x.f, 1/2) * acc(x.g, 1/2)", False),
        (QUARTERS, "acc(x.f, 1/2)", True),
        # full amounts: a 1/4 + 3/4 sum holds exactly 1, the most any sum can
        (QUARTERS, "acc(x.f) * acc(x.g)", True),
        # restricted and standard wands
        (QUARTERS, "acc(x.f, 1/2) --*c acc(x.f) * acc(x.g)", True),
        (QUARTERS, "acc(x.f, 1/2) --* acc(x.f) * acc(x.g)", True),
        (CELLS, "acc(x.g) --*c Cell(x) * acc(x.g)", True),
        # predicate instances
        (CELLS, "Cell(x) || acc(x.g)", False),
        (CELLS, "acc(Cell(x), 1/2) * acc(x.g, 1/2)", True),
        # assertions that reach no resource
        (QUARTERS, "true", True),
        (QUARTERS, "false", True),
        (QUARTERS, "x == x", True),
    ],
)
def test_combinable_sweep_matches_reference_on_chosen_cases(u, text, combinable):
    a = parse_assertion_text(text)
    assert assert_same_combinability(a, orc.plan(u), identity_store(u)) == combinable


def test_combinable_sweep_matches_reference_on_unstable_satisfying_states():
    a = parse_assertion_text("acc(x.f, 1/2) * x.g == 0")
    for u in (QUARTERS, CELLS):
        p, store = orc.plan(u), identity_store(u)
        assert any(not st.is_stable(s) for s in orc.sat_states(a, p, store))
        assert_same_combinability(a, p, store)
    # heap values at zero permission must agree for a pair to combine
    mixed = parse_assertion_text("acc(x.f, 1/2) * (x.g == 0 || x.g == 1) || acc(x.g)")
    wide = parse_universe_text("universe v1\ngranularity 3\nrefs x\nloc x.f: int {0}\nloc x.g: int {0, 1}\n")
    assert not assert_same_combinability(mixed, orc.plan(wide), identity_store(wide))


@pytest.mark.parametrize(
    "u, text",
    [
        (QUARTERS, "acc(x.f, 1/2)"),
        (QUARTERS, "acc(x.f, 1/2) * x.g == 0"),
        (QUARTERS, "acc(x.f, 1/2) --* acc(x.f) * acc(x.g)"),
        (CELLS, "acc(Cell(x), 1/2) * acc(x.g, 1/2)"),
    ],
)
def test_combinable_sweep_runs_sat_once_per_recombination(monkeypatch, u, text):
    """One ``sat`` call per distinct (total, combined state) whose whole
    is not a satisfying state, and none on a satisfying state."""
    a = parse_assertion_text(text)
    p, store = orc.plan(u), identity_store(u)
    sats = orc.sat_states(a, p, store)
    fracs = [f for f in u.fraction_lattice() if f > 0]
    recombinations = {
        (fp + fq, c)
        for fp, fq in itertools.product(fracs, repeat=2)
        if fp + fq <= 1
        for s1, s2 in itertools.product(sats, repeat=2)
        if (c := st.add(st.mult(fp, s1), st.mult(fq, s2))) is not None
    }
    wholes = [st.mult(1 / total, c) for total, c in recombinations]
    expected = Counter(w for w in wholes if w not in set(sats))
    assert expected and len(expected) < len(wholes)
    calls = Counter()

    def counted_sat(u_, sigma, a_, store_):
        calls[sigma] += 1
        return sat(u_, sigma, a_, store_)

    monkeypatch.setattr(orc, "sat_states", lambda *_: sats)
    monkeypatch.setattr(orc, "sat", counted_sat)
    assert orc.check_combinable(a, p, store) == (True, None)
    assert calls == expected


@pytest.mark.parametrize("entries", [1, 5, 64, st.BLOCK_ENTRIES])
@pytest.mark.parametrize("upper", [False, True])
def test_agreeing_pairs_come_in_sweep_order_in_bounded_blocks(monkeypatch, entries, upper):
    V = np.random.default_rng(7).integers(0, 3, size=(40, 3))
    monkeypatch.setattr(st, "BLOCK_ENTRIES", entries)
    got = []
    for js, ls in orc._agreeing_pairs(V, upper):
        assert len(js) * V.shape[1] <= max(entries, V.shape[1])
        got += zip(js.tolist(), ls.tolist())
    want = [
        (j, l)
        for j in range(len(V))
        for l in range(j if upper else 0, len(V))
        if all(a == b or not a or not b for a, b in zip(V[j], V[l]))
    ]
    assert got == want


@pytest.mark.parametrize("entries", [1, 7])
def test_combinable_sweep_in_small_blocks_matches_reference(monkeypatch, entries):
    monkeypatch.setattr(st, "BLOCK_ENTRIES", entries)
    for u, text in [
        (QUARTERS, "acc(x.f) || acc(x.g)"),
        (QUARTERS, "acc(x.f, 1/2) --* acc(x.f) * acc(x.g)"),
        (CELLS, "Cell(x) || acc(x.g)"),
    ]:
        assert_same_combinability(parse_assertion_text(text), orc.plan(u), identity_store(u))


# -- the syntax-tree traversal ----------------------------------------------------------
# The nine structural recursions that ``exprs.children`` and
# ``exprs.map_children`` replaced, verbatim, as references.  They keep their
# names; the code under test is reached through its modules (``ex``, ``asr``).


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Lit):
        return set()
    if isinstance(e, (FieldAcc, PermOf)):
        return free_vars(e.base)
    if isinstance(e, Eq):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Not):
        return free_vars(e.arg)
    if isinstance(e, BoolOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Ite):
        return free_vars(e.cond) | free_vars(e.then) | free_vars(e.other)
    raise ExprError(f"unknown expression node {e!r}")


def substitute(e: Expr, binding: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Var):
        return binding.get(e.name, e)
    if isinstance(e, Lit):
        return e
    if isinstance(e, FieldAcc):
        return FieldAcc(substitute(e.base, binding), e.field)
    if isinstance(e, PermOf):
        return PermOf(substitute(e.base, binding), e.field)
    if isinstance(e, Eq):
        return Eq(substitute(e.left, binding), substitute(e.right, binding))
    if isinstance(e, Not):
        return Not(substitute(e.arg, binding))
    if isinstance(e, BoolOp):
        return BoolOp(e.op, substitute(e.left, binding), substitute(e.right, binding))
    if isinstance(e, Ite):
        return Ite(
            substitute(e.cond, binding),
            substitute(e.then, binding),
            substitute(e.other, binding),
        )
    raise ExprError(f"unknown expression node {e!r}")


def contains_perm(e: Expr) -> bool:
    if isinstance(e, PermOf):
        return True
    if isinstance(e, (Var, Lit)):
        return False
    if isinstance(e, FieldAcc):
        return contains_perm(e.base)
    if isinstance(e, Eq):
        return contains_perm(e.left) or contains_perm(e.right)
    if isinstance(e, Not):
        return contains_perm(e.arg)
    if isinstance(e, BoolOp):
        return contains_perm(e.left) or contains_perm(e.right)
    if isinstance(e, Ite):
        return any(contains_perm(x) for x in (e.cond, e.then, e.other))
    return False


def assertion_free_vars(a: Assertion) -> set[str]:
    if isinstance(a, Pure):
        return free_vars(a.expr)
    if isinstance(a, Acc):
        return free_vars(a.ref_expr)
    if isinstance(a, PredA):
        return set().union(*(free_vars(x) for x in a.args)) if a.args else set()
    if isinstance(a, (Star, OrA)):
        return assertion_free_vars(a.left) | assertion_free_vars(a.right)
    if isinstance(a, Imp):
        return free_vars(a.guard) | assertion_free_vars(a.body)
    if isinstance(a, Wand):
        return assertion_free_vars(a.lhs) | assertion_free_vars(a.rhs)
    raise AssertionError_(f"unknown assertion node {a!r}")


def assertion_substitute(a: Assertion, binding: Mapping[str, Expr]) -> Assertion:
    if isinstance(a, Pure):
        return Pure(substitute(a.expr, binding))
    if isinstance(a, Acc):
        return Acc(substitute(a.ref_expr, binding), a.field, a.amount)
    if isinstance(a, PredA):
        return PredA(a.name, tuple(substitute(x, binding) for x in a.args), a.frac)
    if isinstance(a, Star):
        return Star(assertion_substitute(a.left, binding), assertion_substitute(a.right, binding))
    if isinstance(a, OrA):
        return OrA(assertion_substitute(a.left, binding), assertion_substitute(a.right, binding))
    if isinstance(a, Imp):
        return Imp(substitute(a.guard, binding), assertion_substitute(a.body, binding))
    if isinstance(a, Wand):
        return Wand(assertion_substitute(a.lhs, binding), assertion_substitute(a.rhs, binding), a.combinable)
    raise AssertionError_(f"unknown assertion node {a!r}")


def scale_assertion(a: Assertion, p: Fraction) -> Assertion:
    """Multiply every resource amount through by p (fractional reading)."""
    if p <= 0 or p > 1:
        raise AssertionError_("scale factor must be in (0, 1]")
    if isinstance(a, Pure):
        return a
    if isinstance(a, Acc):
        return Acc(a.ref_expr, a.field, a.amount * p)
    if isinstance(a, PredA):
        return PredA(a.name, a.args, a.frac * p)
    if isinstance(a, Star):
        return Star(scale_assertion(a.left, p), scale_assertion(a.right, p))
    if isinstance(a, OrA):
        return OrA(scale_assertion(a.left, p), scale_assertion(a.right, p))
    if isinstance(a, Imp):
        return Imp(a.guard, scale_assertion(a.body, p))
    if isinstance(a, Wand):
        raise AssertionError_("wand atoms cannot be scaled syntactically")
    raise AssertionError_(f"unknown assertion node {a!r}")


def desugar_predicates(a: Assertion, u: Universe) -> Assertion:
    """Replace predicate atoms by their bodies, fractions multiplied through."""
    if isinstance(a, PredA):
        d = u.predicate(a.name)
        if len(d.params) != len(a.args):
            raise AssertionError_(f"{a.name} expects {len(d.params)} arguments")
        body = assertion_substitute(d.body, dict(zip(d.params, a.args)))
        body = desugar_predicates(body, u)
        return body if a.frac == 1 else scale_assertion(body, a.frac)
    if isinstance(a, Star):
        return Star(desugar_predicates(a.left, u), desugar_predicates(a.right, u))
    if isinstance(a, OrA):
        return OrA(desugar_predicates(a.left, u), desugar_predicates(a.right, u))
    if isinstance(a, Imp):
        return Imp(a.guard, desugar_predicates(a.body, u))
    if isinstance(a, Wand):
        return Wand(desugar_predicates(a.lhs, u), desugar_predicates(a.rhs, u), a.combinable)
    return a


def _expr_framed(e: Expr, framed: frozenset, allow_perm: bool) -> bool:
    from wandpack.exprs import BoolOp, Eq, FieldAcc, Ite, PermOf, Var

    if isinstance(e, (Var, Lit)):
        return True
    if isinstance(e, FieldAcc):
        p = _expr_path(e)
        return p is not None and p in framed and _expr_framed(e.base, framed, allow_perm)
    if isinstance(e, PermOf):
        return allow_perm and _expr_framed(e.base, framed, allow_perm)
    if isinstance(e, Eq):
        return _expr_framed(e.left, framed, allow_perm) and _expr_framed(e.right, framed, allow_perm)
    if isinstance(e, Not):
        return _expr_framed(e.arg, framed, allow_perm)
    if isinstance(e, BoolOp):
        return _expr_framed(e.left, framed, allow_perm) and _expr_framed(e.right, framed, allow_perm)
    if isinstance(e, Ite):
        return all(_expr_framed(x, framed, allow_perm) for x in (e.cond, e.then, e.other))
    return False


def _assertion_contains_perm(a: Assertion) -> bool:
    if isinstance(a, Pure):
        return contains_perm(a.expr)
    if isinstance(a, Acc):
        return contains_perm(a.ref_expr)
    if isinstance(a, PredA):
        return any(contains_perm(x) for x in a.args)
    if isinstance(a, (Star, OrA)):
        return _assertion_contains_perm(a.left) or _assertion_contains_perm(a.right)
    if isinstance(a, Imp):
        return contains_perm(a.guard) or _assertion_contains_perm(a.body)
    if isinstance(a, Wand):
        return _assertion_contains_perm(a.lhs) or _assertion_contains_perm(a.rhs)
    return False


def reference_wf(a) -> bool:
    """``wf`` over the reference ``_expr_framed`` in its perm-rejecting mode,
    the only one ``wf`` has."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asr, "_expr_framed", lambda e, framed: _expr_framed(e, framed, False))
        return wf(a)


NODE_CLASSES = {
    c
    for m in (ex, asr)
    for c in vars(m).values()
    if isinstance(c, type) and is_dataclass(c) and c.__module__ == m.__name__
}
ASSERTION_CLASSES = tuple(c for c in NODE_CLASSES if c.__module__ == asr.__name__)


def sub_node_fields(n):
    """(name, sub-nodes) for each field of ``n`` whose value is a node or a
    tuple of nodes, read from the values, not from the declarations."""
    for f in fields(n):
        v = getattr(n, f.name)
        items = list(v) if type(v) is tuple else [v]
        if items and all(type(x) in NODE_CLASSES for x in items):
            yield f.name, items


def subtrees(n):
    yield n
    for _, items in sub_node_fields(n):
        for x in items:
            yield from subtrees(x)


X, Y = Var("x"), Var("y")
XF = FieldAcc(X, "f")
GUARD = BoolOp("implies", Eq(XF, Y), Not(Eq(PermOf(Y, "g"), Lit(HALF))))
CHOICE = Ite(
    BoolOp("and", Eq(XF, Y), Lit(True)),
    Eq(FieldAcc(Y, "g"), Lit(0)),
    BoolOp("or", Lit(False), Eq(FieldAcc(XF, "g"), Lit(0))),
)
BODY = Star(Acc(X, "f"), Imp(GUARD, OrA(PredA("Pair", (X, XF), HALF), Pure(CHOICE))))
SAMPLES = [
    Wand(Star(Acc(X, "f", HALF), PredA("Cell", (Y,))), Wand(Acc(XF, "g"), BODY, True)),
    Star(Acc(Y, "f"), PredA("Pair", (Y, FieldAcc(Y, "f")))),
    OrA(PredA("Cell", (X, Y)), PredA("Nope", (X,))),  # wrong arity, undeclared
    Imp(Eq(PermOf(X, "f"), Lit(Fraction(1))), Pure(Eq(XF, Lit("y")))),
]
PAIR_U = parse_universe_text(
    """
    universe v1
    granularity 2
    refs x, y
    loc x.f: ref {x, y}
    loc x.g: int {0}
    loc y.f: ref {x, y}
    loc y.g: int {0}
    pred Cell(r) = acc(r.g)
    pred Pair(r, s) = acc(r.f, 1/2) * (r.f == s ==> Cell(s))
    """
)
BINDING = {"x": FieldAcc(Y, "f"), "y": Lit("x")}


def outcome(f, *args):
    try:
        return "value", f(*args)
    except (AssertionError_, UniverseError) as e:
        return "raise", type(e), str(e)


def assert_walkers_agree(root, u):
    """The traversal gives what the walkers it replaced gave, on ``root``
    and on every node below it."""
    acc_paths = {(_expr_path(n.ref_expr), n.field) for n in subtrees(root) if isinstance(n, Acc)}
    framings = (frozenset(), frozenset(p for p in acc_paths if p[0] is not None))
    for n in subtrees(root):
        if isinstance(n, ASSERTION_CLASSES):
            assert ex.free_vars(n) == assertion_free_vars(n)
            assert ex.substitute(n, BINDING) == assertion_substitute(n, BINDING)
            assert ex.contains_perm(n) == _assertion_contains_perm(n)
            assert outcome(asr.scale_assertion, n, HALF) == outcome(scale_assertion, n, HALF)
            assert outcome(asr.desugar_predicates, n, u) == outcome(desugar_predicates, n, u)
            assert wf(n) == reference_wf(n)
        else:
            assert ex.free_vars(n) == free_vars(n)
            assert ex.substitute(n, BINDING) == substitute(n, BINDING)
            assert ex.contains_perm(n) == contains_perm(n)
            for framed in framings:
                assert asr._expr_framed(n, framed) == _expr_framed(n, framed, False)


def test_children_cover_every_sub_node_field():
    nodes = [n for root in SAMPLES for n in subtrees(root)]
    assert {type(n) for n in nodes} == NODE_CLASSES == set(ex.CHILD_FIELDS)
    for n in nodes:
        held = list(sub_node_fields(n))
        assert [name for name, _ in held] == list(ex.CHILD_FIELDS[type(n)])
        assert ex.children(n) == [x for _, items in held for x in items]


def test_traversal_matches_replaced_walkers_on_every_node_class():
    for root in SAMPLES:
        assert_walkers_agree(root, PAIR_U)
    assert ex.free_vars(SAMPLES[0]) == {"x", "y"} and ex.contains_perm(SAMPLES[0])
    assert asr.desugar_predicates(SAMPLES[1], PAIR_U) == parse_assertion_text(
        "acc(y.f) * (acc(y.f, 1/2) * (y.f == y.f ==> acc(y.f.g)))"
    )


@pytest.mark.parametrize("with_predicate", [False, True])
@pytest.mark.parametrize("granularity", [2, 3])
def test_traversal_matches_replaced_walkers_on_generated(with_predicate, granularity):
    rng = random.Random(6089 + 10 * granularity + with_predicate)
    for _ in range(750):
        u = random_universe(rng, with_predicate=with_predicate, granularity=granularity)
        assert_walkers_agree(random_wand(rng, u), u)


# -- sat and desugar_state against the copies they replaced -----------------------------------

# sat as it was when predicate instances and stars had cases of their own:
# an instance read its token's amount from the mask, and a star took the
# antichain of its demands before asking whether sigma lies above one


def reference_sat(u, sigma: State, a: Assertion, store) -> bool:
    try:
        return _reference_sat(u, sigma, a, store)
    except Unframed:
        return False


def _reference_sat(u, sigma: State, a: Assertion, store) -> bool:
    if isinstance(a, Wand):
        return asr.wand_holds(u, sigma, a, store)
    if isinstance(a, OrA):
        return _reference_sat(u, sigma, a.left, store) or _reference_sat(u, sigma, a.right, store)
    heap = sigma.heap_dict()
    mask = sigma.mask_dict()
    if isinstance(a, Pure):
        return eval_bool(a.expr, heap, store, mask)
    if isinstance(a, Acc):
        base = ex.eval_expr(a.ref_expr, heap, store, mask)
        if base == NULL:
            return False  # null carries no locations
        loc = FieldLoc(base, a.field)
        return u.has_location(loc) and sigma.mask_of(loc) >= a.amount
    if isinstance(a, PredA):
        vals = tuple(ex.eval_expr(x, heap, store, mask) for x in a.args)
        return sigma.mask_of(PredInst(a.name, vals)) >= a.frac
    if isinstance(a, Imp):
        if eval_bool(a.guard, heap, store, mask):
            return _reference_sat(u, sigma, a.body, store)
        return True
    if isinstance(a, Star):
        ds = demands(u, a, heap, store, mask)
        return any(st.geq(sigma, d) for d in ds)
    raise AssertionError_(f"unknown assertion node {a!r}")


def test_sat_matches_reference_on_generated():
    rng = random.Random(2208)
    seen = Counter()
    for i in range(80):
        u = random_universe(rng, with_predicate=i % 4 != 3)
        store = identity_store(u)
        pool = [random_assertion(rng, u, rng.choice([1, 2, 3]))[0] for _ in range(6)]
        w = random_wand(rng, u, combinable=i % 2 == 1)
        pool += [w, Star(w, pool[0]), Star(pool[1], OrA(w, pool[2]))]
        states = list(st.enumerate_states(u))
        for a in pool:
            asr.typecheck(a, u, dict.fromkeys(u.refs, "ref"))
            for sigma in rng.sample(states, min(len(states), 40)):
                got = sat(u, sigma, a, store)
                assert got == reference_sat(u, sigma, a, store), (a, sigma)
                seen[type(a).__name__, got] += 1
            seen.update(type(x).__name__ for x in asr.atoms(a))
    # both verdicts of top-level stars, predicate and wand atoms, and
    # predicate atoms below the top
    assert all(seen[kind, v] for kind in ("Star", "PredA", "Wand") for v in (False, True))
    assert seen["PredA"] > 50


def reference_desugar_state(s: State, p: EnumerationPlan) -> list[State]:
    """desugar_state as it was with its own fork-and-add loop."""
    u = p.universe
    base_mask = {rid: amt for rid, amt in s.mask if not isinstance(rid, PredInst)}
    out = [State.make(base_mask, s.heap_dict())]
    for rid, amt in s.mask:
        if not isinstance(rid, PredInst):
            continue
        body = asr.desugar_predicates(PredA(rid.name, tuple(map(Lit, rid.args)), amt), u)
        variants = demands(u, body, {}, {}, fresh="fork")
        out = [
            grown
            for acc in out
            for v in variants
            for grown in [st.add(acc, v)]
            if grown is not None
        ]
    return sorted(set(out), key=state_key)


def assert_same_desugaring(states, p: EnumerationPlan) -> int:
    """The number of states holding a predicate token."""
    tokens = 0
    for s in states:
        assert orc.desugar_state(s, p) == reference_desugar_state(s, p), s
        tokens += any(isinstance(rid, PredInst) for rid, _ in s.mask)
    return tokens


def test_desugar_state_matches_reference_on_every_state_of_preds(corpus_dir):
    p = orc.plan(parse_universe_text((corpus_dir / "preds.universe").read_text()))
    assert assert_same_desugaring(p.states(), p) > 0


def test_desugar_state_matches_reference_on_generated():
    rng = random.Random(2209)
    tokens = 0
    for granularity in (2, 3):
        for _ in range(100):
            p = orc.plan(random_universe(rng, with_predicate=True, granularity=granularity))
            states = p.states()
            tokens += assert_same_desugaring(rng.sample(states, min(len(states), 50)), p)
    assert tokens > 1000
