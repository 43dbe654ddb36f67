from fractions import Fraction

import pytest

import wandpack.oracle as orc
import wandpack.states as st
from wandpack.assertions import sat
from wandpack.parser import (
    parse_assertion_text as A,
    parse_expr_text as E,
    parse_state_text as S,
    parse_universe_text,
)
from wandpack.states import EMPTY, BudgetExceeded

from conftest import TINY_TEXT

DISJ_WAND = "acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)"
CHOICE_WAND = "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))"
HALF = Fraction(1, 2)


# -- sat_states ----------------------------------------------------------------


def test_sat_states_full_permission(u1, store1):
    p = orc.plan(u1)
    from wandpack.universe import FieldLoc

    out = orc.sat_states(A("acc(x.f)"), p, store1)
    assert out and all(s.mask_of(FieldLoc("x", "f")) == 1 for s in out)


def test_sat_states_minimal_filter_two_cases(u1, store1):
    p = orc.plan(u1, stable_only=True)
    sats = orc.sat_states(A("acc(x.f) * (x.f == y || x.f == z)"), p, store1)
    assert st.minimal_elements(sats) == [S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")]


def test_sat_states_false_empty(u1, store1):
    assert orc.sat_states(A("false"), orc.plan(u1), store1) == []


def test_budget_enforced():
    # the bound is fixed at 10^6 states; this universe has 405^4 stable
    # ones, so the count refuses it before any state is enumerated
    big = parse_universe_text(
        """
        universe v1
        granularity 100
        refs x, y
        loc x.f: int {0, 1, 2, 3}
        loc x.g: int {0, 1, 2, 3}
        loc y.f: int {0, 1, 2, 3}
        loc y.g: int {0, 1, 2, 3}
        """
    )
    for stable_only in (False, True):
        with pytest.raises(BudgetExceeded):
            orc.plan(big, stable_only=stable_only).states()


# -- footprints --------------------------------------------------------------------


def test_footprints_of_fractional_wand(u2, store2):
    p = orc.plan(u2)
    w = A("acc(x.f, 1/2) --* acc(x.g)")
    assert orc.is_footprint(S("{x.g @ 1 = 0}"), w, "standard", p, store2)
    assert orc.is_footprint(S("{x.f @ 1 = 0}"), w, "standard", p, store2)
    half_half = S("{x.f @ 1/2 = 0, x.g @ 1/2 = 0}")
    assert not orc.is_footprint(half_half, w, "standard", p, store2)


def test_combinable_footprint_restricts(u2, store2):
    p = orc.plan(u2)
    wc = A("acc(x.f, 1/2) --*c acc(x.g)")
    # the incompatibility footprint no longer works under the restriction
    assert not orc.is_footprint(S("{x.f @ 1 = 0}"), wc, "combinable", p, store2)
    assert orc.is_footprint(S("{x.g @ 1 = 0}"), wc, "combinable", p, store2)


def test_is_footprint_requires_stable(u2, store2):
    with pytest.raises(ValueError):
        orc.is_footprint(S("{x.f @ 0 = 0}"), A(CHOICE_WAND), "standard", orc.plan(u2), store2)


def test_minimal_footprints_s31(u2, store2):
    fps = orc.minimal_footprints(A(CHOICE_WAND), "standard", orc.plan(u2), store2, compatible_with_lhs=True)
    assert S("{x.f @ 1 = 0}") in fps
    assert S("{x.b @ 1/2 = false}") in fps


def test_minimal_footprints_trivial_wand(u2, store2):
    fps = orc.minimal_footprints(A("acc(x.f, 1/2) --* acc(x.f, 1/2)"), "standard", orc.plan(u2), store2)
    assert fps == [EMPTY]


def test_minimal_footprints_disjunctive_wand(u1, store1):
    fps = orc.minimal_footprints(A(DISJ_WAND), "standard", orc.plan(u1), store1, compatible_with_lhs=True)
    assert fps == [S("{y.g @ 1 = 0, z.g @ 1 = 0}")]
    # without the compatibility filter, LHS-falsifying footprints appear
    all_fps = orc.minimal_footprints(A(DISJ_WAND), "standard", orc.plan(u1), store1)
    assert any(s.mask_of(list(dict(s.mask))[0]) and "x.f" in str(s) for s in all_fps)


# -- combinability ------------------------------------------------------------------


def test_acc_is_combinable(u2, store2):
    ok, _ = orc.check_combinable(A("acc(x.f)"), orc.plan(u2), store2)
    assert ok


def test_disjunction_not_combinable(u2, store2):
    ok, cex = orc.check_combinable(A("acc(x.f) || acc(x.g)"), orc.plan(u2), store2)
    assert not ok
    fp, fq, sigma = cex
    # the half-half state satisfies the split but not the whole
    assert sigma.mask_of(list(dict(sigma.mask))[0]) == HALF


def test_guard_dependent_wand_not_combinable(u1, store1):
    p = orc.plan(u1)
    wprime = A("acc(x.f) * (x.f == y || x.f == z) * acc(x.f.g, 1/2) --* acc(y.g)")
    assert orc.check_entailment(A("acc(y.g)"), wprime, p, store1)
    assert orc.check_entailment(A("acc(y.g, 1/2) * acc(z.g)"), wprime, p, store1)
    s1, s2 = S("{y.g @ 1 = 0}"), S("{y.g @ 1/2 = 0, z.g @ 1 = 0}")
    half_half = st.add(st.mult(HALF, s1), st.mult(HALF, s2))
    assert not orc.is_footprint(half_half, wprime, "standard", p, store1)
    ok, cex = orc.check_combinable(wprime, p, store1)
    assert not ok and cex[0] == HALF and cex[1] == HALF


# -- entailment and purity -------------------------------------------------------------


def test_entailment_recombination(u2, store2):
    p = orc.plan(u2)
    assert orc.check_entailment(A("acc(x.f, 1/2) * acc(x.f, 1/2)"), A("acc(x.f, 1)"), p, store2)
    assert orc.check_entailment(A("acc(x.f)"), A("acc(x.f)"), p, store2)
    assert not orc.check_entailment(A("acc(x.f, 1/2)"), A("acc(x.f)"), p, store2)


def test_combinable_wand_entails_standard(u2, store2):
    p = orc.plan(u2)
    assert orc.check_entailment(A("acc(x.f, 1/2) --*c acc(x.g)"), A("acc(x.f, 1/2) --* acc(x.g)"), p, store2)


def test_mono_pure(u2, store2):
    from wandpack.universe import FieldLoc

    p = orc.plan(u2)
    # expression predicates are monotone by construction (unframed reads
    # are false and heap values never change under pure addition)
    assert orc.check_mono_pure(E("x.b == true"), p, store2)
    assert orc.check_mono_pure(E("x.f == 0"), p, store2)
    assert orc.check_mono_pure(E("!(x.b == true)"), p, store2)
    # the check is not vacuous: a predicate reading absence as truth fails
    bad = lambda s: s.heap_value(FieldLoc("x", "b")) is None
    assert not orc.check_mono_pure(bad, p, store2)


def test_binary_assertions(u2, store2):
    p = orc.plan(u2)
    assert orc.is_binary(A("acc(x.f)"), p, store2)
    assert not orc.is_binary(A("acc(x.f, 1/2)"), p, store2)
    assert orc.is_binary(A("acc(x.f) * acc(x.g)"), p, store2)


# -- quantification domain cross-check ---------------------------------------------------


def test_stable_quantification_equals_full(store1):
    # for well-formed wands, footprint validity over stable LHS states
    # equals validity over all valid LHS states
    tiny = parse_universe_text(TINY_TEXT)
    store = {"x": "x"}
    w = A("acc(x.f, 1/2) --* acc(x.g)")
    p = orc.plan(tiny)
    all_states = list(st.enumerate_states(tiny))
    stable_states = [s for s in all_states if st.is_stable(s)]
    for cand in stable_states:
        via_stable = orc.is_footprint(cand, w, "standard", p, store)
        lhs_all = [s for s in all_states if sat(tiny, s, w.lhs, store)]
        via_all = all(
            sat(tiny, comb, w.rhs, store)
            for s in lhs_all
            for comb in [st.add(s, cand)]
            if comb is not None
        )
        assert via_stable == via_all


def test_oracle_engine_agreement(u2, store2):
    # dual implementation cross-check: structural satisfaction against the
    # demand-cover reading, over every enumerated state
    from wandpack.assertions import demands
    from wandpack.exprs import Unframed

    a = A("acc(x.b, 1/2) * (x.b ==> acc(x.f))")
    for sigma in orc.plan(u2).states():
        want = sat(u2, sigma, a, store2)
        try:
            ds = demands(u2, a, sigma.heap_dict(), store2)
            got = any(st.geq(sigma, d) for d in ds)
        except Unframed:
            got = False
        assert want == got
