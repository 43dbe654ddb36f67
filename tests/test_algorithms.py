import hashlib
import random
from fractions import Fraction

import pytest

import wandpack.oracle as orc
import wandpack.package_logic as pl
import wandpack.states as st
from wandpack.algorithms import (
    COMBINABLE,
    FIA,
    SOUND,
    PackageFailure,
    lhs_cases,
    package_combinable,
    package_fia,
    package_sound,
    prove_rhs,
    recheck_package,
    run_script,
)
from wandpack.assertions import Acc, Star, Wand, wand_key
from wandpack.exprs import Eq, FieldAcc, Lit, Var
from wandpack.package_logic import (
    Configuration,
    Context,
    DAtom,
    DExtract,
    DStar,
    WitnessPair,
    check_derivation,
    extract_footprint,
    init_witness_set,
    initial_configuration,
)
from wandpack.parser import (
    parse_assertion_text as A,
    parse_program_text,
    parse_script_text,
    parse_state_text as S,
    parse_universe_text,
)
from wandpack.program import Apply, AssertStmt, Fold, If
from wandpack.serialization import derivation_to_json, dumps_canonical, state_to_json
from wandpack.states import EMPTY
from wandpack.universe import FieldLoc

from conftest import CORPUS

DISJ_WAND = "acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)"
CHOICE_WAND = "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))"
OUTER_FULL = "{x.f @ 1 = y, y.g @ 1 = 0, z.g @ 1 = 0}"


def staged_outers(outer, wand, script, store, u, fia=False):
    """The outer state each run of a package leaves, run in stages:
    ``init_witness_set``, then ``run_script``, then ``prove_rhs``.  Under
    ``fia`` each left-hand-side case runs alone, as a one-pair witness set.
    Raises PackageFailure where the packager fails."""
    if fia:
        starts = [Context.make(outer, [WitnessPair(case, EMPTY)]) for case in lhs_cases(u, wand.lhs, store)]
    else:
        starts = [Context.make(outer, init_witness_set(wand.lhs, u, True, store, combinable=wand.combinable))]
    outers = []
    for ctx in starts:
        ctx, _, _ = run_script(ctx, script, store, u)
        ctx, _ = prove_rhs(ctx, (), wand.rhs, u, store)
        if fia and not ctx.pairs:
            raise PackageFailure("the case state cannot absorb what the case took")
        outers.append(ctx.outer)
    return outers


# -- consLHS ---------------------------------------------------------------------


def test_cons_lhs_disjunctive(u1, store1):
    out = lhs_cases(u1, A("acc(x.f) * (x.f == y || x.f == z)"), store1)
    assert len(out) == 2
    # each case owns exactly x.f, in full, and holds no other value
    assert all(s.mask == ((FieldLoc("x", "f"), Fraction(1)),) for s in out)
    assert all(len(s.heap) == 1 for s in out)
    assert {s.heap_value(FieldLoc("x", "f")) for s in out} == {"y", "z"}


def test_cons_lhs_pure_filter(u1, store1):
    out = lhs_cases(u1, A("acc(x.f) * x.f == y"), store1)
    # the pure conjunct keeps exactly the case in which x.f = y
    assert out == [S("{x.f @ 1 = y}")]


def test_cons_lhs_fractional(u2, store2):
    out = lhs_cases(u2, A("acc(x.b, 1/2)"), store2)
    assert len(out) == 2  # one per x.b value, half permission each
    assert {s.heap_value(list(s.heap_dict())[0]) for s in out} == {False, True}
    for s in out:
        (amt,) = [a for rid, a in s.mask]
        assert amt == Fraction(1, 2)


def test_cons_lhs_cross_check_with_enumeration(u2, store2):
    # every constructed state satisfies the assertion
    a = A("acc(x.b, 1/2)")
    out = lhs_cases(u2, a, store2)
    from wandpack.assertions import sat

    for s in out:
        assert sat(u2, s, a, store2)


# -- proveRHS ----------------------------------------------------------------------


def test_prove_rhs_extracts_both_branch_needs(u1, store1):
    wand = A(DISJ_WAND)
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    ctx = Context.make(S(OUTER_FULL), pairs)
    final, deriv = prove_rhs(ctx, (), wand.rhs, u1, store1)
    assert extract_footprint(S(OUTER_FULL), final.outer) == S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    # first conjunct from the LHS, second via one extraction
    assert isinstance(deriv, DStar)
    assert isinstance(deriv.left, DAtom)
    assert isinstance(deriv.right, DExtract)


def test_prove_rhs_covered_by_lhs_no_extract(u1, store1):
    wand = A("acc(x.f) --* acc(x.f)")
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    ctx = Context.make(S(OUTER_FULL), pairs)
    final, deriv = prove_rhs(ctx, (), wand.rhs, u1, store1)
    assert final.outer == S(OUTER_FULL)
    assert isinstance(deriv, DAtom)


def test_prove_rhs_default_strategy_takes_xf(u2, store2):
    wand = A(CHOICE_WAND)
    outer = S("{x.b @ 1 = false, x.f @ 1 = 0}")
    pairs = init_witness_set(wand.lhs, u2, True, store2)
    final, deriv = prove_rhs(Context.make(outer, pairs), (), wand.rhs, u2, store2)
    fp = extract_footprint(outer, final.outer)
    assert fp == S("{x.f @ 1 = 0}")
    # the oracle confirms the strategy's footprint
    assert orc.is_footprint(fp, wand, "standard", orc.plan(u2), store2)


def test_prove_rhs_insufficient_permission_diagnostic(u1, store1):
    wand = A(DISJ_WAND)
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    ctx = Context.make(S("{x.f @ 1 = y, y.g @ 1 = 0}"), pairs)  # no z.g
    with pytest.raises(PackageFailure, match="insufficient permission"):
        prove_rhs(ctx, (), wand.rhs, u1, store1)


# -- package_sound -----------------------------------------------------------------------


def test_package_sound_disjunctive_wand(u1, store1):
    out = package_sound(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    assert out.success
    assert out.footprint == S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    assert staged_outers(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1) == [st.sub(S(OUTER_FULL), out.footprint)]
    final = check_derivation(out.configuration, out.derivation, u1, store1)
    assert extract_footprint(out.configuration.context.outer, final.outer) == out.footprint
    assert orc.is_footprint(out.footprint, A(DISJ_WAND), "standard", orc.plan(u1), store1)


def test_package_sound_trivial_wand(u1, store1):
    out = package_sound(S(OUTER_FULL), A("acc(x.f) --* acc(x.f)"), (), store1, u1)
    assert out.success and out.footprint == EMPTY


def test_package_sound_missing_permission(u1, store1):
    out = package_sound(S("{x.f @ 1 = y}"), A("acc(x.f) --* acc(x.f) * acc(y.g)"), (), store1, u1)
    assert not out.success
    assert "insufficient permission" in out.diagnostic


def test_package_sound_rejects_combinable_kind(u2, store2):
    out = package_sound(S("{x.g @ 1 = 0}"), A("acc(x.f, 1/2) --*c acc(x.g)"), (), store2, u2)
    assert not out.success


# -- package_combinable ------------------------------------------------------------------------


def test_package_combinable_trivial(u2, store2):
    out = package_combinable(
        S("{x.f @ 1 = 0}"), A("acc(x.f, 1/2) --*c acc(x.f, 1/2)"), (), store2, u2
    )
    assert out.success and out.footprint == EMPTY


def test_package_combinable_fails_on_incompatibility_footprint(u2, store2):
    out = package_combinable(S("{x.f @ 1 = 0}"), A("acc(x.f, 1/2) --*c acc(x.g)"), (), store2, u2)
    assert not out.success


def test_package_combinable_succeeds_with_rhs_permission(u2, store2):
    wand = A("acc(x.f, 1/2) --*c acc(x.g)")
    out = package_combinable(S("{x.g @ 1 = 0}"), wand, (), store2, u2)
    assert out.success
    assert out.footprint == S("{x.g @ 1 = 0}")
    assert orc.is_footprint(out.footprint, wand, "combinable", orc.plan(u2), store2)
    check_derivation(out.configuration, out.derivation, u2, store2)


@pytest.mark.parametrize("value", ["true", "false"])
@pytest.mark.parametrize("arrow", ["--*", "--*c"])
def test_extraction_takes_values_from_the_outer_state(arrow, value):
    # the two LHS pairs demand x.f with different values; only the outer
    # state's value can be extracted, and the other pair is dropped
    u = parse_universe_text("universe v1\ngranularity 2\nrefs x\nloc x.f: bool\n")
    store = {"x": "x"}
    wand = A(f"acc(x.f, 1/2) {arrow} acc(x.f)")
    package = package_combinable if wand.combinable else package_sound
    out = package(S(f"{{x.f @ 1 = {value}}}"), wand, (), store, u)
    assert out.success, out.diagnostic
    assert out.footprint == S(f"{{x.f @ 1/2 = {value}}}")
    kind = "combinable" if wand.combinable else "standard"
    assert orc.is_footprint(out.footprint, wand, kind, orc.plan(u), store)
    check_derivation(out.configuration, out.derivation, u, store)


# -- package_fia -------------------------------------------------------------------------------


def test_package_fia_per_case_footprints(u1, store1):
    out = package_fia(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    assert out.success
    fps = sorted(str(fp) for _, fp in out.case_footprints)
    assert fps == ["{y.g@1=0}", "{z.g@1=0}"]
    posts = staged_outers(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1, fia=True)
    assert sorted(posts) == sorted(st.sub(S(OUTER_FULL), fp) for _, fp in out.case_footprints)
    assert out.derivation is None


def test_package_fia_single_case_agrees_with_sound(u1, store1):
    wand = A("acc(x.f) * x.f == y --* acc(x.f) * acc(x.f.g)")
    fia = package_fia(S(OUTER_FULL), wand, (), store1, u1)
    sound = package_sound(S(OUTER_FULL), wand, (), store1, u1)
    assert fia.success and sound.success
    fps = {fp for _, fp in fia.case_footprints}
    assert fps == {sound.footprint}


def test_package_fia_trivial(u1, store1):
    out = package_fia(S(OUTER_FULL), A("acc(x.f) --* acc(x.f)"), (), store1, u1)
    assert out.success
    assert {fp for _, fp in out.case_footprints} == {EMPTY}


def test_package_fia_fails_when_case_uncoverable(u1, store1):
    out = package_fia(S("{x.f @ 1 = y}"), A(DISJ_WAND), (), store1, u1)
    assert not out.success


def test_package_fia_never_enumerates_a_wand_free_lhs(monkeypatch, u1, store1):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_states called")

    monkeypatch.setattr(st, "enumerate_states", refuse)
    out = package_fia(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    assert out.success and len(out.case_footprints) == 2


U3 = """
universe v1
granularity 2
refs x
loc x.f: int {0, 1}
loc x.g: int {0, 1}
loc x.h: int {0, 1}
"""


def test_package_fia_case_cannot_take_back_a_used_permission():
    # the case spends its own x.g on the first conjunct; the second x.g
    # would have to come from the outer state on top of the case's x.g
    u = parse_universe_text(U3)
    out = package_fia(S("{x.g @ 1 = 0}"), A("acc(x.g) --* acc(x.g) * acc(x.g)"), (), {"x": "x"}, u)
    assert not out.success
    assert out.diagnostic == "case {x.g@1=0}: case state cannot absorb {x.g@1=0}"


def test_package_fia_case_holds_no_value_it_does_not_own():
    # a case owns only x.g, so no stray value for x.f steers the
    # disjunction toward the location the outer state lacks
    u = parse_universe_text(U3)
    outer, wand = S("{x.h @ 1 = 0}"), A("acc(x.g) --* acc(x.f) || acc(x.h)")
    out = package_fia(outer, wand, (), {"x": "x"}, u)
    assert out.success, out.diagnostic
    assert [fp for _, fp in out.case_footprints] == [S("{x.h @ 1 = 0}")] * 2
    assert staged_outers(outer, wand, (), {"x": "x"}, u, fia=True) == [S("{x.h @ 0 = 0}")] * 2
    assert st.sub(outer, out.case_footprints[0][1]) == S("{x.h @ 0 = 0}")


# -- proof scripts ------------------------------------------------------------------------------


def _script_of(text):
    p = parse_program_text(text)
    (m,) = p.methods
    (pkg,) = [s for s in m.body if type(s).__name__ == "Package"]
    return pkg.wand, pkg.script


def test_empty_script_is_noop(u1, store1):
    wand = A(DISJ_WAND)
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    ctx = Context.make(S(OUTER_FULL), pairs)
    out, extracts, mutated = run_script(ctx, (), store1, u1)
    assert out == ctx and extracts == [] and not mutated


def test_conditional_assert_script_extracts_both(u1, store1):
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref, y: Ref, z: Ref) {
          package acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g) {
            assert x.f == y ? acc(y.g) : acc(z.g)
          }
        }
        """
    )
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    ctx = Context.make(S(OUTER_FULL), pairs)
    out, extracts, mutated = run_script(ctx, script, store1, u1)
    assert not mutated
    assert extracts == [S("{y.g @ 1 = 0, z.g @ 1 = 0}")]
    # the script consumed nothing: available states grew by the extraction
    assert all(p.sigma_b == EMPTY for p in out.pairs)
    # and the sound package with the script still lands on both permissions
    full = package_sound(S(OUTER_FULL), wand, script, store1, u1)
    assert full.success and full.footprint == S("{y.g @ 1 = 0, z.g @ 1 = 0}")


def test_fold_script_gains_instance(store1):
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x, y
        loc x.f: int {0, 1}
        loc y.f: int {0, 1}
        pred Cell(r) = acc(r.f)
        """
    )
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref) {
          package acc(x.f) --* Cell(x) {
            fold Cell(x)
          }
        }
        """
    )
    store = {"x": "x"}
    outer = S("{x.f @ 1 = 0, y.f @ 1 = 0}")
    out = package_sound(outer, wand, script, store, u)
    assert out.success
    assert out.footprint == EMPTY
    # oracle agreement on the desugared wand: the footprint works for the
    # unfolded reading too
    from wandpack.assertions import desugar_predicates, Wand

    desugared = desugar_predicates(wand, u)
    assert orc.is_footprint(out.footprint, desugared, "standard", orc.plan(u), store)
    # the derivation re-checks from the initial configuration through the
    # script, whose pairs then all hold the folded instance
    assert recheck_package(out.configuration, script, out.derivation, u, store) == out.footprint
    after, _, _ = run_script(out.configuration.context, script, store, u)
    assert after.pairs
    for pair in after.pairs:
        assert any(rid.__class__.__name__ == "PredInst" for rid, _ in pair.sigma_a.mask)


def test_fold_from_outer_footprint(store1):
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x, y
        loc x.f: int {0, 1}
        loc y.f: int {0, 1}
        pred Cell(r) = acc(r.f)
        """
    )
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref) {
          package true --* Cell(x) {
            fold Cell(x)
          }
        }
        """
    )
    store = {"x": "x"}
    out = package_sound(S("{x.f @ 1 = 1, y.f @ 1 = 0}"), wand, script, store, u)
    assert out.success
    assert out.footprint == S("{x.f @ 1 = 1}")


def test_unfold_then_use(store1):
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x
        loc x.f: int {0, 1}
        pred Cell(r) = acc(r.f)
        """
    )
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref) {
          package Cell(x) --* acc(x.f) {
            unfold Cell(x)
          }
        }
        """
    )
    store = {"x": "x"}
    out = package_sound(S("{x.f @ 1 = 0}"), wand, script, store, u)
    assert out.success and out.footprint == EMPTY


def test_unfold_without_instance_names_pair(store1):
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x
        loc x.f: int {0}
        pred Cell(r) = acc(r.f)
        """
    )
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref) {
          package acc(x.f) --* acc(x.f) {
            unfold Cell(x)
          }
        }
        """
    )
    out = package_sound(S("{x.f @ 1 = 0}"), wand, script, {"x": "x"}, u)
    assert not out.success
    assert "no full instance" in out.diagnostic and "pair" in out.diagnostic


def test_apply_script_without_instance_fails(u2, store2):
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref) {
          package acc(x.f, 1/2) --* acc(x.f, 1/2) {
            apply acc(x.f, 1/2) --* acc(x.g)
          }
        }
        """
    )
    out = package_sound(S("{x.f @ 1 = 0}"), wand, script, store2, u2)
    assert not out.success
    assert "no wand instance" in out.diagnostic


def test_apply_script_uses_recorded_wand(u2, store2):
    inner = A("acc(x.f, 1/2) --* acc(x.g)")
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref) {
          package acc(x.f, 1/2) * (acc(x.f, 1/2) --* acc(x.g)) --* acc(x.g) {
            apply acc(x.f, 1/2) --* acc(x.g)
          }
        }
        """
    )
    out = package_sound(S("{x.b @ 1 = false}"), wand, script, store2, u2)
    assert out.success and out.footprint == EMPTY


APPLY_PROGRAM = """
program v1
method m(x: Ref) {
  package acc(x.f) * (acc(x.f) --* Cell(x)) --* Cell(x) {
    apply acc(x.f) --* Cell(x)
  }
}
"""


def test_apply_script_trades_the_held_wand_and_its_lhs_for_its_rhs():
    # a per-case state holds the wand's token, read from the left-hand side
    # by demands, so fia runs the apply on a pair that holds the instance
    u = parse_universe_text((CORPUS / "preds.universe").read_text())
    wand, script = _script_of(APPLY_PROGRAM)
    store, outer = {"x": "x"}, S("{x.f @ 1 = 0}")
    out = package_fia(outer, wand, script, store, u)
    assert out.success and [fp for _, fp in out.case_footprints] == [EMPTY, EMPTY]
    for case, value in zip(lhs_cases(u, wand.lhs, store), (0, 1)):
        one_pair = Context.make(outer, [pl.WitnessPair(case, EMPTY)])
        ctx, extracts, mutated = run_script(one_pair, script, store, u)
        assert mutated and extracts == []
        assert [p.sigma_a for p in ctx.pairs] == [S(f"{{x.f @ 0 = {value}, Cell(x) @ 1}}")]


def test_script_if_runs_its_else_branch_after_a_then_branch_that_succeeds(u1, store1):
    wand, script = _script_of(
        """
        program v1
        method m(x: Ref, y: Ref, z: Ref) {
          package acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g) {
            if (x.f == y) { assert acc(y.g) } else { assert acc(z.g) }
          }
        }
        """
    )
    ctx = Context.make(S(OUTER_FULL), init_witness_set(wand.lhs, u1, True, store1))
    _, extracts, mutated = run_script(ctx, script, store1, u1)
    assert not mutated
    assert extracts == [S("{y.g @ 1 = 0}"), S("{z.g @ 1 = 0}")]
    out = package_sound(S(OUTER_FULL), wand, script, store1, u1)
    assert out.success and out.footprint == S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    assert recheck_package(out.configuration, script, out.derivation, u1, store1) == out.footprint


# -- differential invariants -----------------------------------------------------------------


def test_fia_divergence_witness(u1, store1):
    # the seeded instance: per-case packaging succeeds, yet no case
    # footprint justifies the wand for all left-hand-side states
    out = package_fia(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    assert out.success
    p = orc.plan(u1)
    for _, fp in out.case_footprints:
        assert not orc.is_footprint(fp, A(DISJ_WAND), "standard", p, store1)


def test_binary_lhs_collapses_algorithms():
    import random

    import gen
    from wandpack.assertions import Wand

    rng = random.Random(7)
    agreements = 0
    for _ in range(40):
        u = gen.random_universe(rng)
        store = gen.identity_store(u)
        wand = gen.random_wand(rng, u, binary_lhs=True)
        if not orc.is_binary(wand.lhs, orc.plan(u), store):
            continue
        outer = gen.random_outer(rng, u)
        s_out = package_sound(outer, wand, (), store, u)
        c_out = package_combinable(outer, Wand(wand.lhs, wand.rhs, True), (), store, u)
        assert s_out.success == c_out.success
        if s_out.success:
            assert s_out.footprint == c_out.footprint
            agreements += 1
    assert agreements > 5


# -- determinism -----------------------------------------------------------------------------------


def test_identical_inputs_identical_outcomes(u1, store1):
    a = package_sound(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    b = package_sound(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    assert a == b
    fa = package_fia(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    fb = package_fia(S(OUTER_FULL), A(DISJ_WAND), (), store1, u1)
    assert fa == fb


# -- every step a checked rule ------------------------------------------------------------------


def _generated_packages(seed: int, n: int):
    """``n`` seeded generator draws, alternating standard and combinable
    wands, with a predicate in the universe every third draw."""
    import random

    import gen

    rng = random.Random(seed)
    for i in range(n):
        u = gen.random_universe(rng, with_predicate=i % 3 == 2)
        store = gen.identity_store(u)
        wand = gen.random_wand(rng, u, combinable=i % 2 == 1)
        yield u, store, wand, gen.random_outer(rng, u)


def test_packaged_derivations_recheck_to_the_reported_outcome():
    # the packagers do not re-check their derivations: every step they take
    # is a rule application of the checker, so checking again must agree
    successes = {False: 0, True: 0}
    for u, store, wand, outer in _generated_packages(10, 300):
        packager = package_combinable if wand.combinable else package_sound
        out = packager(outer, wand, (), store, u)
        if not out.success:
            continue
        successes[wand.combinable] += 1
        assert recheck_package(out.configuration, (), out.derivation, u, store) == out.footprint
        final = check_derivation(out.configuration, out.derivation, u, store)
        assert final.outer == st.sub(outer, out.footprint)
    assert min(successes.values()) >= 50, successes


def _scripted(rng, u, store, wand):
    """``wand`` with a random proof script: none, an ``assert``, an ``if``
    on a value the left-hand side frames, a ``fold`` (when the universe has
    a predicate), or an ``apply`` of a wand its left-hand side then holds.
    Returns the kind, the wand and the script."""
    import gen

    x = Var("x")
    kind = rng.choice(["none", "assert", "if", "if", "apply"] + ["fold"] * 4 * bool(u.predicates))
    if kind in ("assert", "if"):
        then = (AssertStmt(gen.random_assertion(rng, u, 1)[0]),)
        framed = [{loc for loc, _ in case.heap} for case in lhs_cases(u, wand.lhs, store)]
        if kind == "assert" or not framed or not set.intersection(*framed):
            return "assert", wand, then
        loc = rng.choice(sorted(set.intersection(*framed)))
        cond = Eq(FieldAcc(x, loc.field), Lit(rng.choice(list(u.domain(loc)))))
        return kind, wand, (If(cond, then, (AssertStmt(gen.random_assertion(rng, u, 1)[0]),)),)
    if kind == "fold":
        return kind, wand, (Fold("Cell", (x,)),)
    if kind == "apply":
        f1, f2 = (rng.choice(u.sorted_locations()).field for _ in range(2))
        inner = Wand(Acc(x, f1, gen.ONE), Acc(x, f2, gen.ONE))
        wand = Wand(Star(Star(inner, Acc(x, f1, gen.ONE)), wand.lhs), wand.rhs, wand.combinable)
        return kind, wand, (Apply(inner),)
    return kind, wand, ()


def test_post_state_is_the_outer_state_less_the_footprint():
    # the Extract rule is the only step that takes from the outer state, so
    # a package leaves the outer state less its footprint, which is how the
    # verifier builds each world's post-states from its own state
    successes = {}
    rng = random.Random("post-states")
    for u, store, wand, outer in _generated_packages(12, 400):
        kind, wand, script = _scripted(rng, u, store, wand) if rng.random() < 0.7 else ("none", wand, ())
        packager = package_combinable if wand.combinable else package_sound
        for fia, out in ((False, packager(outer, wand, script, store, u)),
                         (True, package_fia(outer, wand, script, store, u))):
            try:
                outers = staged_outers(outer, wand, script, store, u, fia)
            except PackageFailure:
                assert not out.success
                continue
            fps = [extract_footprint(outer, o) for o in outers]
            assert outers == [st.sub(outer, fp) for fp in fps]
            assert out.success
            assert set(fps) == ({fp for _, fp in out.case_footprints} if fia else {out.footprint})
            name = FIA if fia else COMBINABLE if wand.combinable else SOUND
            successes[name, kind] = successes.get((name, kind), 0) + 1
    assert all(successes.get((a, k), 0) >= 3 for a in (SOUND, COMBINABLE, FIA)
               for k in ("none", "assert", "if", "apply", "fold")), successes


def test_prove_rhs_context_is_the_checked_context():
    proved = 0
    for u, store, wand, outer in _generated_packages(11, 120):
        pairs = init_witness_set(wand.lhs, u, True, store, combinable=wand.combinable)
        ctx = Context.make(outer, pairs)
        try:
            after, tree = prove_rhs(ctx, (), wand.rhs, u, store)
        except PackageFailure:
            continue
        proved += 1
        assert check_derivation(Configuration(wand.rhs, (), ctx), tree, u, store) == after
    assert proved >= 60


def _heaps_nest(ctx: Context) -> bool:
    return all(set(p.sigma_b.heap) <= set(p.sigma_a.heap) for p in ctx.pairs)


def test_assembled_heap_lies_inside_the_available_heap():
    # every reader of a pair's heap reads its available state alone; that is
    # exact because the assembled state's heap is part of the available one
    finals = 0
    for u, store, wand, outer in _generated_packages(10, 300):
        conf = initial_configuration(u, wand, store, outer)
        for script in ((), (AssertStmt(wand.rhs),)):
            try:
                ctx, _, _ = run_script(conf.context, script, store, u)
                assert _heaps_nest(ctx)
                final, _ = prove_rhs(ctx, (), wand.rhs, u, store)
            except PackageFailure:
                continue
            assert _heaps_nest(final)
            finals += 1
    assert finals >= 350, finals


CELL_UNIVERSE = """
universe v1
granularity 2
refs x
loc x.f: bool {false, true}
loc x.g: int {0}
pred Cell(r) = acc(r.f)
"""
CELL_OUTER = "{x.f @ 1 = false, x.g @ 1 = 0}"


def test_prove_names_an_atom_the_restricted_delta_leaves_uncovered():
    # the first atom moves the anchor's half to the assembled state; the
    # restriction caps what the extraction gives the pair at the other half
    u = parse_universe_text(CELL_UNIVERSE)
    wand = A("acc(x.f, 1/2) --*c acc(x.f, 1/2) * acc(x.f)")
    out = package_combinable(S(CELL_OUTER), wand, (), {"x": "x"}, u)
    assert out.diagnostic == (
        "prove: acc(x.f) still unsatisfied for pair ({x.f@1/2=false}, {x.f@1/2=false}) after extraction"
    )


def test_script_assert_names_an_atom_the_restricted_delta_leaves_uncovered():
    # the fold consumes the anchor's half and the half extracted for it
    u = parse_universe_text(CELL_UNIVERSE)
    script = parse_script_text("{ fold Cell(x); assert acc(x.f, 1/2) }")
    out = package_combinable(S(CELL_OUTER), A("acc(x.f, 1/2) --*c Cell(x)"), script, {"x": "x"}, u)
    assert out.diagnostic == (
        "assert: acc(x.f, 1/2) still unsatisfied for pair ({Cell(x)@1, x.f@0=false}, {}) after extraction"
    )


def test_unframed_script_condition_reports_the_path_condition():
    u = parse_universe_text(CELL_UNIVERSE)
    script = parse_script_text("{ if (x.g == 0) { assert acc(x.f) } }")
    out = package_sound(S(CELL_OUTER), A("acc(x.f) --* acc(x.f)"), script, {"x": "x"}, u)
    assert out.diagnostic == "path condition x.g == 0 unframed on {x.f@1=false}: no heap value for x.g"


# -- backtracking proof search ------------------------------------------------------------------

TINY = """
universe v1
granularity 2
refs x
loc x.f: int {0}
loc x.g: int {0}
"""
# the disjunction's first covered demand is x.f, which the last atom needs again
GREEDY_LOSS = ("acc(x.f) --* (acc(x.f) || acc(x.g)) * acc(x.f)", "{x.g @ 1 = 0}")
# theorem-sweep seed 1 draw 76 needs another choice, seed 9 draw 276 another extraction
SWEEP_1_76 = (
    "universe v1\ngranularity 2\nrefs x\nloc x.f: int {0, 1}\nloc x.g: bool\nloc x.h: bool\n",
    "(acc(x.f) || acc(x.h)) --* ((acc(x.g, 1/2) || acc(x.f, 1/2)) * acc(x.g))",
    "{x.f @ 1 = 1, x.g @ 1 = true, x.h @ 1 = false}",
)
SWEEP_9_276 = (
    "universe v1\ngranularity 2\nrefs x\nloc x.f: bool\nloc x.g: int {0}\n",
    "acc(x.g, 1/2) --* (acc(x.f) || acc(x.g))",
    "{x.f @ 1 = false}",
)


@pytest.mark.parametrize(
    "utext, wand, outer, footprint",
    [
        (TINY, *GREEDY_LOSS, "{x.g @ 1 = 0}"),
        (*SWEEP_1_76, "{x.f @ 1/2 = 1, x.g @ 1 = true}"),
        (*SWEEP_9_276, "{x.f @ 1 = false}"),
    ],
    ids=["greedy-disjunct", "sweep-1-76", "sweep-9-276"],
)
def test_search_backtracks_where_the_greedy_step_fails(utext, wand, outer, footprint):
    u, w, store = parse_universe_text(utext), A(wand), {"x": "x"}
    out = package_sound(S(outer), w, (), store, u)
    assert out.success, out.diagnostic
    assert out.footprint == S(footprint)
    assert orc.is_footprint(out.footprint, w, orc.STANDARD, orc.plan(u), store)
    assert orc.audit_footprint(out.footprint, w, orc.STANDARD, orc.plan(u), store)
    assert recheck_package(out.configuration, (), out.derivation, u, store) == out.footprint


def test_search_out_of_nodes_reports_the_greedy_failure(monkeypatch):
    monkeypatch.setattr(pl, "SEARCH_NODES", 2)
    out = package_sound(S(GREEDY_LOSS[1]), A(GREEDY_LOSS[0]), (), {"x": "x"}, parse_universe_text(TINY))
    assert out.diagnostic == (
        "prove: insufficient permission for acc(x.f); outer state lacks {x.f@1} (witness pair {x.f@0=0})"
    )


WIDE = (
    "universe v1\ngranularity 2\nrefs x\nloc x.f: int {0, 1, 2, 3}\nloc x.g: int {0, 1, 2, 3}\n"
    "loc x.h: int {0, 1, 2, 3}\nloc x.k: int {0}\nloc x.m: int {0}\n"
)


def test_search_counts_repeated_extractions_against_its_bound(monkeypatch):
    # 64 pairs, each aiming at x.k or x.m: 2^64 combinations of aims, of
    # which only three distinct extractions, and the outer state closes none
    looked, steps = [0], pl.steps

    def counted(*args, **kwargs):
        for option in steps(*args, **kwargs):
            looked[0] += 1
            yield option

    monkeypatch.setattr(pl, "steps", counted)
    wand = A("acc(x.f) * acc(x.g) * acc(x.h) --* (acc(x.k) || acc(x.m))")
    out = package_sound(S("{x.k @ 1/2 = 0, x.m @ 1/2 = 0}"), wand, (), {"x": "x"}, parse_universe_text(WIDE))
    assert out.diagnostic == (
        "prove: insufficient permission for acc(x.k) || acc(x.m); "
        "outer state lacks {x.k@1=0} (witness pair {x.f@1=0, x.g@1=0, x.h@1=0})"
    )
    assert looked[0] <= pl.SEARCH_NODES + 1


# Draws of _generated_packages(10, 300) that only the backtracking search
# packages; every other draw's outcome is pinned by the digest of the
# successes of the greedy prover it replaced.
NEW_SUCCESSES = {"witnessed": {219, 268}, "fia": {219}}
GREEDY_DIGEST = "79b90c61d878a41a88751e1566cb3ef877a45c20b9b8b17580aa9f32efd70fa7"


def _greedy_successes():
    records = {"witnessed": [], "fia": []}
    for i, (u, store, wand, outer) in enumerate(_generated_packages(10, 300)):
        packager = package_combinable if wand.combinable else package_sound
        out = packager(outer, wand, (), store, u)
        if out.success and i not in NEW_SUCCESSES["witnessed"]:
            records["witnessed"].append([i, state_to_json(out.footprint), derivation_to_json(out.derivation)])
        cases = package_fia(outer, wand, (), store, u)
        if cases.success and i not in NEW_SUCCESSES["fia"]:
            records["fia"].append([i, [[state_to_json(c), state_to_json(f)] for c, f in cases.case_footprints]])
        for kind, done in (("witnessed", out), ("fia", cases)):
            assert done.success or i not in NEW_SUCCESSES[kind], (kind, i, done.diagnostic)
    return records


def test_search_keeps_every_greedy_success_and_adds_only_the_listed_ones():
    records = _greedy_successes()
    assert (len(records["witnessed"]), len(records["fia"])) == (196, 176)
    assert hashlib.sha256(dumps_canonical(records).encode()).hexdigest() == GREEDY_DIGEST
