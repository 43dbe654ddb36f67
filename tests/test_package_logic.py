import pytest

import wandpack.states as st
from wandpack.package_logic import (
    CheckFailure,
    Configuration,
    Context,
    DAtom,
    DDisjunction,
    DExtract,
    DStar,
    WitnessPair,
    apply_extract,
    build_canonical_derivation,
    check_derivation,
    extract_footprint,
    init_witness_set,
)
from wandpack.parser import (
    parse_assertion_text as A,
    parse_state_text as S,
    parse_universe_text,
)
from wandpack.states import EMPTY

DISJ_WAND = "acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)"
CHOICE_WAND = "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))"


# -- initial witness sets -----------------------------------------------------------


def test_init_witness_set_minimal(u1, store1):
    pairs = init_witness_set(A(DISJ_WAND).lhs, u1, True, store1)
    assert [(p.sigma_a, p.sigma_b) for p in pairs] == [
        (S("{x.f @ 1 = y}"), EMPTY),
        (S("{x.f @ 1 = z}"), EMPTY),
    ]


def test_init_witness_set_contradiction_is_empty(u1, store1):
    assert init_witness_set(A("false"), u1, True, store1) == ()


def test_init_witness_set_fractional(u2, store2):
    pairs = init_witness_set(A("acc(x.b, 1/2)"), u2, True, store2)
    assert [p.sigma_a for p in pairs] == [
        S("{x.b @ 1/2 = false}"),
        S("{x.b @ 1/2 = true}"),
    ]


# -- the checker: acceptance ------------------------------------------------------------


def _disj_conf(u1, store1):
    wand = A(DISJ_WAND)
    outer = S("{x.f @ 1 = y, y.g @ 1 = 0, z.g @ 1 = 0}")
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    return wand, Configuration(wand.rhs, (), Context.make(outer, pairs))


def test_disjunctive_wand_derivation_accepted(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    pay, paz = S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")
    xf_y, xf_z = S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")
    syz = S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    grown_y = st.add(st.sub(pay, xf_y), syz)
    grown_z = st.add(st.sub(paz, xf_z), syz)
    tree = DStar(
        DAtom.make({(pay, EMPTY): xf_y, (paz, EMPTY): xf_z}),
        DExtract(
            syz,
            DAtom.make(
                {
                    (grown_y, xf_y): S("{y.g @ 1 = 0}"),
                    (grown_z, xf_z): S("{z.g @ 1 = 0}"),
                }
            ),
        ),
    )
    final = check_derivation(conf, tree, u1, store1)
    fp = extract_footprint(conf.context.outer, final.outer)
    assert fp == syz


def test_extract_drops_incompatible_pairs(u2, store2):
    pairs = init_witness_set(A(CHOICE_WAND).lhs, u2, True, store2)
    ctx = Context.make(S("{x.b @ 1 = false, x.f @ 1 = 0}"), pairs)
    out = apply_extract(ctx, S("{x.b @ 1/2 = false}"))
    assert [p.sigma_a for p in out.pairs] == [S("{x.b @ 1 = false}")]


# -- the checker: rejections --------------------------------------------------------------


def test_atom_choice_not_contained_rejected(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    pay, paz = S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")
    too_big = S("{x.f @ 1 = y, y.g @ 1 = 0}")
    tree = DStar(
        DAtom.make({(pay, EMPTY): too_big, (paz, EMPTY): S("{x.f @ 1 = z}")}),
        DAtom.make({}),
    )
    with pytest.raises(CheckFailure, match="not contained"):
        check_derivation(conf, tree, u1, store1)


def test_atom_choice_not_satisfying_rejected(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    pay, paz = S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")
    tree = DStar(
        DAtom.make({(pay, EMPTY): S("{x.f @ 1/2 = y}"), (paz, EMPTY): S("{x.f @ 1 = z}")}),
        DAtom.make({}),
    )
    with pytest.raises(CheckFailure, match="does not satisfy"):
        check_derivation(conf, tree, u1, store1)


def test_atom_missing_choice_rejected(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    pay = S("{x.f @ 1 = y}")
    tree = DStar(
        DAtom.make({(pay, EMPTY): S("{x.f @ 1 = y}")}),
        DAtom.make({}),
    )
    with pytest.raises(CheckFailure, match="no choice"):
        check_derivation(conf, tree, u1, store1)


def test_extract_unstable_rejected(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    unstable = S("{y.g @ 0 = 0}")
    with pytest.raises(CheckFailure, match="not stable"):
        check_derivation(conf, DExtract(unstable, DAtom.make({})), u1, store1)


def test_extract_bigger_than_outer_rejected(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    # outer has x.f = y; a footprint claiming x.f = z is not contained
    with pytest.raises(CheckFailure, match="does not contain"):
        check_derivation(conf, DExtract(S("{x.f @ 1 = z}"), DAtom.make({})), u1, store1)


def test_wrong_rule_shape_rejected(u1, store1):
    wand, conf = _disj_conf(u1, store1)
    with pytest.raises(CheckFailure, match="star"):
        check_derivation(conf, DAtom.make({}), u1, store1)


# -- extract_footprint ----------------------------------------------------------------------


def test_extract_footprint_identity():
    s = S("{x.f @ 1 = y}")
    assert extract_footprint(s, s) == EMPTY


def test_extract_footprint_worked_example():
    initial = S("{x.f @ 1 = y, y.g @ 1 = 0, z.g @ 1 = 0}")
    final = S("{x.f @ 1 = y, y.g @ 0 = 0, z.g @ 0 = 0}")
    assert extract_footprint(initial, final) == S("{y.g @ 1 = 0, z.g @ 1 = 0}")


def test_extract_footprint_round_trip(u2):
    pool = list(st.enumerate_states(u2, stable_only=True))
    sample = pool[:: max(1, len(pool) // 12)]
    for a in sample:
        for b in sample:
            if st.geq(a, b):
                fp = extract_footprint(a, b)
                assert st.is_stable(fp)
                assert st.add(st.sub(a, fp), fp) == a


# -- disjunction rule --------------------------------------------------------------------------


def test_disjunction_rule_five_steps(u1, store1):
    # RHS acc(y.g) || acc(z.g): satisfy the left branch from the y-pair and
    # the right branch from the z-pair, each funded by its own extraction
    wand = A("acc(x.f) * (x.f == y || x.f == z) --* acc(y.g) || acc(z.g)")
    outer = S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    pairs = init_witness_set(wand.lhs, u1, True, store1)
    conf = Configuration(wand.rhs, (), Context.make(outer, pairs))
    pay, paz = S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")
    sy, sz = S("{y.g @ 1 = 0}"), S("{z.g @ 1 = 0}")
    left = DExtract(sy, DAtom.make({(st.add(pay, sy), EMPTY): sy}))
    # by the time the right branch runs, the z-pair has absorbed sy as well
    paz1 = st.add(paz, sy)
    right = DExtract(sz, DAtom.make({(st.add(paz1, sz), EMPTY): sz}))
    tree = DDisjunction(((pay, EMPTY),), left, right)
    final = check_derivation(conf, tree, u1, store1)
    assert extract_footprint(outer, final.outer) == S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    # both pairs survived and assembled their branch
    assert len(final.pairs) == 2


# -- lifted checking ---------------------------------------------------------------------------


def test_lifted_identity_matches_standard(u1, store1):
    # the anchors own no part of the footprint, so restricting to each
    # pair's anchor acts as the identity and the lifted check must agree
    wand = A(DISJ_WAND)
    lifted = A(DISJ_WAND.replace("--*", "--*c"))
    fp = S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    conf, deriv = build_canonical_derivation(u1, wand, fp, store1)
    conf2, deriv2 = build_canonical_derivation(u1, lifted, fp, store1)
    assert all(p.anchor is not None for p in conf2.context.pairs)
    a = check_derivation(conf, deriv, u1, store1)
    b = check_derivation(conf2, deriv2, u1, store1)
    assert a.outer == b.outer
    assert {(p.sigma_a, p.sigma_b) for p in a.pairs} == {(p.sigma_a, p.sigma_b) for p in b.pairs}


def test_lifted_delta_is_restricted(u2, store2):
    # anchor holds half x.f, so extracting the full x.f delivers only the
    # half that keeps scaled copies compatible
    anchor = S("{x.f @ 1/2 = 0}")
    pair = WitnessPair(anchor, EMPTY, anchor)
    ctx = Context.make(S("{x.f @ 1 = 0, x.g @ 1 = 0}"), [pair])
    out = apply_extract(ctx, S("{x.f @ 1 = 0}"))
    assert [p.sigma_a for p in out.pairs] == [S("{x.f @ 1 = 0}")]  # 1/2 + 1/2
    assert out.extracted == S("{x.f @ 1 = 0}")


def test_combinable_transformer_monotone_exhaustive(u2):
    pool = list(st.enumerate_states(u2, stable_only=True))
    anchors = pool[:: max(1, len(pool) // 8)]
    sample = pool[:: max(1, len(pool) // 10)]
    for anchor in anchors:
        for s1 in sample:
            for s2 in sample:
                if st.geq(s2, s1):
                    assert st.geq(st.restrict(anchor, s2), st.restrict(anchor, s1))


# -- canonical derivations ------------------------------------------------------------------------


def test_canonical_derivation_for_both_s31_footprints(u2, store2):
    wand = A(CHOICE_WAND)
    for fp_text in ("{x.f @ 1 = 0}", "{x.b @ 1/2 = false}"):
        conf, deriv = build_canonical_derivation(u2, wand, S(fp_text), store2)
        final = check_derivation(conf, deriv, u2, store2)
        assert extract_footprint(conf.context.outer, final.outer) == S(fp_text)


def test_canonical_derivation_searches_each_pair_alone():
    # 16 pairs; the x.f == 0 pairs sort first and need the disjunction's
    # second demand, x.g, while every other pair may take either
    u = parse_universe_text("universe v1\ngranularity 2\nrefs x\nloc x.f: int {0, 1, 2, 3}\nloc x.g: int {0, 1, 2, 3}\n")
    store = {"x": "x"}
    wand = A("acc(x.f) * acc(x.g) --* (acc(x.f) || acc(x.g)) * (x.f == 0 ==> acc(x.f))")
    conf, deriv = build_canonical_derivation(u, wand, EMPTY, store)
    assert len(conf.context.pairs) == 16
    final = check_derivation(conf, deriv, u, store)
    assert extract_footprint(conf.context.outer, final.outer) == EMPTY


def test_canonical_derivations_realize_lifted_footprints():
    # the lifted completeness story: every Def.1-minimal footprint of a
    # combinable wand is realized by an accepted canonical derivation
    import random

    import gen
    import wandpack.oracle as orc

    rng = random.Random(77)
    realized = 0
    for _ in range(30):
        u = gen.random_universe(rng)
        store = gen.identity_store(u)
        wand = gen.random_wand(rng, u, combinable=True)
        for fp in orc.minimal_footprints(wand, orc.COMBINABLE, orc.plan(u), store):
            conf, deriv = build_canonical_derivation(u, wand, fp, store)
            final = check_derivation(conf, deriv, u, store)
            assert extract_footprint(conf.context.outer, final.outer) == fp
            realized += 1
    assert realized > 20


def test_package_of_unsatisfiable_lhs_is_vacuous(u1, store1):
    from wandpack.algorithms import package_sound

    out = package_sound(S("{x.f @ 1 = y}"), A("false --* acc(y.g)"), (), store1, u1)
    assert out.success and out.footprint == EMPTY
