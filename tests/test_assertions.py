import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

import wandpack.assertions as asn
import wandpack.oracle as orc
import wandpack.states as st
from wandpack.assertions import (
    Star,
    demands,
    desugar_predicates,
    format_assertion,
    lhs_states,
    reach,
    sat,
    scale_assertion,
    wand_holds,
    wand_key,
    wf,
)
from wandpack.exprs import Unframed, eval_expr
from wandpack.parser import (
    parse_assertion_text as A,
    parse_expr_text as E,
    parse_state_text as S,
    parse_universe_text,
)
from wandpack.states import EMPTY
from wandpack.universe import FieldLoc, PredInst

import gen
from conftest import TINY_TEXT, U1_TEXT

TINY = parse_universe_text(TINY_TEXT)
TINY_STORE = {"x": "x"}
TINY_POOL = list(st.enumerate_states(TINY))


# -- expression evaluation -------------------------------------------------------


def test_eval_field_access():
    heap = {FieldLoc("x", "f"): "y"}
    assert eval_expr(E("x.f"), heap, {"x": "x"}) == "y"


def test_eval_unframed_chain():
    heap = {FieldLoc("x", "f"): "y"}
    with pytest.raises(Unframed):
        eval_expr(E("x.f.g"), heap, {"x": "x"})


def test_eval_conditional_matches_branches():
    heap = {FieldLoc("x", "f"): "y", FieldLoc("y", "g"): 0}
    store = {"x": "x", "y": "y", "z": "z"}
    assert eval_expr(E("x.f == y ? 1 : 2"), heap, store) == 1
    heap[FieldLoc("x", "f")] = "z"
    assert eval_expr(E("x.f == y ? 1 : 2"), heap, store) == 2


# -- satisfaction -----------------------------------------------------------------


def test_sat_acc(u1, store1):
    assert sat(u1, S("{x.f @ 1 = y}"), A("acc(x.f)"), store1)
    assert not sat(u1, S("{x.f @ 1/2 = y}"), A("acc(x.f)"), store1)


def test_sat_false_guard(u2, store2):
    assert sat(u2, S("{x.b @ 1 = false}"), A("x.b ==> acc(x.f)"), store2)


def test_sat_wand_by_incompatibility(u2, store2):
    # the full-x.f state is incompatible with every LHS state, so the wand
    # holds in it vacuously
    assert sat(u2, S("{x.f @ 1 = 0}"), A("acc(x.f, 1/2) --* acc(x.g)"), store2)


def test_sat_unframed_is_false_with_diagnostic(u1, store1):
    assert not sat(u1, S("{x.f @ 1 = y}"), A("acc(x.f) * x.f.g == 0"), store1)


# -- demands ------------------------------------------------------------------------


def test_demands_chained_accs(u1, store1):
    heap = {FieldLoc("x", "f"): "y", FieldLoc("y", "g"): 0}
    ds = demands(u1, A("acc(x.f) * acc(x.f.g)"), heap, store1)
    assert ds == [S("{x.f @ 1 = y, y.g @ 1 = 0}")]


def test_demands_pure_disjunction_collapses(u1, store1):
    heap = {FieldLoc("x", "f"): "y"}
    assert demands(u1, A("x.f == y || x.f == z"), heap, store1) == [EMPTY]


def test_demands_resource_disjunction_two_choices(u1, store1):
    heap = {FieldLoc("y", "g"): 0, FieldLoc("z", "g"): 0}
    ds = demands(u1, A("acc(y.g) || acc(z.g)"), heap, store1)
    assert ds == [S("{y.g @ 1 = 0}"), S("{z.g @ 1 = 0}")]


def test_demands_fork_over_domain(u1, store1):
    ds = demands(u1, A("acc(x.f)"), {}, store1, fresh="fork")
    assert ds == [S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")]
    assert demands(u1, A("acc(x.f)"), {}, store1) == []


def test_demands_fork_threads_through_dependent_chain(u1, store1):
    # the left conjunct's forked value frames the right conjunct
    ds = demands(u1, A("acc(x.f) * acc(x.f.g)"), {}, store1, fresh="fork")
    assert ds == [
        S("{x.f @ 1 = y, y.g @ 1 = 0}"),
        S("{x.f @ 1 = z, z.g @ 1 = 0}"),
    ]


def test_demands_pred_and_wand_are_resources(u1, store1):
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x
        loc x.f: int {0}
        pred Cell(r) = acc(r.f)
        """
    )
    ds = demands(u, A("Cell(x)"), {}, {"x": "x"})
    assert ds == [st.State.make({PredInst("Cell", ("x",)): Fraction(1)}, {})]
    w = A("acc(x.f) --* Cell(x)")
    (d,) = demands(u, w, {}, {"x": "x"})
    assert list(d.mask_dict()) == [wand_key(w, {"x": "x"})]


def _prune_reference(ds):
    """``states.antichain`` as one ``geq`` call per pair of demands."""
    out = []
    for d in ds:
        if d in out:
            continue
        if any(d != o and st.geq(d, o) for o in ds):
            continue
        out.append(d)
    return out


def test_prune_matches_pairwise_reference_on_generated_demands():
    rng = random.Random(1716)
    pruned = by_heap = 0
    for i in range(400):
        u = gen.random_universe(rng, with_predicate=i % 3 == 0, granularity=2 + i % 2)
        a, _ = gen.random_assertion(rng, u, rng.choice([1, 2, 3]))
        ds = asn._demands(u, a, {}, gen.identity_store(u), None, asn.FRESH_FORK, None)
        fields = sorted({loc.field for loc in u.sorted_locations()})
        # cores, and their values at one field, hold values at zero
        # permission, so among them strict heap inclusion alone dominates
        for d in ds[:]:
            if rng.random() < 0.5:
                c, f = st.core(d), rng.choice(fields)
                mask = tuple(e for e in c.mask if not isinstance(e[0], FieldLoc) or e[0].field == f)
                ds += [c, st.State(mask, tuple(e for e in c.heap if e[0].field == f))]
        ds += rng.sample(ds, len(ds) // 3)
        rng.shuffle(ds)
        got = st.antichain(ds)
        assert got == _prune_reference(ds)
        assert st.minimal_elements(ds) == sorted(_prune_reference(ds), key=st.state_key)
        pruned += len(got) < len(set(ds))
        by_heap += any(
            d != o and not d.mask and o.heap and st.geq(d, o) for d in set(ds) for o in set(ds)
        )
    assert pruned > 200 and by_heap > 40


# -- well-formedness ---------------------------------------------------------------


def test_wf_self_framing_examples():
    assert wf(A("acc(x.f) * x.f == y"))
    assert not wf(A("x.f == y"))
    assert wf(A("acc(x.f) * acc(x.f.g)"))
    assert not wf(A("acc(x.f.g)"))


def test_wf_rhs_sees_lhs_frames():
    assert wf(A("acc(x.f) --* x.f == y"))
    assert not wf(A("acc(x.g) --* x.f == y"))


def test_wf_or_branches_do_not_frame_each_other():
    assert not wf(A("(acc(x.f) || acc(x.g)) * x.f == y"))
    assert wf(A("(acc(x.f) * x.f == y) || acc(x.g)"))


def test_wf_perm_only_at_verifier_level():
    assert not wf(A("perm(x.f) == write"))


# -- demands/sat agreement and intuitionism (wand-free fragment) ---------------------

WAND_FREE = [
    "acc(x.f)",
    "acc(x.f, 1/2)",
    "acc(x.f) * acc(x.g)",
    "acc(x.f) * x.f == 0",
    "acc(x.f) || acc(x.g)",
    "acc(x.f) * (x.f == 0 ==> acc(x.g))",
    "acc(x.f, 1/2) * (acc(x.f, 1/2) || acc(x.g))",
    "false",
    "true",
]


@pytest.mark.parametrize("src", WAND_FREE)
def test_demands_sat_agreement_exhaustive(src):
    a = A(src)
    for sigma in TINY_POOL:
        want = sat(TINY, sigma, a, TINY_STORE)
        try:
            ds = demands(TINY, a, sigma.heap_dict(), TINY_STORE)
            got = any(st.geq(sigma, d) for d in ds)
        except Unframed:
            got = False
        assert want == got, f"{src} on {sigma}"


@pytest.mark.parametrize("src", WAND_FREE)
def test_intuitionism_exhaustive(src):
    a = A(src)
    sats = [s for s in TINY_POOL if sat(TINY, s, a, TINY_STORE)]
    for sigma in sats:
        for tau in TINY_POOL:
            if st.geq(tau, sigma):
                assert sat(TINY, tau, a, TINY_STORE)


def test_intuitionism_covers_wands(u2, store2):
    w = A("acc(x.f, 1/2) --* acc(x.g)")
    pool = list(st.enumerate_states(u2, stable_only=True))
    sats = [s for s in pool if sat(u2, s, w, store2)]
    for sigma in sats:
        for tau in pool:
            if st.geq(tau, sigma):
                assert sat(u2, tau, w, store2)


@settings(max_examples=120)
@given(strat.sampled_from(TINY_POOL), strat.sampled_from([A(s) for s in WAND_FREE]))
def test_star_commutes_at_sat_level(sigma, a):
    b = A("acc(x.g, 1/2)")
    assert sat(TINY, sigma, Star(a, b), TINY_STORE) == sat(TINY, sigma, Star(b, a), TINY_STORE)


# -- predicates, scaling, closing ------------------------------------------------------


def test_desugar_multiplies_fractions():
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x
        loc x.f: int {0}
        pred Cell(r) = acc(r.f)
        pred Pair(r) = acc(Cell(r), 1/2) * acc(r.f, 1/2)
        """
    )
    body = desugar_predicates(A("acc(Pair(x), 1/2)"), u)
    assert format_assertion(body) == "acc(x.f, 1/4) * acc(x.f, 1/4)"


def test_scale_rejects_wands():
    with pytest.raises(Exception):
        scale_assertion(A("acc(x.f) --* acc(x.g)"), Fraction(1, 2))


def test_close_assertion_and_wand_key(u1, store1):
    w = A("acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)")
    k1 = wand_key(w, store1)
    k2 = wand_key(w, store1)
    assert k1 == k2
    other = wand_key(w, {"x": "x", "y": "z", "z": "y"})
    assert other != k1
    # wand_key is memoized: equal wands and stores that print differently
    # (1 == True) still get their own keys
    one, true = A("acc(x.f) --* x.f == 1"), A("acc(x.f) --* x.f == true")
    assert one == true and wand_key(one, store1) != wand_key(true, store1)
    n = A("acc(x.f) --* n == 1")
    assert wand_key(n, {"x": "x", "n": 1}).key.endswith(" 1 == 1")
    assert wand_key(n, {"x": "x", "n": True}).key.endswith(" true == 1")
    # the cache is bounded, and an entry holds its wand, so no id it is
    # keyed on is reused while it lives
    for i in range(asn.WAND_KEY_LIMIT + 8):
        wand_key(A(f"acc(x.f) --* x.f == {i % 2}"), store1)
    assert len(asn._WAND_KEYS) == asn.WAND_KEY_LIMIT
    assert all(id(w) == k[0] for k, (w, _) in asn._WAND_KEYS.items())


def test_lhs_states_minimal(u1, store1):
    sats = lhs_states(u1, A("acc(x.f) * (x.f == y || x.f == z)"), store1)
    mins = st.minimal_elements(sats)
    assert mins == [S("{x.f @ 1 = y}"), S("{x.f @ 1 = z}")]


def _entries_of(u):
    return [k for k in asn._LHS_CACHE if k[0] == id(u)]


def test_lhs_cache_ignores_unread_store_variables():
    u1 = parse_universe_text(U1_TEXT)
    a = A("acc(x.f) * x.f == y")
    first = lhs_states(u1, a, {"x": "x", "y": "y", "z": "z"})
    before = len(asn._LHS_CACHE)
    again = lhs_states(u1, a, {"x": "x", "y": "y", "z": "y", "w": "x"})
    assert again is first and len(asn._LHS_CACHE) == before
    other = lhs_states(u1, a, {"x": "x", "y": "z"})
    assert other != first and len(asn._LHS_CACHE) == before + 1


def test_lhs_cache_entries_die_with_their_universe():
    u = parse_universe_text(TINY_TEXT)
    uid = id(u)
    lhs_states(u, A("acc(x.f)"), {"x": "x"})
    lhs_states(u, A("acc(x.g, 1/2)"), {"x": "x"})
    assert len(_entries_of(u)) == 2
    del u
    gc.collect()
    assert not [k for k in asn._LHS_CACHE if k[0] == uid]
    assert uid not in asn._KEYS


def test_cached_checks_stay_bounded_on_a_living_universe():
    u = parse_universe_text(TINY_TEXT)
    for n in range(1, asn.CHECK_LIMIT + 9):
        assert wand_holds(u, EMPTY, A(f"acc(x.f) --* acc(x.f, 1/{n})"), TINY_STORE)
    # the oldest checks went first, and their keys with them
    assert len(asn._CHECKS) == asn.CHECK_LIMIT
    assert asn._KEYS[id(u)] == set(asn._CHECKS)


def test_lhs_cache_stays_bounded_on_a_living_universe():
    u = parse_universe_text(TINY_TEXT)
    added = []
    for n in range(1, asn.CHECK_LIMIT + 9):
        lhs_states(u, A(f"acc(x.f, 1/{n})"), TINY_STORE)
        added.append(_entries_of(u)[-1])
    # the oldest pools went first, and their keys with them
    assert list(asn._LHS_CACHE) == added[-asn.CHECK_LIMIT:]
    assert asn._KEYS[id(u)] == set(asn._LHS_CACHE)


def test_sub_universes_and_their_lhs_cache_entries_die_with_their_universe(monkeypatch):
    built = []
    init = asn.WandCheck.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(asn.WandCheck, "__init__", spy)
    u = parse_universe_text(TINY_TEXT)
    w = A("acc(x.f) --* acc(x.f)")
    assert wand_holds(u, EMPTY, w, TINY_STORE)  # its pool ranges over reach(u, w)
    r = reach(u, w)
    assert r is reach(u, w) and r.sorted_locations() == [FieldLoc("x", "f")]
    assert len(_entries_of(r)) == 1 and not _entries_of(u)
    # the check is cached under the universe it was asked of
    assert [k[0] for k in asn._CHECKS if k[0] in (id(u), id(r))] == [id(u)]
    p = orc.plan(u)
    assert orc.is_footprint(EMPTY, w, orc.STANDARD, p, TINY_STORE)
    assert orc.minimal_footprints(w, orc.STANDARD, p, TINY_STORE) == [EMPTY]
    assert orc.audit_footprint(EMPTY, w, orc.STANDARD, p, TINY_STORE)
    # is_footprint and minimal_footprints share the cached check; the
    # audit's desugared wand gets its own
    assert len(built) == 2
    uid, rid, alive = id(u), id(r), weakref.ref(r)
    del u, r, p
    # no reference cycle: the sub-universe goes with its parent, at once,
    # and so does every check built over them
    assert alive() is None
    assert all(check() is None for check in built)
    assert not [k for k in asn._LHS_CACHE if k[0] == rid]
    assert not [k for k in asn._CHECKS if k[0] in (uid, rid)]
    assert uid not in asn._KEYS and rid not in asn._KEYS
