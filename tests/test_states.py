import itertools
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

import wandpack.states as st
from wandpack.oracle import plan, sat_states
from wandpack.parser import format_universe, parse_assertion_text, parse_universe_text
from wandpack.states import EMPTY
from wandpack.universe import FieldLoc, PredInst, WandInst, value_type

import gen

from conftest import S, TINY_TEXT, U2_TEXT, formula_rid_key

HALF = Fraction(1, 2)

TINY = parse_universe_text(TINY_TEXT)
POOL = list(st.enumerate_states(TINY))
states = strat.sampled_from(POOL)


@pytest.fixture(scope="module")
def pool():
    return POOL


# -- addition ------------------------------------------------------------------


def test_neutral_element(pool):
    for s in pool:
        assert st.add(EMPTY, s) == s
        assert st.add(s, EMPTY) == s


def test_mask_addition_halves():
    assert st.add(S("{y.g @ 1/2 = 0}"), S("{y.g @ 1/2 = 0}")) == S("{y.g @ 1 = 0}")


def test_heap_disagreement_undefined():
    assert st.add(S("{x.f @ 1/2 = y}"), S("{x.f @ 1/2 = z}")) is None


@given(states, states)
def test_addition_commutes(a, b):
    assert st.add(a, b) == st.add(b, a)


@settings(max_examples=300)
@given(states, states, states)
def test_addition_associates(a, b, c):
    ab = st.add(a, b)
    bc = st.add(b, c)
    lhs = st.add(ab, c) if ab is not None else None
    rhs = st.add(a, bc) if bc is not None else None
    assert lhs == rhs


# -- core and stability -----------------------------------------------------------


def test_core_zeroes_mask_keeps_heap():
    assert st.core(S("{x.f @ 1 = y}")) == S("{x.f @ 0 = y}")
    assert st.core(EMPTY) == EMPTY


def test_core_idempotent_exhaustively(pool):
    for s in pool:
        assert st.core(st.core(s)) == st.core(s)
        assert st.add(s, st.core(s)) == s
        assert st.add(st.core(s), st.core(s)) == st.core(s)


def test_stability():
    assert st.is_stable(S("{x.f @ 1/2 = y}"))
    assert not st.is_stable(S("{x.f @ 0 = y}"))
    assert st.is_stable(EMPTY)


def test_stability_closed_under_addition(pool):
    stable = [s for s in pool if st.is_stable(s)]
    for a in stable:
        for b in stable:
            s = st.add(a, b)
            if s is not None:
                assert st.is_stable(s)


# -- order and subtraction -----------------------------------------------------------


def test_geq_empty_is_bottom(pool):
    for s in pool:
        assert st.geq(s, EMPTY)


def test_sub_keeps_full_heap():
    a = S("{x.f @ 1 = y, y.g @ 1 = 0}")
    b = S("{y.g @ 1 = 0}")
    # the maximal remainder keeps the minuend's whole heap
    assert st.sub(a, b) == S("{x.f @ 1 = y, y.g @ 0 = 0}")


def test_sub_is_largest_remainder(pool):
    # independent oracle: enumerate every r with a = b (+) r and check the
    # subtraction dominates them all
    sample = pool[:: max(1, len(pool) // 14)]
    for a in sample:
        for b in sample:
            if not st.geq(a, b):
                continue
            r0 = st.sub(a, b)
            assert st.add(b, r0) == a
            for r in pool:
                if st.add(b, r) == a:
                    assert st.geq(r0, r)


def test_sub_contract_violation():
    with pytest.raises(st.StateError):
        st.sub(EMPTY, S("{x.f @ 1 = y}"))


def test_compatible_mask_overflow():
    assert not st.compatible(S("{x.f @ 1 = y}"), S("{x.f @ 1/2 = y}"))


# -- scaling ---------------------------------------------------------------------------


def test_mult_examples():
    s = S("{x.f @ 1 = y}")
    assert st.mult(Fraction(1), s) == s
    assert st.mult(HALF, s) == S("{x.f @ 1/2 = y}")
    assert st.mult(Fraction(2), s) is None
    assert st.mult(Fraction(2), S("{x.f @ 1/2 = y}")) == s


@pytest.mark.parametrize("alpha", [0, Fraction(0), Fraction(-1, 2)], ids=repr)
def test_mult_refuses_a_factor_that_is_not_positive(alpha):
    with pytest.raises(st.StateError, match="positive"):
        st.mult(alpha, S("{x.f @ 1 = y}"))


def test_mult_distributes_over_add(pool):
    sample = pool[:: max(1, len(pool) // 20)]
    for a in sample:
        for b in sample:
            s = st.add(a, b)
            if s is None:
                continue
            lhs = st.mult(HALF, s)
            rhs = st.add(st.mult(HALF, a), st.mult(HALF, b))
            assert lhs == rhs


def test_exists_compatible_scaled_closed_form_vs_search(pool):
    # the closed form must agree with direct alpha search over a fine lattice
    alphas = [Fraction(i, 8) for i in range(1, 9)]
    sample = pool[:: max(1, len(pool) // 22)]
    for sa in sample:
        for sw in sample:
            searched = any(
                st.mult(al, sw) is not None and st.compatible(sa, st.mult(al, sw))
                for al in alphas
            )
            closed = st.exists_compatible_scaled(sa, sw)
            if searched:
                assert closed
            if not closed:
                assert not searched


def test_exists_compatible_scaled_examples():
    assert st.exists_compatible_scaled(S("{x.f @ 1/2 = 0}"), S("{x.f @ 1 = 0}"))
    assert not st.exists_compatible_scaled(S("{x.f @ 1 = y}"), S("{x.f @ 1/2 = z}"))
    assert st.exists_compatible_scaled(EMPTY, S("{x.f @ 1 = y}"))


# -- the restriction transform ------------------------------------------------------------


def test_restrict_caps_at_remaining_permission():
    assert st.restrict(S("{x.f @ 1/2 = 0}"), S("{x.f @ 1 = 0}")) == S("{x.f @ 1/2 = 0}")


def test_restrict_guard_case_returns_unchanged():
    sw = S("{x.f @ 1/2 = z}")
    assert st.restrict(S("{x.f @ 1 = y}"), sw) == sw


def test_restrict_disjoint_keeps_everything():
    assert st.restrict(S("{x.g @ 1 = 0}"), S("{x.f @ 1 = 0}")) == S("{x.f @ 1 = 0}")


def test_restrict_heap_preserved_and_two_cases(pool):
    for sa in pool[:: max(1, len(pool) // 16)]:
        for sw in pool[:: max(1, len(pool) // 16)]:
            r = st.restrict(sa, sw)
            assert r.heap == sw.heap
            assert st.geq(sw, r)
            if r != sw:
                # second case: every scaled copy of the result is compatible
                assert st.exists_compatible_scaled(sa, r)
                for al in [Fraction(i, 4) for i in range(1, 5)]:
                    scaled = st.mult(al, r)
                    assert scaled is None or st.compatible(sa, scaled)


def test_bin_mask():
    assert st.bin_mask(S("{x.f @ 1/2 = y, x.g @ 1 = 0}")) == S("{x.g @ 1 = 0, x.f @ 0 = y}")


# -- enumeration ---------------------------------------------------------------------------


def test_enumeration_budget():
    with pytest.raises(st.BudgetExceeded):
        list(st.enumerate_states(TINY, budget=3))


def test_enumeration_counts():
    all_states = POOL
    assert len(all_states) == st.count_states(TINY)
    assert len(set(all_states)) == len(all_states)
    stable = list(st.enumerate_states(TINY, stable_only=True))
    assert all(st.is_stable(s) for s in stable)
    assert set(stable) <= set(all_states)


def test_minimal_elements():
    pool = [EMPTY, S("{x.f @ 1/2 = y}"), S("{x.f @ 1 = y}")]
    assert st.minimal_elements(pool) == [EMPTY]


# -- normal form of the kernel's results ---------------------------------------------------
#
# The algebra builds its results without State.make's sorting and checks, on
# the strength of its inputs being normal; each result must be exactly what
# State.make would build, and equal a dict-based reference written here.
# The oracle runs on this kernel too, so these keep it honest.

RICH = parse_universe_text(
    """
    universe v1
    granularity 2
    refs x, y
    loc x.f: int {0, 1}
    loc y.f: int {0, 1}
    pred Cell(r) = acc(r.f)
    """
)
RICH_POOL = list(st.enumerate_states(RICH))
mixed_states = states | strat.sampled_from(RICH_POOL)
ALPHAS = [Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)]


def assert_normal(r):
    made = st.State.make(r.mask, r.heap)
    assert r.mask == made.mask and r.heap == made.heap
    assert all(type(amt) is Fraction and amt > 0 for _, amt in r.mask)


def ref_add(a, b):
    ah, bh = a.heap_dict(), b.heap_dict()
    if any(loc in bh and bh[loc] != v for loc, v in ah.items()):
        return None
    m = a.mask_dict()
    for rid, amt in b.mask:
        m[rid] = m.get(rid, 0) + amt
    if any(amt > 1 for amt in m.values()):
        return None
    return st.State.make(m, {**ah, **bh})


def ref_mult(alpha, s):
    m = {rid: alpha * amt for rid, amt in s.mask}
    if any(amt > 1 for amt in m.values()):
        return None
    return st.State.make(m, s.heap_dict())


def ref_sub(a, b):
    bm = b.mask_dict()
    return st.State.make({rid: amt - bm.get(rid, 0) for rid, amt in a.mask}, a.heap_dict())


def ref_restrict(sa, sw):
    am, ah = sa.mask_dict(), sa.heap_dict()
    agree = all(ah.get(loc, v) == v for loc, v in sw.heap)
    if not agree or any(am.get(rid, 0) >= 1 for rid, _ in sw.mask):
        return sw
    return st.State.make({rid: min(amt, 1 - am.get(rid, 0)) for rid, amt in sw.mask}, sw.heap_dict())


def ref_bin_mask(s):
    return st.State.make({rid: amt for rid, amt in s.mask if amt == 1}, s.heap_dict())


def check_binary_ops(a, b):
    for got, want in [
        (st.add(a, b), ref_add(a, b)),
        (st.restrict(a, b), ref_restrict(a, b)),
        (st.sub(a, b) if st.geq(a, b) else None, ref_sub(a, b) if st.geq(a, b) else None),
    ]:
        assert got == want
        if got is not None:
            assert_normal(got)


def check_unary_ops(s):
    for got, want in [(st.core(s), st.State.make({}, s.heap_dict())), (st.bin_mask(s), ref_bin_mask(s))]:
        assert got == want
        assert_normal(got)
    for alpha in ALPHAS:
        got = st.mult(alpha, s)
        assert got == ref_mult(alpha, s)
        if got is not None:
            assert_normal(got)


def test_kernel_results_normal_exhaustively(pool):
    for a in pool:
        check_unary_ops(a)
        for b in pool:
            check_binary_ops(a, b)


@settings(max_examples=400)
@given(mixed_states, mixed_states)
def test_kernel_results_normal(a, b):
    check_unary_ops(a)
    check_binary_ops(a, b)
    # sums of states reach the unions and subtractions enumeration never yields
    ab = st.add(a, b)
    if ab is not None:
        check_binary_ops(ab, a)
        check_binary_ops(ab, b)
        check_unary_ops(ab)


def ref_enumerate(u, stable_only=False):
    """The enumeration order, with every state built by State.make."""
    fracs = u.fraction_lattice()
    locs = u.sorted_locations()
    per_loc = []
    for loc in locs:
        opts = []
        for p in fracs:
            if p == 0:
                opts.append((p, None))
                if not stable_only:
                    opts.extend((p, v) for v in u.domain(loc))
            else:
                opts.extend((p, v) for v in u.domain(loc))
        per_loc.append(opts)
    preds = u.predicate_instances()
    for combo in itertools.product(*per_loc, *[fracs for _ in preds]):
        mask, heap = {}, {}
        for loc, (p, v) in zip(locs, combo[: len(locs)]):
            if p > 0:
                mask[loc] = p
            if v is not None:
                heap[loc] = v
        for pid, p in zip(preds, combo[len(locs):]):
            if p > 0:
                mask[pid] = p
        yield st.State.make(mask, heap)


ENUM_TEXT = """
universe v1
granularity {g}
refs y, x
loc y.f: int {{0, 1}}
loc x.f: int {{0}}
pred Cell(r) = acc(r.f)
"""
# at granularity 2 a second, binary predicate: six instances in all
APART = "pred Apart(r, s) = acc(r.f, 1/2) * acc(s.f, 1/2)\n"


@pytest.mark.parametrize(
    "text", [ENUM_TEXT.format(g=2) + APART, ENUM_TEXT.format(g=3)], ids=["granularity-2", "granularity-3"]
)
@pytest.mark.parametrize("stable_only", [False, True])
def test_enumeration_normal_and_in_reference_order(text, stable_only):
    u = parse_universe_text(text)
    got = list(st.enumerate_states(u, stable_only=stable_only))
    assert got == list(ref_enumerate(u, stable_only))
    assert len(got) == st.count_states(u, stable_only)
    for s in got:
        assert_normal(s)


# -- the pre-test of compiled wand checks -------------------------------------------

# POOL with its amounts also scaled by a third and by two thirds, off the lattice
THIRDS = POOL + [m for f in (Fraction(1, 3), Fraction(2, 3)) for s in POOL if (m := st.mult(f, s)) is not None]


@pytest.mark.parametrize("restricted", [False, True], ids=["standard", "combinable"])
@pytest.mark.parametrize("pool", [THIRDS, RICH_POOL], ids=["thirds", "rich"])
def test_addable_holds_exactly_where_the_sum_is_defined(pool, restricted):
    # a compiled wand check skips the pool state a exactly when this says no
    for a in pool:
        heap, mask = a.heap_dict(), a.mask_dict()
        for b in pool:
            fp = st.restrict(a, b) if restricted else b
            assert st.addable(heap, mask, b, restricted) == (st.add(a, fp) is not None), (a, b)


@pytest.mark.parametrize("pool", [THIRDS, RICH_POOL], ids=["thirds", "rich"])
def test_capped_is_restrict_once_addable(pool):
    # a compiled combinable check caps from the mask it already holds
    for a in pool:
        heap, mask = a.heap_dict(), a.mask_dict()
        for b in pool:
            if st.addable(heap, mask, b, True):
                assert st.capped(mask, b) == st.restrict(a, b), (a, b)


# -- the integer bound tests against Fraction arithmetic --------------------------------------
#
# The kernel decides sums against 1 and the order of amounts on numerators
# and denominators; each decision must be the one plain Fraction arithmetic
# gives, on every pair of amounts, at a field location and at a predicate
# instance.

AMOUNTS = [Fraction(0), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1)]
LOC = FieldLoc("x", "f")
CELL = PredInst("Cell", ("x",))


def single(rid, amt):
    return st.State.make({rid: amt}, {rid: 0} if isinstance(rid, FieldLoc) else {})


def check_bounds(rid, p, q):
    a, b = single(rid, p), single(rid, q)
    check_unary_ops(a)  # mult against ref_mult, at every factor in ALPHAS
    total = st.add(a, b)
    if p + q > 1:
        assert total is None
    else:
        assert total.mask_of(rid) == p + q and type(total.mask_of(rid)) is Fraction
    heap, mask = a.heap_dict(), a.mask_dict()
    assert st.addable(heap, mask, b, restricted=False) == (p + q <= 1)
    assert st.addable(heap, mask, b, restricted=True) == (q == 0 or p < 1)
    assert st.geq(a, b) == st.geq_dicts(heap, mask, b) == (p >= q)


@pytest.mark.parametrize("rid", [LOC, CELL], ids=str)
@pytest.mark.parametrize("p, q", itertools.product(AMOUNTS, AMOUNTS), ids=str)
def test_integer_bounds_agree_with_fraction_arithmetic(rid, p, q):
    check_bounds(rid, p, q)


def test_integer_bounds_agree_on_every_amount_up_to_fifths():
    # pairs such as 2/5 and 1/2 tell a*d + c*b from a*b + c*d
    amounts = sorted({Fraction(n, d) for d in range(1, 6) for n in range(d + 1)})
    for p, q in itertools.product(amounts, amounts):
        check_bounds(CELL, p, q)


def test_make_reads_every_input_form():
    mask = {LOC: HALF, CELL: 1, FieldLoc("x", "g"): 0}
    heap = {LOC: 0, FieldLoc("x", "g"): 1}
    want = st.State.make(list(mask.items()), list(heap.items()))
    for m, h in [(mask, heap), (MappingProxyType(mask), MappingProxyType(heap)), (iter(mask.items()), heap)]:
        assert st.State.make(m, h) == want
    assert want.mask == ((LOC, HALF), (CELL, Fraction(1)))
    assert want.heap == ((LOC, 0), (FieldLoc("x", "g"), 1))


@pytest.mark.parametrize("amt", [1, "1/2", Fraction(2, 3), "2/6", True], ids=repr)
def test_make_stores_every_amount_as_a_fraction(amt):
    (entry,) = st.State.make({CELL: amt}).mask
    assert type(entry[1]) is Fraction and entry[1] == Fraction(amt)


@pytest.mark.parametrize("amt", [0, "0", Fraction(0)], ids=repr)
def test_make_drops_zero_amounts(amt):
    assert st.State.make({CELL: amt, LOC: 1}, {LOC: 0}).mask == ((LOC, Fraction(1)),)


@pytest.mark.parametrize("amt", [Fraction(-1, 2), Fraction(3, 2), "-1/2", "3/2", -1, 2], ids=repr)
def test_make_refuses_amounts_outside_the_unit_interval(amt):
    with pytest.raises(st.StateError, match=r"outside \[0, 1\]"):
        st.State.make({CELL: amt})


# -- validation against a universe ----------------------------------------------------------

MIXED = parse_universe_text(U2_TEXT)  # x.b: bool, x.f and x.g: int {0}


@pytest.mark.parametrize(
    "loc, value, ok",
    [("b", False, True), ("b", 0, False), ("f", 0, True), ("f", False, False), ("b", 1, False), ("f", True, False)],
)
def test_validate_refuses_a_value_of_another_type(loc, value, ok):
    # 0 == False and 1 == True in Python, so membership alone let these through
    fl = FieldLoc("x", loc)
    s = st.State.make({fl: 1}, {fl: value})
    if ok:
        st.validate(s, MIXED)
    else:
        with pytest.raises(st.StateError, match=f"outside domain of x.{loc}"):
            st.validate(s, MIXED)


# -- the integer codec --------------------------------------------------------


CODEC_TEXT = """
universe v1
granularity 2
refs x
loc x.b: bool
loc x.f: int {0, 1}
pred Cell(r) = acc(r.f)
"""


def test_codec_decodes_every_state_it_encodes():
    u = parse_universe_text(CODEC_TEXT)
    codec = st.Codec(u)
    states = list(st.enumerate_states(u))
    N, V = codec.encode(states)
    assert N.shape == V.shape == (len(states), 3)
    assert V[:, 2].max() == 0  # a predicate column holds no value
    for s, nums, vals in zip(states, N.tolist(), V.tolist()):
        assert codec.decode(nums, u.granularity, vals) == s


def test_codec_options_encode_each_resource_option_alone():
    u = parse_universe_text(CODEC_TEXT)
    codec = st.Codec(u)
    for k, ((nums, vals), opts) in enumerate(zip(codec.options(), st.resource_options(u))):
        alone = [st.State.make([m] if m else [], [h] if h else []) for m, h in opts]
        N, V = codec.encode(alone)
        assert N[:, k].tolist() == nums.tolist() and V[:, k].tolist() == vals.tolist()
        assert N.sum() == nums.sum() and V.sum() == vals.sum()  # no other column is set


def test_codec_decodes_off_the_lattice_exactly_and_refuses_to_encode_there():
    u = parse_universe_text(CODEC_TEXT)
    codec = st.Codec(u)
    s = codec.decode([1, 3, 0], 6, [2, 1, 0])
    assert s.mask_dict() == {FieldLoc("x", "b"): Fraction(1, 6), FieldLoc("x", "f"): Fraction(1, 2)}
    assert s.heap_dict() == {FieldLoc("x", "b"): True, FieldLoc("x", "f"): 0}
    with pytest.raises(st.StateError, match="off the lattice"):
        codec.encode([s])


# -- order: ids and states are their own sort keys ------------------------------------------


def formula_state_key(s) -> tuple:
    return (
        tuple((formula_rid_key(r), a) for r, a in s.mask),
        tuple((formula_rid_key(l), (value_type(v), v)) for l, v in s.heap),
    )


MULTI_REF = """
universe v1
granularity 2
refs y, x, z
loc z.g: int {0}
loc x.g: int {0, 2, 10}
loc y.f: int {0, 1}
loc x.h: bool {false, true}
loc x.f: int {0}
pred Cell(r) = acc(r.f)
pred Apart(r, s) = acc(r.g, 1/2) * acc(s.g, 1/2)
"""


def test_order_matches_the_formula_on_generated_pools():
    rng = random.Random(24)
    universes = [parse_universe_text(MULTI_REF)]
    universes += [gen.random_universe(rng, rng.random() < 0.5, rng.choice([2, 3])) for _ in range(40)]
    kinds = set()
    for u in universes:
        assert u.sorted_locations() == sorted(u.locations, key=formula_rid_key)
        rids = [next(m[0] if m else h[0] for m, h in opts if m or h) for opts in st.resource_options(u)]
        assert rids == sorted(rids, key=formula_rid_key)
        assert rids == [*u.sorted_locations(), *u.predicate_instances()]
        pool = [gen.random_mixed_state(rng, u) for _ in range(20)]
        pool += [st.core(s) for s in pool]  # equal masks: the heaps decide
        for s in pool:
            mask, heap = list(s.mask), list(s.heap)
            rng.shuffle(mask)
            rng.shuffle(heap)
            made = st.State.make(mask, heap)
            assert made == s
            assert [r for r, _ in made.mask] == sorted((r for r, _ in mask), key=formula_rid_key)
            assert [l for l, _ in made.heap] == sorted((l for l, _ in heap), key=formula_rid_key)
            kinds.update(type(a) for r, _ in s.mask if isinstance(r, PredInst) for a in r.args)
            kinds.update(type(r) for r, _ in s.mask)
        for a in pool:
            for b in pool:
                assert (st.state_key(a) < st.state_key(b)) == (formula_state_key(a) < formula_state_key(b))
                assert (st.state_key(a) == st.state_key(b)) == (formula_state_key(a) == formula_state_key(b))
        assert st.minimal_elements(pool) == sorted(st.antichain(pool), key=formula_state_key)
        assert sorted(pool) == sorted(pool, key=formula_state_key)  # one universe: no key needed
    # the pool held predicate instances with ref, int and bool arguments, and wands
    assert kinds >= {str, int, bool, FieldLoc, PredInst, WandInst}


def test_integers_of_different_lengths_sort_by_value():
    u = parse_universe_text("universe v1\ngranularity 1\nrefs x\nloc x.g: int {2, 10, 0}\n")
    assert "loc x.g: int {0, 2, 10}" in format_universe(u)
    g = FieldLoc("x", "g")
    pool = [st.State.make({g: 1}, {g: v}) for v in (10, 0, 2)]
    assert [s.heap_value(g) for s in st.minimal_elements(pool)] == [0, 2, 10]
    assert [s.heap_value(g) for s in sat_states(parse_assertion_text("acc(x.g)"), plan(u), {"x": "x"})] == [0, 2, 10]
    assert [r.args for r in sorted([PredInst("P", (10,)), PredInst("P", (2,))])] == [(2,), (10,)]
