"""Brute-force semantic ground truth over enumerated universes.

Everything here is decided by exhaustive quantification on the
granularity lattice: satisfaction sets, footprint validity (standard and
restricted), minimal footprints, combinability, entailment, monotonic
purity, and binarity.  This module is the independent check for every
result the package algorithms produce — it never consults them.

Each query enumerates the sub-universe its assertions reach
(``assertions.reach``), which decides it for the whole universe.  Every
enumeration is bounded as ``states.enumerate_states`` bounds it: a
sub-universe of more than 10^6 states raises ``BudgetExceeded`` before
any state is built.  Satisfying left-hand-side pools come from
``assertions.lhs_states``, enumerated and looked up through its module
at call time, never from the demand-built cases the package algorithms
start from.

Footprint validity runs in an ``assertions.WandCheck``, built once per
universe, wand and store: it fetches the pool once, skips each pool
state the exact pre-test ``states.addable`` finds incompatible before
adding, and memoises the right-hand side's verdict per combined state
(at most ``assertions.MEMO_LIMIT`` of them).  Every query shares the
cached check of ``assertions.wand_check``, which keeps at most
``assertions.CHECK_LIMIT`` and drops a universe's with it, except
``audit_footprint``: its desugared wand is new on every call, so it
builds one uncached check for all the realizations of its candidate.

``check_combinable`` recombines pairs of satisfying states a block at a
time on the integer codes of ``states.Codec``, with numpy, and calls
``sat`` once per recombined state it cannot look up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import assertions
from . import states as st
from .assertions import (
    Assertion,
    PredA,
    Wand,
    desugar_predicates,
    grow,
    reach,
    sat,
    wand_holds,
)
from .exprs import Lit, Store, Unframed, eval_bool
from .states import State, bin_mask, enumerate_states, state_key
from .universe import PredInst, Universe

STANDARD = "standard"
COMBINABLE = "combinable"


@dataclass(frozen=True)
class EnumerationPlan:
    """An enumeration request over one universe, bounded as
    ``states.enumerate_states`` bounds every enumeration."""

    universe: Universe
    stable_only: bool = False

    def states(self) -> list[State]:
        return list(enumerate_states(self.universe, stable_only=self.stable_only))


def plan(u: Universe, stable_only: bool = False) -> EnumerationPlan:
    return EnumerationPlan(u, stable_only=stable_only)


def sat_states(a: Assertion, p: EnumerationPlan, store: Store = {}) -> list[State]:
    """Exactly the states of the sub-universe ``a`` reaches satisfying it."""
    u = p.universe
    return sorted(
        (s for s in EnumerationPlan(reach(u, a), p.stable_only).states() if sat(u, s, a, store)),
        key=state_key,
    )


def _as_kind(w: Wand, kind: str) -> Wand:
    if kind not in (STANDARD, COMBINABLE):
        raise ValueError(f"unknown wand kind {kind!r}")
    return Wand(w.lhs, w.rhs, combinable=(kind == COMBINABLE))


def is_footprint(
    sigma_w: State,
    wand: Wand,
    kind: str,
    p: EnumerationPlan,
    store: Store = {},
) -> bool:
    """Semantic footprint validity.

    Standard kind: combined with every compatible satisfying LHS state,
    the result satisfies the RHS.  Combinable kind: the footprint is
    first passed through the per-state restriction transform.
    """
    _require_stable(sigma_w)
    w = _as_kind(wand, kind)
    return wand_holds(p.universe, sigma_w, w, store)


def _require_stable(sigma_w: State) -> None:
    if not st.is_stable(sigma_w):
        raise ValueError("footprint candidates must be stable states")


def desugar_state(s: State, p: EnumerationPlan) -> list[State]:
    """All realizations of a state with predicate tokens replaced by the
    demands of their bodies, scaled by the token's amount first as
    ``desugar_predicates`` scales them: ``assertions.grow`` adds each
    token's body to every realization so far, forking over body values
    the realization leaves undetermined and dropping undefined sums."""
    u = p.universe
    base_mask = {rid: amt for rid, amt in s.mask if not isinstance(rid, PredInst)}
    out = [State.make(base_mask, s.heap_dict())]
    for rid, amt in s.mask:
        if isinstance(rid, PredInst):
            body = desugar_predicates(PredA(rid.name, tuple(map(Lit, rid.args)), amt), u)
            out = [grown for acc in out for grown in grow(u, body, acc, {})]
    return sorted(set(out), key=state_key)


def audit_footprint(
    sigma_w: State, wand: Wand, kind: str, p: EnumerationPlan, store: Store = {}
) -> bool:
    """The --audit check: footprint validity against the *desugared* wand.

    Predicate instances are definitionally equal to their bodies, so a
    package justified through fold/unfold scripts is sound exactly when
    the token-free reading holds; a footprint carrying tokens must be
    valid under every realization of their bodies.

    Wand atoms nested inside the audited right-hand side are still read
    semantically while footprints carry them as opaque instances, so an
    audit of a wand-returning wand can flag a sound package; the audit is
    conservative in that direction, never the other.
    """
    w = _as_kind(wand, kind)
    plain = Wand(
        desugar_predicates(w.lhs, p.universe),
        desugar_predicates(w.rhs, p.universe),
        w.combinable,
    )
    realizations = desugar_state(sigma_w, p)
    if not realizations:
        return False  # no realization of the token bodies exists
    check = assertions.WandCheck(p.universe, plain, store)
    for fp in realizations:
        _require_stable(fp)
        if not check.holds(fp):
            return False
    return True


def minimal_footprints(
    wand: Wand,
    kind: str,
    p: EnumerationPlan,
    store: Store = {},
    compatible_with_lhs: bool = False,
) -> list[State]:
    """The antichain of order-minimal stable footprints among enumerated
    states.  ``compatible_with_lhs`` drops footprints that falsify the
    left-hand side outright (those that no satisfying state can join)."""
    u = p.universe
    w = _as_kind(wand, kind)
    check = assertions.wand_check(u, w, store)
    found = []
    for s in EnumerationPlan(reach(u, w), stable_only=True).states():
        if compatible_with_lhs and not any(st.compatible(a, s) for a in check.pool):
            continue
        if check.holds(s):
            found.append(s)
    return st.minimal_elements(found)


# at most this many entries in any one array of the combinability sweep
SWEEP_ENTRIES = 1 << 16


def check_combinable(
    a: Assertion, p: EnumerationPlan, store: Store = {}
) -> tuple[bool, Optional[tuple[Fraction, Fraction, State]]]:
    """Is the assertion combinable: does splitting into any two positive
    lattice fractions p+q <= 1 always recombine?

    Returns (verdict, counterexample); the counterexample is the witness
    (p, q, combined state) that satisfies the split but not the sum.
    The split fractions and split states range over the granularity
    lattice only; the recombination side is decided exactly.

    The sweep runs on ``states.Codec`` codes: with p = kp/g and q = kq/g,
    states j and l combine to kp*N[j] + kq*N[l] over g², wherever their
    heaps agree.  No sum can be over-full (it holds at most p + q <= 1),
    nor the whole it recombines to (a weighted mean of amounts <= 1).
    Each unordered split is visited once: kp <= kq, and j <= l when
    kp == kq; a skipped mirror gives the same state and total and comes
    earlier in the full ordered sweep, so the first counterexample is
    unchanged.  Each distinct (total, combined state) is decided once:
    true when its whole is a satisfying state, else by ``sat`` on the
    exact whole.
    """
    u = p.universe
    g = u.granularity
    sats = sat_states(a, p, store)
    codec = st.Codec(reach(u, a))
    N, V = codec.encode(sats)
    satisfying = set(map(tuple, np.hstack((N, V)).tolist()))
    verdicts: dict[tuple, bool] = {}

    def recombines(total: int, nums: list, vals: list) -> bool:
        # the whole holds nums[i] / (g * total) of each resource
        if all(c % total == 0 for c in nums) and (*(c // total for c in nums), *vals) in satisfying:
            return True
        return sat(u, codec.decode(nums, g * total, vals), a, store)

    for kp in range(1, g + 1):
        for kq in range(kp, g - kp + 1):
            total = kp + kq
            for js, ls in _agreeing_pairs(V, upper=kp == kq):
                sums = (kp * N[js] + kq * N[ls]).tolist()
                heaps = np.maximum(V[js], V[ls]).tolist()
                for j, l, nums, vals in zip(js.tolist(), ls.tolist(), sums, heaps):
                    key = (total, *nums, *vals)
                    ok = verdicts.get(key)
                    if ok is None:
                        ok = verdicts[key] = recombines(total, nums, vals)
                    if not ok:
                        fp, fq = Fraction(kp, g), Fraction(kq, g)
                        return False, (fp, fq, st.add(st.mult(fp, sats[j]), st.mult(fq, sats[l])))
    return True, None


def _agreeing_pairs(V: np.ndarray, upper: bool):
    """Index arrays (js, ls), one block at a time, of the pairs of rows of
    ``V`` whose value codes agree wherever both are set: in order of j,
    then l, with l >= j when ``upper``.  Rows go in blocks, and one row in
    column blocks where it is too wide, so that no array built here or
    from one block's pairs holds more than ``SWEEP_ENTRIES`` entries (a
    single pair is the smallest block)."""
    m, R = V.shape
    width = max(1, R)
    cols = max(1, min(m, SWEEP_ENTRIES // width))
    rows = max(1, SWEEP_ENTRIES // (cols * width)) if cols == m else 1
    for j0 in range(0, m, rows):
        j1 = min(m, j0 + rows)
        for l0 in range(j0 if upper else 0, m, cols):
            l1 = min(m, l0 + cols)
            Vj, Vl = V[j0:j1, None], V[None, l0:l1]
            ok = ((Vj == Vl) | (Vj == 0) | (Vl == 0)).all(axis=2)
            if upper:
                ok &= np.arange(l0, l1) >= np.arange(j0, j1)[:, None]
            js, ls = np.nonzero(ok)
            yield js + j0, ls + l0


def check_entailment(a: Assertion, b: Assertion, p: EnumerationPlan, store: Store = {}) -> bool:
    """Universal entailment over the enumerated states."""
    u = p.universe
    for s in EnumerationPlan(reach(u, a, b), p.stable_only).states():
        if sat(u, s, a, store) and not sat(u, s, b, store):
            return False
    return True


def check_mono_pure(e, p: EnumerationPlan, store: Store = {}) -> bool:
    """Monotonic purity of a state predicate: once true, adding pure
    (heap-value-only) resources keeps it true.

    Accepts a boolean expression (read with unframed evaluation as false —
    which this check confirms is always monotone, the point of that
    encoding) or an arbitrary callable State -> bool for semantic
    assertions beyond the expression grammar.
    """
    u = p.universe
    every = EnumerationPlan(u, stable_only=False).states()
    pures = [s for s in every if st.is_pure(s)]

    if callable(e) and not isinstance(e, tuple):
        holds = e
    else:

        def holds(s: State) -> bool:
            try:
                return eval_bool(e, s.heap_dict(), store)
            except Unframed:
                return False

    for s in every:
        if not holds(s):
            continue
        for q in pures:
            grown = st.add(s, q)
            if grown is not None and not holds(grown):
                return False
    return True


def is_binary(a: Assertion, p: EnumerationPlan, store: Store = {}) -> bool:
    """Preserved under the binary restriction of masks: every satisfying
    state still satisfies after sub-full permissions are zeroed."""
    u = p.universe
    for s in EnumerationPlan(reach(u, a), stable_only=False).states():
        if sat(u, s, a, store):
            if not sat(u, bin_mask(s), a, store):
                return False
    return True
