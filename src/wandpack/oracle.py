"""Brute-force semantic ground truth over enumerated universes.

Everything here is decided by exhaustive quantification on the
granularity lattice: satisfaction sets, footprint validity (standard and
restricted), minimal footprints, combinability, entailment, monotonic
purity, and binarity.  This module is the independent check for every
result the package algorithms produce — it never consults them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import states as st
from .assertions import Assertion, Wand, sat, wand_holds
from .exprs import Store, Unframed, eval_bool
from .states import State, bin_mask, count_states, enumerate_states, state_key
from .universe import Universe

STANDARD = "standard"
COMBINABLE = "combinable"


@dataclass(frozen=True)
class EnumerationPlan:
    """A bounded enumeration request over one universe."""

    universe: Universe
    stable_only: bool = False
    budget: int = 10**6

    def cardinality(self) -> int:
        return count_states(self.universe, self.stable_only)

    def states(self) -> list[State]:
        return list(enumerate_states(self.universe, stable_only=self.stable_only, budget=self.budget))


def plan(u: Universe, stable_only: bool = False, budget: int = 10**6) -> EnumerationPlan:
    return EnumerationPlan(u, stable_only=stable_only, budget=budget)


def sat_states(a: Assertion, p: EnumerationPlan, store: Store = {}) -> list[State]:
    """Exactly the enumerated states satisfying the assertion."""
    u = p.universe
    return sorted(
        (s for s in p.states() if sat(u, s, a, store, budget=p.budget)),
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
    lhs_pool: Optional[Iterable[State]] = None,
) -> bool:
    """Semantic footprint validity.

    Standard kind: combined with every compatible satisfying LHS state,
    the result satisfies the RHS.  Combinable kind: the footprint is
    first passed through the per-state restriction transform.
    """
    if not st.is_stable(sigma_w):
        raise ValueError("footprint candidates must be stable states")
    w = _as_kind(wand, kind)
    return wand_holds(p.universe, sigma_w, w, store, budget=p.budget, lhs=lhs_pool)


def lhs_states_of(w: Wand, p: EnumerationPlan, store: Store = {}) -> list[State]:
    from .assertions import lhs_states

    return lhs_states(p.universe, w.lhs, store, budget=p.budget)


def desugar_state(s: State, p: EnumerationPlan) -> list[State]:
    """All realizations of a state with predicate tokens replaced by their
    (scaled) body demands, forking over undetermined body values."""
    from .assertions import demands, desugar_predicates
    from .exprs import Lit
    from .universe import PredInst

    u = p.universe
    base_mask = {rid: amt for rid, amt in s.mask if not isinstance(rid, PredInst)}
    out = [State.make(base_mask, s.heap_dict())]
    for rid, amt in s.mask:
        if not isinstance(rid, PredInst):
            continue
        d = u.predicate(rid.name)
        from .assertions import assertion_substitute

        body = assertion_substitute(d.body, {prm: Lit(v) for prm, v in zip(d.params, rid.args)})
        body = desugar_predicates(body, u)
        variants = []
        for dm in demands(u, body, {}, {}, fresh="fork"):
            scaled = st.mult(amt, dm) if amt != 1 else dm
            if scaled is not None:
                variants.append(scaled)
        out = [
            grown
            for acc in out
            for v in variants
            for grown in [st.add(acc, v)]
            if grown is not None
        ]
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
    from .assertions import desugar_predicates

    w = _as_kind(wand, kind)
    plain = Wand(
        desugar_predicates(w.lhs, p.universe),
        desugar_predicates(w.rhs, p.universe),
        w.combinable,
    )
    realizations = desugar_state(sigma_w, p)
    if not realizations:
        return False  # no realization of the token bodies exists
    pool = lhs_states_of(plain, p, store)
    return all(
        is_footprint(fp, plain, kind, p, store, lhs_pool=pool) for fp in realizations
    )


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
    pool = lhs_states_of(w, p, store)
    stable = EnumerationPlan(u, stable_only=True, budget=p.budget).states()
    found = []
    for s in stable:
        if compatible_with_lhs and not any(st.compatible(a, s) for a in pool):
            continue
        if is_footprint(s, w, kind, p, store, lhs_pool=pool):
            found.append(s)
    return st.minimal_elements(found)


def sat_fraction(sigma: State, a: Assertion, frac: Fraction, p: EnumerationPlan, store: Store = {}) -> bool:
    """sigma satisfies a fraction ``frac`` of the assertion.

    Decided exactly by inverting the scaling (masks divide exactly with
    rational arithmetic), so it works for states off the enumeration
    lattice too.
    """
    whole = st.mult(Fraction(1) / frac, sigma) if frac != 1 else sigma
    return whole is not None and sat(p.universe, whole, a, store, budget=p.budget)


def check_combinable(
    a: Assertion, p: EnumerationPlan, store: Store = {}
) -> tuple[bool, Optional[tuple[Fraction, Fraction, State]]]:
    """Is the assertion combinable: does splitting into any two positive
    lattice fractions p+q <= 1 always recombine?

    Returns (verdict, counterexample); the counterexample is the witness
    (p, q, combined state) that satisfies the split but not the sum.
    The split fractions and split states range over the granularity
    lattice only; the recombination side is decided exactly.
    """
    u = p.universe
    fracs = [f for f in u.fraction_lattice() if f > 0]
    sats = sat_states(a, p, store)
    memo: dict[tuple[State, Fraction], bool] = {}

    def recombines(sigma: State, total: Fraction) -> bool:
        key = (sigma, total)
        if key not in memo:
            memo[key] = sat_fraction(sigma, a, total, p, store)
        return memo[key]

    # scale each satisfying state once per fraction; addition commutes, so
    # each unordered split is visited once: fp <= fq, and for fp == fq only
    # state pairs i <= j.  A skipped quadruple's mirror combines to the same
    # state and total and comes earlier in the full (fp, fq, s1, s2) order,
    # so the first failure, and with it the counterexample, is unchanged.
    scaled = [[m for s in sats if (m := st.mult(f, s)) is not None] for f in fracs]
    for i, fp in enumerate(fracs):
        for k in range(i, len(fracs)):
            fq = fracs[k]
            total = fp + fq
            if total > 1:
                break  # the lattice ascends
            rights = scaled[k]
            for j, left in enumerate(scaled[i]):
                for right in rights[j:] if k == i else rights:
                    combined = st.add(left, right)
                    if combined is None:
                        continue
                    if not recombines(combined, total):
                        return False, (fp, fq, combined)
    return True, None


def check_entailment(a: Assertion, b: Assertion, p: EnumerationPlan, store: Store = {}) -> bool:
    """Universal entailment over the enumerated states."""
    u = p.universe
    for s in p.states():
        if sat(u, s, a, store, budget=p.budget) and not sat(u, s, b, store, budget=p.budget):
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
    every = EnumerationPlan(u, stable_only=False, budget=p.budget).states()
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
    full = EnumerationPlan(u, stable_only=False, budget=p.budget)
    for s in full.states():
        if sat(u, s, a, store, budget=p.budget):
            if not sat(u, bin_mask(s), a, store, budget=p.budget):
                return False
    return True
