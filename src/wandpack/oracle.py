"""Brute-force semantic ground truth over enumerated universes.

Everything here is decided by exhaustive quantification on the
granularity lattice: satisfaction sets, footprint validity (standard and
restricted), minimal footprints, combinability, entailment, monotonic
purity, and binarity.  This module is the independent check for every
result the package algorithms produce — it never consults them.

Every enumeration is bounded as ``states.enumerate_states`` bounds it: a
universe of more than 10^6 states raises ``BudgetExceeded`` before any
state is built.  Satisfying left-hand-side pools come from
``assertions.lhs_states``, enumerated and looked up through its module
at call time, never from the demand-built cases the package algorithms
start from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import assertions
from . import states as st
from .assertions import (
    Assertion,
    Wand,
    assertion_substitute,
    demands,
    desugar_predicates,
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
    """Exactly the enumerated states satisfying the assertion."""
    u = p.universe
    return sorted(
        (s for s in p.states() if sat(u, s, a, store)),
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
    return wand_holds(p.universe, sigma_w, w, store, lhs=lhs_pool)


def desugar_state(s: State, p: EnumerationPlan) -> list[State]:
    """All realizations of a state with predicate tokens replaced by their
    (scaled) body demands, forking over undetermined body values."""
    u = p.universe
    base_mask = {rid: amt for rid, amt in s.mask if not isinstance(rid, PredInst)}
    out = [State.make(base_mask, s.heap_dict())]
    for rid, amt in s.mask:
        if not isinstance(rid, PredInst):
            continue
        d = u.predicate(rid.name)
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
    w = _as_kind(wand, kind)
    plain = Wand(
        desugar_predicates(w.lhs, p.universe),
        desugar_predicates(w.rhs, p.universe),
        w.combinable,
    )
    realizations = desugar_state(sigma_w, p)
    if not realizations:
        return False  # no realization of the token bodies exists
    pool = assertions.lhs_states(p.universe, plain.lhs, store)
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
    pool = assertions.lhs_states(u, w.lhs, store)
    stable = EnumerationPlan(u, stable_only=True).states()
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
    return whole is not None and sat(p.universe, whole, a, store)


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
    # scale each satisfying state once per fraction; addition commutes, so
    # each unordered split is visited once: fp <= fq, and for fp == fq only
    # state pairs i <= j.  A skipped quadruple's mirror combines to the same
    # state and total and comes earlier in the full (fp, fq, s1, s2) order,
    # so the first failure, and with it the counterexample, is unchanged.
    scaled = [[m for s in sats if (m := st.mult(f, s)) is not None] for f in fracs]
    # f * s recombines at total f to the satisfying s itself, so those
    # splits (every fp == fq, i == j one among them) cost no sat call
    memo = {(m, f): True for f, ms in zip(fracs, scaled) for m in ms}

    def recombines(sigma: State, total: Fraction) -> bool:
        key = (sigma, total)
        if key not in memo:
            memo[key] = sat_fraction(sigma, a, total, p, store)
        return memo[key]

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
    for s in EnumerationPlan(u, stable_only=False).states():
        if sat(u, s, a, store):
            if not sat(u, bin_mask(s), a, store):
                return False
    return True
