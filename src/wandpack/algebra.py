"""Executable law suite for the separation-algebra axioms.

Each axiom is evaluated exhaustively over all state tuples of an
enumerated universe.  Pair and triple quantifications run over a
precomputed addition table (built with numpy and cross-checked against
the public ``add`` on a deterministic sample); every failing report is
replayed through the public operations before being returned, so
counterexamples always reproduce outside this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import states as st
from .states import EMPTY, BudgetExceeded, State, enumerate_states
from .universe import Universe

AXIOMS = (
    "neutral",
    "commutativity",
    "associativity",
    "core-a",
    "core-b",
    "core-c",
    "stability-d",
    "positivity-e",
    "cancellativity-f",
)

# beyond this many states the quadratic table stops being practical
TABLE_BUDGET = 5000


@dataclass(frozen=True)
class AlgebraLawReport:
    axiom: str
    passed: bool
    counterexample: Optional[tuple[State, ...]] = None
    detail: str = ""


def _encode(states: list[State], u: Universe):
    """Dense integer encodings: permission numerators per resource id and
    per-location value codes (0 = absent)."""
    locs = u.sorted_locations()
    rids = list(locs) + u.predicate_instances()
    rid_pos = {r: i for i, r in enumerate(rids)}
    val_code = {
        loc: {v: i + 1 for i, v in enumerate(u.domain(loc))} for loc in locs
    }
    n = len(states)
    P = np.zeros((n, len(rids)), dtype=np.int64)
    H = np.zeros((n, len(locs)), dtype=np.int64)
    for i, s in enumerate(states):
        for rid, amt in s.mask:
            P[i, rid_pos[rid]] = amt.numerator * (u.granularity // amt.denominator)
        for loc, v in s.heap:
            H[i, rid_pos[loc]] = val_code[loc][v]
    return P, H, len(locs)


def _radixes(u: Universe) -> tuple[list[int], list[int]]:
    locs = u.sorted_locations()
    rids = locs + u.predicate_instances()
    perm_radix = [u.granularity + 2] * len(rids)
    heap_radix = [len(u.domain(loc)) + 2 for loc in locs]
    total = 1
    for r in perm_radix + heap_radix:
        total *= r
    if total >= 2**62:
        raise BudgetExceeded(total, 2**62)
    return perm_radix, heap_radix


def _radix_encode(P: np.ndarray, H: np.ndarray, perm_radix, heap_radix) -> np.ndarray:
    key = np.zeros(P.shape[:-1], dtype=np.int64)
    for c, r in enumerate(perm_radix):
        key = key * r + P[..., c]
    for c, r in enumerate(heap_radix):
        key = key * r + H[..., c]
    return key


def _build_add_table(states: list[State], u: Universe) -> np.ndarray:
    """A[i, j] = index of states[i] (+) states[j], or n when undefined.

    Row n is the 'undefined' sentinel, absorbing on both sides.
    """
    n = len(states)
    g = u.granularity
    P, H, nlocs = _encode(states, u)
    perm_radix, heap_radix = _radixes(u)
    keys = _radix_encode(P, H, perm_radix, heap_radix)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    A = np.full((n + 1, n + 1), n, dtype=np.int32)
    chunk = max(1, min(n, 8 * 10**6 // max(1, n)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        Psum = P[lo:hi, None, :] + P[None, :, :]
        ok = (Psum <= g).all(axis=2)
        Hl = H[lo:hi, None, :]
        Hr = H[None, :, :]
        clash = ((Hl != 0) & (Hr != 0) & (Hl != Hr)).any(axis=2)
        ok &= ~clash
        Hm = np.where(Hl != 0, Hl, np.broadcast_to(Hr, (hi - lo, n, nlocs)))
        key = _radix_encode(Psum, Hm, perm_radix, heap_radix)
        pos = np.searchsorted(sorted_keys, key)
        pos = np.clip(pos, 0, n - 1)
        found = sorted_keys[pos] == key
        res = order[pos].astype(np.int32)
        A[lo:hi, :n] = np.where(ok & found, res, np.int32(n))
    return A


def _cross_check(states: list[State], A: np.ndarray) -> None:
    """Spot-check the vectorized table against the public add operation."""
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    stride = max(1, n // 47)
    samples = [(i, j) for i in range(0, n, stride) for j in range(0, n, stride)]
    samples += [(i, i) for i in range(0, n, max(1, n // 100))]
    for i, j in samples:
        got = st.add(states[i], states[j])
        want = int(A[i, j])
        if got is None:
            assert want == n, f"table defines add({states[i]}, {states[j]}) but add() does not"
        else:
            assert want == idx[got], f"table disagrees with add() at ({i}, {j})"


def check_axioms(u: Universe) -> list[AlgebraLawReport]:
    """Evaluate axioms (a)-(f) plus the monoid laws exhaustively.

    Raises BudgetExceeded when the universe has more than 10^6 states (the
    enumeration bound), or more than the quadratic table can hold.
    """
    states = list(enumerate_states(u))
    n = len(states)
    if n > TABLE_BUDGET:
        raise BudgetExceeded(n, TABLE_BUDGET)
    idx = {s: i for i, s in enumerate(states)}
    A = _build_add_table(states, u)
    _cross_check(states, A)

    core_idx = np.array([idx[st.core(s)] for s in states] + [n], dtype=np.int32)
    stable = np.array([st.is_stable(s) for s in states] + [False])
    diag = A[np.arange(n), np.arange(n)]
    pure = np.concatenate([diag == np.arange(n), [False]])

    reports = [
        _neutral(states, idx, A),
        _commutativity(states, A),
        _associativity(states, A),
        _core_a(states, A, core_idx),
        _core_b(states, A, core_idx),
        _core_c(states, A, core_idx),
        _stability_d(states, idx, A, stable),
        _positivity_e(states, A, pure),
        _cancellativity_f(states, A, core_idx),
    ]
    return reports


def all_pass(reports: list[AlgebraLawReport]) -> bool:
    return all(r.passed for r in reports)


def _fail(axiom: str, cex: tuple[State, ...], detail: str) -> AlgebraLawReport:
    return AlgebraLawReport(axiom, False, cex, detail)


def _ok(axiom: str) -> AlgebraLawReport:
    return AlgebraLawReport(axiom, True)


def _neutral(states, idx, A) -> AlgebraLawReport:
    n = len(states)
    e = idx[EMPTY]
    row = A[e, :n]
    bad = np.nonzero(row != np.arange(n))[0]
    for j in bad:
        s = states[int(j)]
        if st.add(EMPTY, s) != s:  # replay through the public operation
            return _fail("neutral", (s,), "e (+) s differs from s")
    return _ok("neutral")


def _commutativity(states, A) -> AlgebraLawReport:
    n = len(states)
    body = A[:n, :n]
    bad = np.argwhere(body != body.T)
    for i, j in bad:
        a, b = states[int(i)], states[int(j)]
        if st.add(a, b) != st.add(b, a):
            return _fail("commutativity", (a, b), "a (+) b differs from b (+) a")
    return _ok("commutativity")


def _associativity(states, A) -> AlgebraLawReport:
    n = len(states)
    for i in range(n):
        left_rows = A[A[i, :n]][:, :n]  # (j, k) -> (a+b)+c
        right_rows = A[i][A[:n, :n]]  # (j, k) -> a+(b+c)
        bad = np.argwhere(left_rows != right_rows)
        for j, k in bad:
            a, b, c = states[i], states[int(j)], states[int(k)]
            ab = st.add(a, b)
            bc = st.add(b, c)
            lhs = st.add(ab, c) if ab is not None else None
            rhs = st.add(a, bc) if bc is not None else None
            if lhs != rhs:
                return _fail("associativity", (a, b, c), "(a+b)+c differs from a+(b+c)")
    return _ok("associativity")


def _core_a(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)
    xs = np.arange(n)
    ok = (A[xs, core_idx[:n]] == xs) & (A[core_idx[:n], core_idx[:n]] == core_idx[:n])
    for i in np.nonzero(~ok)[0]:
        s = states[int(i)]
        c = st.core(s)
        if st.add(s, c) != s or st.add(c, c) != c:
            return _fail("core-a", (s,), "x (+) |x| = x or |x| idempotence fails")
    return _ok("core-a")


def _core_b(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)
    pairs = np.argwhere(A[:n, :n] == np.arange(n)[:, None])
    for i, j in pairs:
        x, c = states[int(i)], states[int(j)]
        if not st.geq(st.core(x), c):
            return _fail("core-b", (x, c), "x = x (+) c but |x| does not contain c")
    return _ok("core-b")


def _core_c(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)
    body = A[:n, :n]
    lhs = core_idx[body]
    rhs = A[np.ix_(core_idx[:n], core_idx[:n])]
    # the axiom constrains only pairs whose sum is defined
    bad = np.argwhere((body != n) & (lhs != rhs))
    for i, j in bad:
        a, b = states[int(i)], states[int(j)]
        s = st.add(a, b)
        if s is not None and st.core(s) != st.add(st.core(a), st.core(b)):
            return _fail("core-c", (a, b), "|a (+) b| differs from |a| (+) |b|")
    return _ok("core-c")


def _stability_d(states, idx, A, stable) -> AlgebraLawReport:
    n = len(states)
    if not st.is_stable(EMPTY):
        return _fail("stability-d", (EMPTY,), "the empty state is not stable")
    body = A[:n, :n]
    viol = stable[:n, None] & stable[None, :n] & (body != n) & ~stable[body]
    bad = np.argwhere(viol)
    for i, j in bad:
        a, b = states[int(i)], states[int(j)]
        s = st.add(a, b)
        if s is not None and st.is_stable(a) and st.is_stable(b) and not st.is_stable(s):
            return _fail("stability-d", (a, b), "sum of stable states is unstable")
    return _ok("stability-d")


def _positivity_e(states, A, pure) -> AlgebraLawReport:
    n = len(states)
    body = A[:n, :n]
    viol = (body != n) & pure[body] & ~pure[:n, None]
    bad = np.argwhere(viol)
    for i, j in bad:
        a, b = states[int(i)], states[int(j)]
        c = st.add(a, b)
        if c is not None and st.is_pure(c) and not st.is_pure(a):
            return _fail("positivity-e", (a, b), "a pure sum has an impure summand")
    return _ok("positivity-e")


def _cancellativity_f(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)
    for b in range(n):
        row = A[b, :n].astype(np.int64)
        key = np.where(row != n, row * (n + 1) + core_idx[:n], np.int64(-1))
        order = np.argsort(key, kind="stable")
        ks = key[order]
        dup = np.nonzero((ks[1:] == ks[:-1]) & (ks[1:] >= 0))[0]
        for d in dup:
            x, y = int(order[d]), int(order[d + 1])
            sb, sx, sy = states[b], states[x], states[y]
            if (
                st.add(sb, sx) is not None
                and st.add(sb, sx) == st.add(sb, sy)
                and st.core(sx) == st.core(sy)
                and sx != sy
            ):
                return _fail(
                    "cancellativity-f",
                    (st.add(sb, sx), sb, sx, sy),
                    "b (+) x = b (+) y with |x| = |y| but x differs from y",
                )
    return _ok("cancellativity-f")
