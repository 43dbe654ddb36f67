"""Executable law suite for the separation-algebra axioms.

Each axiom is decided over all state tuples of an enumerated universe,
on a precomputed addition table.  States are the product of per-resource
options and addition acts on each resource alone, so the table is
composed from one small table per resource in O(n²) work, then
cross-checked against the public ``add`` on a deterministic sample.
Associativity is decided on a generating set by Light's test: the
entries m with (x+m)+y = x+(m+y) for all x, y are closed under addition,
so the table is associative exactly when its generators are such
entries, at n² work per generator instead of n³.  Every failing report
is replayed through the public operations before being returned, so
counterexamples always reproduce outside this module.
"""

from __future__ import annotations

import math
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


def _resource_table(p: np.ndarray, h: np.ndarray, g: int, undefined: int) -> np.ndarray:
    """T[a, b] = the option index of option a (+) option b of one resource:
    numerators sum to at most g, and value codes agree or one is absent."""
    at = np.full((g + 1, h.max() + 1), undefined, dtype=np.int32)
    at[p, h] = np.arange(len(p))
    s = p[:, None] + p[None, :]
    hl, hr = h[:, None], h[None, :]
    ok = (s <= g) & ((hl == 0) | (hr == 0) | (hl == hr))
    return np.where(ok, at[np.minimum(s, g), np.maximum(hl, hr)], undefined)


def _build_add_table(codes, g: int) -> np.ndarray:
    """A[i, j] = index of states[i] (+) states[j], or n when undefined,
    for the states of the universe whose resources ``Codec.options`` gave.

    Row n is the 'undefined' sentinel, absorbing on both sides.  States
    are the product of the resources' options, the first varying slowest,
    so the table is the product of one small table per resource: with C
    the table over the later resources, the sum of (a, x) and (b, y) is
    T[a, b] * len(C) + C[x, y], undefined where either part is.  Every
    undefined entry is kept at n or above, so one clamp per step keeps
    it at n; the last step writes into A itself.
    """
    n = math.prod(len(p) for p, _ in codes)
    A = np.empty((n + 1, n + 1), dtype=np.int32)
    A[n], A[:, n] = n, n
    A[0, 0] = 0  # the empty state alone, where there are no resources
    C = np.zeros((1, 1), dtype=np.int32)
    for k in reversed(range(len(codes))):
        T = _resource_table(*codes[k], g, n) * len(C)
        m = len(T) * len(C)
        out = A[:n, :n] if k == 0 else np.empty((m, m), dtype=np.int32)
        step = out.reshape(len(T), len(C), len(T), len(C))
        np.add(T[:, None, :, None], C[None, :, None, :], out=step)
        np.minimum(out, n, out=out)  # on the 4-d view, numpy would copy
        C = out
    return A


def _cross_check(states: list[State], idx: dict, A: np.ndarray) -> None:
    """Spot-check the vectorized table against the public add operation;
    ``idx`` maps each state to its row."""
    n = len(states)
    stride = max(1, n // 47)
    samples = [(i, j) for i in range(0, n, stride) for j in range(0, n, stride)]
    samples += [(i, i) for i in range(0, n, max(1, n // 100))]
    for i, j in samples:
        got = st.add(states[i], states[j])
        want = int(A[i, j])
        # explicit raises: the check must survive python -O
        if got is None and want != n:
            raise AssertionError(f"table defines add({states[i]}, {states[j]}) but add() does not")
        if got is not None and want != idx[got]:
            raise AssertionError(f"table disagrees with add() at ({i}, {j})")


def check_axioms(u: Universe) -> list[AlgebraLawReport]:
    """Evaluate axioms (a)-(f) plus the monoid laws over every state tuple,
    associativity by Light's test on a generating set (module docstring).

    Raises BudgetExceeded when the universe has more than 10^6 states (the
    enumeration bound), or more than the quadratic table can hold.
    """
    states = list(enumerate_states(u))
    n = len(states)
    if n > TABLE_BUDGET:
        raise BudgetExceeded(n, TABLE_BUDGET)
    idx = {s: i for i, s in enumerate(states)}
    codec = st.Codec(u)
    A = _build_add_table(codec.options(), u.granularity)
    _cross_check(states, idx, A)
    P, H = codec.encode(states)

    core_idx = np.array([idx[st.core(s)] for s in states] + [n], dtype=np.int32)
    stable = np.array([st.is_stable(s) for s in states] + [False])
    diag = A[np.arange(n), np.arange(n)]
    pure = np.concatenate([diag == np.arange(n), [False]])

    reports = [
        _neutral(states, idx, A),
        _commutativity(states, A),
        _associativity(states, A),
        _core_a(states, A, core_idx),
        _core_b(states, A, P, H),
        _core_c(states, A, core_idx),
        _stability_d(states, idx, A, stable),
        _positivity_e(states, A, pure),
        _cancellativity_f(states, A, core_idx),
    ]
    return reports


def all_pass(reports: list[AlgebraLawReport]) -> bool:
    return all(r.passed for r in reports)


def _replay(axiom: str, candidates, law, detail: str) -> AlgebraLawReport:
    """The first candidate tuple the public operations confirm as a
    counterexample (``law`` false on it), or a pass.  A lawful table
    nominates no candidates, so replay costs nothing there."""
    for cex in candidates:
        if not law(*cex):
            return AlgebraLawReport(axiom, False, cex, detail)
    return AlgebraLawReport(axiom, True)


def _at(states, rows):
    """The state tuples of index tuples, in order and lazily."""
    return (tuple(states[int(i)] for i in row) for row in rows)


def _neutral(states, idx, A) -> AlgebraLawReport:
    n = len(states)
    bad = _at(states, np.argwhere(A[idx[EMPTY], :n] != np.arange(n)))
    return _replay("neutral", bad, lambda s: st.add(EMPTY, s) == s, "e (+) s differs from s")


def _commutativity(states, A) -> AlgebraLawReport:
    n = len(states)
    body = A[:n, :n]
    bad = np.argwhere(body != body.T)
    return _replay(
        "commutativity",
        _at(states, bad),
        lambda a, b: st.add(a, b) == st.add(b, a),
        "a (+) b differs from b (+) a",
    )


def _generators(A) -> list[int]:
    """A generating set of the totalised table: the sentinel, the irreducible
    entries (no sum of two other entries), then the first entry the
    left-bracketed closure misses, while it misses one."""
    m = len(A)
    ids = np.arange(m)
    reducible = np.zeros(m, dtype=bool)
    reducible[A[(A != ids[:, None]) & (A != ids[None, :])]] = True
    gens = [m - 1] + np.nonzero(~reducible[:-1])[0].tolist()
    reached = np.zeros(m, dtype=bool)
    frontier = np.array(gens)
    reached[frontier] = True
    while True:
        while frontier.size:
            out = np.unique(A[np.ix_(frontier, gens)])
            frontier = out[~reached[out]]
            reached[frontier] = True
        if reached.all():
            return gens
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        frontier = np.nonzero(reached)[0]


def _table_associative(A) -> bool:
    """Light's test where A commutes, so x+(g+y) is (y+g)+x: one gather and
    its transpose per generator.  Other tables are left to the triple scan."""
    return np.array_equal(A, A.T) and all(
        np.array_equal(L := A[A[:, g]], L.T) for g in _generators(A)
    )


def _associativity(states, A) -> AlgebraLawReport:
    def triples():  # the triple scan, run only on a table Light's test refuses
        n = len(states)
        for i in range(n):
            left_rows = A[A[i, :n]][:, :n]  # (j, k) -> (a+b)+c
            right_rows = A[i][A[:n, :n]]  # (j, k) -> a+(b+c)
            for j, k in np.argwhere(left_rows != right_rows):
                yield states[i], states[int(j)], states[int(k)]

    def law(a, b, c):
        ab, bc = st.add(a, b), st.add(b, c)
        lhs = st.add(ab, c) if ab is not None else None
        return lhs == (st.add(a, bc) if bc is not None else None)

    candidates = () if _table_associative(A) else triples()
    return _replay("associativity", candidates, law, "(a+b)+c differs from a+(b+c)")


def _core_a(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)
    xs = np.arange(n)
    ok = (A[xs, core_idx[:n]] == xs) & (A[core_idx[:n], core_idx[:n]] == core_idx[:n])
    return _replay(
        "core-a",
        _at(states, np.argwhere(~ok)),
        lambda s: st.add(s, c := st.core(s)) == s and st.add(c, c) == c,
        "x (+) |x| = x or |x| idempotence fails",
    )


def _core_b(states, A, P, H) -> AlgebraLawReport:
    n = len(states)
    pairs = np.argwhere(A[:n, :n] == np.arange(n)[:, None])
    xs, cs = pairs[:, 0], pairs[:, 1]
    # c <= |x|: c holds no permission and each value of c's heap is x's
    below = ~P[cs].any(axis=1) & ((H[cs] == 0) | (H[cs] == H[xs])).all(axis=1)
    return _replay(
        "core-b",
        _at(states, pairs[~below]),
        lambda x, c: st.geq(st.core(x), c),
        "x = x (+) c but |x| does not contain c",
    )


def _core_c(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)
    body = A[:n, :n]
    lhs = core_idx[body]
    rhs = A[np.ix_(core_idx[:n], core_idx[:n])]
    # the axiom constrains only pairs whose sum is defined
    bad = np.argwhere((body != n) & (lhs != rhs))
    return _replay(
        "core-c",
        _at(states, bad),
        lambda a, b: (s := st.add(a, b)) is None or st.core(s) == st.add(st.core(a), st.core(b)),
        "|a (+) b| differs from |a| (+) |b|",
    )


def _stability_d(states, idx, A, stable) -> AlgebraLawReport:
    n = len(states)
    if not st.is_stable(EMPTY):
        return AlgebraLawReport("stability-d", False, (EMPTY,), "the empty state is not stable")
    body = A[:n, :n]
    bad = np.argwhere(stable[:n, None] & stable[None, :n] & (body != n) & ~stable[body])

    def law(a, b):
        s = st.add(a, b)
        return s is None or not (st.is_stable(a) and st.is_stable(b)) or st.is_stable(s)

    return _replay("stability-d", _at(states, bad), law, "sum of stable states is unstable")


def _positivity_e(states, A, pure) -> AlgebraLawReport:
    n = len(states)
    body = A[:n, :n]
    bad = np.argwhere((body != n) & pure[body] & ~pure[:n, None])
    return _replay(
        "positivity-e",
        _at(states, bad),
        lambda a, b: (c := st.add(a, b)) is None or not st.is_pure(c) or st.is_pure(a),
        "a pure sum has an impure summand",
    )


def _cancellativity_f(states, A, core_idx) -> AlgebraLawReport:
    def candidates():  # (b (+) x, b, x, y) wherever the table has b (+) x = b (+) y, |x| = |y|
        n = len(states)
        for b in range(n):
            row = A[b, :n].astype(np.int64)
            key = np.where(row != n, row * (n + 1) + core_idx[:n], np.int64(-1))
            order = np.argsort(key, kind="stable")
            ks = key[order]
            for d in np.nonzero((ks[1:] == ks[:-1]) & (ks[1:] >= 0))[0]:
                sb, sx, sy = states[b], states[int(order[d])], states[int(order[d + 1])]
                yield st.add(sb, sx), sb, sx, sy

    return _replay(
        "cancellativity-f",
        candidates(),
        lambda c, b, x, y: c is None or c != st.add(b, y) or st.core(x) != st.core(y) or x == y,
        "b (+) x = b (+) y with |x| = |y| but x differs from y",
    )
