"""Executable law suite for the separation-algebra axioms.

Each axiom is decided over all state tuples of an enumerated universe,
on a precomputed addition table.  States are the product of per-resource
options and addition acts on each resource alone, so the table is
composed from one small table per resource in O(n²) work, then
cross-checked against the public ``add`` on a deterministic sample.
The table is int16, since every entry is a state index or the sentinel
n and n stays within ``TABLE_BUDGET``.  Every n² pass, the table's last
composition step included, runs one block of rows at a time, so no
temporary holds more than about ``states.BLOCK_ENTRIES`` entries.  A pass
locates its violations only in the blocks that hold one, so a lawful
table pays one mask and one ``any`` per block.  Commutativity is decided
once, by a blocked symmetry test of the table; only a table that does not
commute is scanned for the pairs that differ.  Associativity is decided
on a generating set by Light's test, which reuses that verdict: the
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
# the table's entries are state indices and the sentinel, all at most
# TABLE_BUDGET; an explicit raise, so the check survives python -O
TABLE_DTYPE = np.int16
if TABLE_BUDGET + 1 > np.iinfo(TABLE_DTYPE).max:
    raise ImportError(f"TABLE_BUDGET + 1 does not fit the table dtype {np.dtype(TABLE_DTYPE)}")


@dataclass(frozen=True)
class AlgebraLawReport:
    axiom: str
    passed: bool
    counterexample: Optional[tuple[State, ...]] = None
    detail: str = ""


def _blocks(rows: int, cols: int):
    """Slices covering range(rows) in order, each a block of rows of a
    table ``cols`` wide that holds about ``states.BLOCK_ENTRIES`` entries."""
    step = max(1, st.BLOCK_ENTRIES // max(cols, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _hits(n: int, mask):
    """``np.argwhere`` of the n x n boolean table whose row block s is
    ``mask(s)``, built a block at a time and yielded lazily, in row-major
    order.  A block with no true entry is skipped, so a lawful table pays
    one ``any`` per block."""
    for s in _blocks(n, n):
        block = mask(s)
        if block.any():
            hits = np.argwhere(block)
            hits[:, 0] += s.start
            yield from hits


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
    it at n.  The steps compose in int32; the last one, over the first
    resource, writes the int16 table a row block at a time.
    """
    n = math.prod(len(p) for p, _ in codes)
    # with no resources, the one state is the empty state and e (+) e = e
    tables = [_resource_table(*c, g, n) for c in codes] or [np.zeros((1, 1), dtype=np.int32)]
    C = np.zeros((1, 1), dtype=np.int32)
    for T in reversed(tables[1:]):
        m = len(T) * len(C)
        out = np.empty((m, m), dtype=np.int32)
        step = out.reshape(len(T), len(C), len(T), len(C))
        np.add((T * len(C))[:, None, :, None], C[None, :, None, :], out=step)
        C = np.minimum(out, n, out=out)  # on the 4-d view, numpy would copy
    T = tables[0] * len(C)
    A = np.empty((n + 1, n + 1), dtype=TABLE_DTYPE)
    A[n], A[:, n] = n, n
    for s in _blocks(n, n):
        i = np.arange(s.start, s.stop)
        part = T[i // len(C), :, None] + C[i % len(C), None, :]
        A[s, :n] = np.minimum(part, n, out=part).reshape(len(i), n)
    return A


def _cross_check(states: list[State], A: np.ndarray) -> None:
    """Spot-check the vectorized table against the public add operation:
    each sampled sum must be the state its table entry names.

    The sample is a grid and a diagonal.  The grid takes every
    (n // 47)-th state on each axis: every pair below 94 states, up to
    70 x 70 pairs from 94 to 140 states, and at most 63 per axis beyond.
    The diagonal adds the pairs (i, i) of every (n // 100)-th state: all n
    below 200 states, 100 to 150 of them from 200 on."""
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
        if got is not None and (want == n or states[want] != got):
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
    _cross_check(states, A)
    P, H = codec.encode(states)

    core_idx = np.array([idx[st.core(s)] for s in states] + [n], dtype=np.int32)
    stable = np.array([st.is_stable(s) for s in states] + [False])
    diag = A[np.arange(n), np.arange(n)]
    pure = np.concatenate([diag == np.arange(n), [False]])
    commutes = _commutes(A)

    reports = [
        _neutral(states, idx, A),
        _commutativity(states, A, commutes),
        _associativity(states, A, commutes),
        _core_a(states, A, core_idx),
        _core_b(states, A, P, H),
        _core_c(states, A, core_idx),
        _stability_d(states, A, stable),
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


def _commutativity(states, A, commutes) -> AlgebraLawReport:
    n = len(states)
    # the hits pass names the pairs, so it runs only on a table that does not commute
    candidates = () if commutes else _at(states, _hits(n, lambda s: A[s, :n] != A[:n, s].T))
    return _replay(
        "commutativity",
        candidates,
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
    for s in _blocks(m, m):
        rows = A[s]
        reducible[rows[(rows != ids[s, None]) & (rows != ids)]] = True
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


def _symmetric(m: int, entries) -> bool:
    """Whether the m x m table whose block of rows r and columns c is
    ``entries(r, c)`` is symmetric: each row block is compared with the
    matching column block, right of the diagonal only."""
    for s in _blocks(m, m):
        rest = slice(s.start, m)
        if not np.array_equal(entries(s, rest), entries(rest, s).T):
            return False
    return True


def _commutes(A) -> bool:
    """Whether the totalised table is symmetric, decided a block at a time."""
    return _symmetric(len(A), lambda r, c: A[r, c])


def _table_associative(A, commutes: Optional[bool] = None) -> bool:
    """Light's test where A commutes, so x+(g+y) is (y+g)+x: per generator,
    the table L = A[A[:, g]] gathered a block at a time and compared with
    its transpose.  Other tables are left to the triple scan.  ``commutes``
    is ``_commutes(A)`` where the caller has decided it already."""
    m = len(A)
    return (_commutes(A) if commutes is None else commutes) and all(
        _symmetric(m, lambda r, c, col=A[:, g]: A[col[r], c]) for g in _generators(A)
    )


def _associativity(states, A, commutes) -> AlgebraLawReport:
    def triples():  # the triple scan, run only on a table Light's test refuses
        n = len(states)
        for i in range(n):
            # (j, k) -> (a+b)+c against a+(b+c), a block of j at a time
            for j, k in _hits(n, lambda s: A[A[i, s], :n] != np.take(A[i], A[s, :n])):
                yield states[i], states[int(j)], states[int(k)]

    def law(a, b, c):
        ab, bc = st.add(a, b), st.add(b, c)
        lhs = st.add(ab, c) if ab is not None else None
        return lhs == (st.add(a, bc) if bc is not None else None)

    candidates = () if _table_associative(A, commutes) else triples()
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

    def candidates():  # the pairs x = x (+) c, a block at a time, less those with c <= |x|
        for s in _blocks(n, n):
            r, cs = np.nonzero(A[s, :n] == np.arange(s.start, s.stop)[:, None])
            xs = r + s.start
            # c <= |x|: c holds no permission and each value of c's heap is x's
            below = ~P[cs].any(axis=1) & ((H[cs] == 0) | (H[cs] == H[xs])).all(axis=1)
            yield from zip(xs[~below], cs[~below])

    return _replay(
        "core-b",
        _at(states, candidates()),
        lambda x, c: st.geq(st.core(x), c),
        "x = x (+) c but |x| does not contain c",
    )


def _core_c(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)

    def bad(s):  # the axiom constrains only pairs whose sum is defined
        body = A[s, :n]
        return (body != n) & (np.take(core_idx, body) != np.take(A[core_idx[s]], core_idx[:n], axis=1))

    return _replay(
        "core-c",
        _at(states, _hits(n, bad)),
        lambda a, b: (s := st.add(a, b)) is None or st.core(s) == st.add(st.core(a), st.core(b)),
        "|a (+) b| differs from |a| (+) |b|",
    )


def _stability_d(states, A, stable) -> AlgebraLawReport:
    n = len(states)
    if not st.is_stable(EMPTY):
        return AlgebraLawReport("stability-d", False, (EMPTY,), "the empty state is not stable")

    def bad(s):
        body = A[s, :n]
        return stable[s, None] & stable[None, :n] & (body != n) & ~np.take(stable, body)

    def law(a, b):
        s = st.add(a, b)
        return s is None or not (st.is_stable(a) and st.is_stable(b)) or st.is_stable(s)

    return _replay("stability-d", _at(states, _hits(n, bad)), law, "sum of stable states is unstable")


def _positivity_e(states, A, pure) -> AlgebraLawReport:
    n = len(states)

    def bad(s):
        body = A[s, :n]
        return (body != n) & np.take(pure, body) & ~pure[s, None]

    return _replay(
        "positivity-e",
        _at(states, _hits(n, bad)),
        lambda a, b: (c := st.add(a, b)) is None or not st.is_pure(c) or st.is_pure(a),
        "a pure sum has an impure summand",
    )


def _cancellativity_f(states, A, core_idx) -> AlgebraLawReport:
    n = len(states)

    def candidates():  # (b (+) x, b, x, y) wherever the table has b (+) x = b (+) y, |x| = |y|
        for s in _blocks(n, n):
            body = A[s, :n].astype(np.int32)
            keys = np.where(body != n, body * (n + 1) + core_idx[:n], -1)
            # a sorted copy finds the rows with a repeated defined key; only
            # those rows take the stable argsort that orders the candidates
            ks = np.sort(keys, axis=1)
            for r in np.nonzero(((ks[:, 1:] == ks[:, :-1]) & (ks[:, 1:] >= 0)).any(axis=1))[0]:
                order = np.argsort(keys[r], kind="stable")
                sk = keys[r][order]
                for d in np.nonzero((sk[1:] == sk[:-1]) & (sk[1:] >= 0))[0]:
                    sb, sx, sy = states[s.start + r], states[int(order[d])], states[int(order[d + 1])]
                    yield st.add(sb, sx), sb, sx, sy

    return _replay(
        "cancellativity-f",
        candidates(),
        lambda c, b, x, y: c is None or c != st.add(b, y) or st.core(x) != st.core(y) or x == y,
        "b (+) x = b (+) y with |x| = |y| but x differs from y",
    )
