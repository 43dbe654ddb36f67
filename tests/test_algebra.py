import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wandpack.algebra as algebra
import wandpack.states as st
from wandpack.algebra import AXIOMS, all_pass, check_axioms
from wandpack.parser import parse_state_text, parse_universe_text
from wandpack.states import EMPTY, BudgetExceeded, enumerate_states

from conftest import TINY_TEXT, U2_TEXT


def test_all_axioms_pass_on_tiny():
    reports = check_axioms(parse_universe_text(TINY_TEXT))
    assert [r.axiom for r in reports] == list(AXIOMS)
    assert all_pass(reports)
    assert all(r.counterexample is None for r in reports)


def test_all_axioms_pass_with_bools_and_predicates():
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x
        loc x.b: bool
        pred Cell(r) = acc(r.b)
        """
    )
    assert all_pass(check_axioms(u))


def test_all_axioms_pass_on_u2():
    assert all_pass(check_axioms(parse_universe_text(U2_TEXT)))


def test_laws_universe_passes(corpus_dir):
    u = parse_universe_text((corpus_dir / "laws.universe").read_text())
    reports = check_axioms(u)
    assert all_pass(reports)


def test_lawful_table_locates_no_violations(monkeypatch, corpus_dir):
    # a lawful table's row blocks hold no violation, so the blocked passes
    # skip them all: only neutral and core-a, which test their one row and
    # one diagonal whole, call np.argwhere
    callers = []
    argwhere = np.argwhere

    def counted(a):
        callers.append(sys._getframe(1).f_code.co_name)
        return argwhere(a)

    monkeypatch.setattr(np, "argwhere", counted)
    reports = check_axioms(parse_universe_text((corpus_dir / "laws.universe").read_text()))
    assert all_pass(reports)
    assert sorted(callers) == ["_core_a", "_neutral"]


def test_budget_refusal():
    big = parse_universe_text(
        """
        universe v1
        granularity 100
        refs x, y
        loc x.f: int {0, 1, 2, 3}
        loc x.g: int {0, 1, 2, 3}
        loc y.f: int {0, 1, 2, 3}
        loc y.g: int {0, 1, 2, 3}
        """
    )
    with pytest.raises(BudgetExceeded):
        check_axioms(big)


def test_failing_report_replays_through_public_ops(monkeypatch):
    # break the public operation the reports replay against: a model whose
    # neutral element is wrong must produce a counterexample that fails
    # again when re-run through the public API
    u = parse_universe_text(TINY_TEXT)
    real_add = st.add

    def broken_add(a, b):
        out = real_add(a, b)
        if a == EMPTY and out is not None and out != b:
            return None  # pretend e absorbs into nothing
        if a == EMPTY and b != EMPTY:
            return None
        return out

    neutral = _run_broken(monkeypatch, u, broken_add)["neutral"]
    assert not neutral.passed
    (cex,) = neutral.counterexample
    assert broken_add(EMPTY, cex) != cex  # replayable through the (broken) op


def _broken_table(u, add):
    states = list(enumerate_states(u))
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    A = np.full((n + 1, n + 1), n, dtype=np.int32)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            out = add(a, b)
            if out is not None:
                A[i, j] = idx[out]
    return lambda *_: A


def _run_broken(monkeypatch, u, add):
    monkeypatch.setattr(algebra.st, "add", add)
    monkeypatch.setattr(algebra, "_cross_check", lambda *a, **k: None)
    monkeypatch.setattr(algebra, "_build_add_table", _broken_table(u, add))
    return {r.axiom: r for r in check_axioms(u)}


# -- associativity: Light's test on a generating set -------------------------------


def _scan_associative(A):
    """The triple scan Light's test replaces, over the whole totalised table."""
    return all(np.array_equal(A[A[i]], A[i][A]) for i in range(len(A)))


def _table(text):
    u = parse_universe_text(text)
    return algebra._build_add_table(st.Codec(u).options(), u.granularity)


BOOL_PRED_TEXT = """
universe v1
granularity 2
refs x
loc x.b: bool
pred Cell(r) = acc(r.b)
"""

# three amounts per resource, and a predicate instance beside the locations
GRANULARITY_3_TEXT = """
universe v1
granularity 3
refs x
loc x.f: int {0, 1}
loc x.g: int {0}
pred Cell(r) = acc(r.f)
"""


@pytest.mark.parametrize(
    "text",
    [TINY_TEXT, U2_TEXT, BOOL_PRED_TEXT, GRANULARITY_3_TEXT],
    ids=["tiny", "u2", "bool-pred", "granularity-3"],
)
def test_table_is_public_add_on_every_pair(text):
    u = parse_universe_text(text)
    brute = _broken_table(u, st.add)()  # the brute-force table of the real add
    table = _table(text)
    assert table.dtype == algebra.TABLE_DTYPE == np.int16
    assert np.array_equal(table, brute)


@pytest.mark.parametrize("text, mutants", [(TINY_TEXT, 2000), (U2_TEXT, 1000)], ids=["tiny", "u2"])
def test_light_test_matches_triple_scan_on_mutated_tables(text, mutants):
    base = _table(text)
    n = len(base) - 1
    rng = random.Random(n)
    verdicts = []
    for _ in range(mutants):
        A = base.copy()
        for _ in range(rng.randint(1, 3)):
            i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n + 1)
            A[i, j] = v
            if rng.random() < 0.5:  # keep commutativity in half the edits
                A[j, i] = v
        verdict = algebra._table_associative(A)
        assert verdict == _scan_associative(A)
        verdicts.append((np.array_equal(A, A.T), verdict))
    assert algebra._table_associative(base)
    # both verdicts occur on commuting tables; a table that does not commute
    # is refused outright, and none of these mutants is associative
    assert {(True, True), (True, False), (False, False)} <= set(verdicts)


def test_closure_extends_past_the_irreducible_entries():
    # Z_3 plus an absorbing sentinel 3: every element is a sum of two others,
    # so no element is irreducible and the closure of {sentinel} must grow
    A = np.full((4, 4), 3, dtype=np.int32)
    for i in range(3):
        for j in range(3):
            A[i, j] = (i + j) % 3
    assert algebra._generators(A) == [3, 0, 1]
    assert algebra._table_associative(A)
    A[1, 1] = 0  # 1+1 = 0 breaks (1+1)+2 = 1+(1+2)
    assert not algebra._table_associative(A) and not _scan_associative(A)


def _replays(add, a, b, c):
    ab, bc = add(a, b), add(b, c)
    lhs = add(ab, c) if ab is not None else None
    rhs = add(a, bc) if bc is not None else None
    return lhs != rhs


def test_broken_add_associativity_counterexample_matches_exhaustive(monkeypatch):
    u = parse_universe_text(TINY_TEXT)
    real_add = st.add
    half_f = parse_state_text("{x.f @ 1/2 = 0}")

    def broken_add(a, b):  # half_f absorbs every non-empty right summand
        return None if a == half_f and b != EMPTY else real_add(a, b)

    states = list(enumerate_states(u))
    first = next(
        (a, b, c)
        for a in states
        for b in states
        for c in states
        if _replays(broken_add, a, b, c)
    )
    report = _run_broken(monkeypatch, u, broken_add)["associativity"]
    assert not report.passed
    assert report.counterexample == first
    assert _replays(broken_add, *report.counterexample)


def test_core_b_decided_on_table_replays_failures(monkeypatch):
    u = parse_universe_text(TINY_TEXT)
    real_add = st.add
    half_g = parse_state_text("{x.g @ 1/2 = 0}")

    def broken_add(a, b):  # half_g vanishes into any state holding x.g
        if b == half_g and st.geq(a, st.core(b)) and a != EMPTY:
            return a
        return real_add(a, b)

    states = list(enumerate_states(u))
    first = next(
        (x, c)
        for x in states
        for c in states
        if broken_add(x, c) == x and not st.geq(st.core(x), c)
    )
    report = _run_broken(monkeypatch, u, broken_add)["core-b"]
    assert not report.passed
    assert report.counterexample == first


HALF_F, HALF_G, FULL_G = "{x.f @ 1/2 = 0}", "{x.g @ 1/2 = 0}", "{x.g @ 1 = 0}"


def _breaks(a_text, b_text, result_text):
    """``add`` with one entry changed: a (+) b gives the result, or is
    undefined where that is None."""
    a, b, real_add = parse_state_text(a_text), parse_state_text(b_text), st.add
    result = None if result_text is None else parse_state_text(result_text)
    return lambda x, y: result if (x, y) == (a, b) else real_add(x, y)


def _core_a_fails(add, s):
    c = st.core(s)
    return add(s, c) != s or add(c, c) != c


def _core_c_fails(add, a, b):
    s = add(a, b)
    return s is not None and st.core(s) != add(st.core(a), st.core(b))


def _stability_d_fails(add, a, b):
    s = add(a, b)
    return s is not None and st.is_stable(a) and st.is_stable(b) and not st.is_stable(s)


def _positivity_e_fails(add, a, b):
    c = add(a, b)
    return c is not None and st.is_pure(c) and not st.is_pure(a)


# each broken add, and the axiom it must fail on with its first counterexample
BROKEN = {
    # x (+) |x| is undefined for x = half of x.f
    "core-a": (_breaks(HALF_F, "{x.f @ 0 = 0}", None), _core_a_fails, 1),
    # half of x.f plus half of x.g drops the x.g half, and its value with it
    "core-c": (_breaks(HALF_F, HALF_G, HALF_F), _core_c_fails, 2),
    # ... or leaves only the value of x.f, which no permission holds
    "stability-d": (_breaks(HALF_F, HALF_G, "{x.f @ 0 = 0}"), _stability_d_fails, 2),
    # ... or leaves nothing at all
    "positivity-e": (_breaks(HALF_F, HALF_G, "{}"), _positivity_e_fails, 2),
}


@pytest.mark.parametrize("axiom", sorted(BROKEN))
def test_broken_add_first_counterexample_matches_exhaustive(monkeypatch, axiom):
    u = parse_universe_text(TINY_TEXT)
    add, fails, arity = BROKEN[axiom]
    states = list(enumerate_states(u))
    first = next(t for t in itertools.product(states, repeat=arity) if fails(add, *t))
    report = _run_broken(monkeypatch, u, add)[axiom]
    assert not report.passed
    assert report.counterexample == first
    assert fails(add, *report.counterexample)  # replayable through the (broken) op


def test_broken_add_cancellativity_counterexample_matches_exhaustive(monkeypatch):
    # half of x.f plus half of x.g gives what adding all of x.g gives
    u = parse_universe_text(TINY_TEXT)
    add = _breaks(HALF_F, HALF_G, "{x.f @ 1/2 = 0, x.g @ 1 = 0}")
    states = list(enumerate_states(u))
    first = next(
        (add(b, x), b, x, y)
        for b in states
        for i, x in enumerate(states)
        for y in states[i + 1:]
        if add(b, x) is not None and add(b, x) == add(b, y) and st.core(x) == st.core(y)
    )
    assert first[1:] == tuple(parse_state_text(t) for t in (HALF_F, HALF_G, FULL_G))
    report = _run_broken(monkeypatch, u, add)["cancellativity-f"]
    assert not report.passed
    assert report.counterexample == first


def test_cross_check_survives_python_O():
    script = """
import numpy as np
import wandpack.algebra as algebra
from wandpack.parser import parse_universe_text
build = algebra._build_add_table
def corrupt(*args):
    A = build(*args)
    A[0, 0] = len(A) - 1  # the table says e (+) e is undefined
    return A
algebra._build_add_table = corrupt
algebra.check_axioms(parse_universe_text(%r))
""" % TINY_TEXT
    proc = _run_optimized(script)
    assert proc.returncode != 0
    assert "table disagrees with add() at (0, 0)" in proc.stderr


def _run_optimized(script):
    """Run ``script`` under python -O on this checkout's sources."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def test_cross_check_rejects_a_sum_outside_the_universe():
    # add returns a state over a location the universe does not declare:
    # the cross-check names the pair instead of failing on the lookup
    script = """
import wandpack.algebra as algebra
from wandpack.parser import parse_state_text, parse_universe_text
foreign = parse_state_text("{x.h @ 1 = 0}")
algebra.st.add = lambda a, b: foreign
algebra.check_axioms(parse_universe_text(%r))
""" % TINY_TEXT
    proc = _run_optimized(script)
    assert proc.returncode != 0
    assert "KeyError" not in proc.stderr
    assert "table disagrees with add() at (0, 0)" in proc.stderr


# -- the row-blocked passes against their unblocked forms ---------------------------


def _light_unblocked(A):
    """Light's test on the whole table at once, with the generators found
    in one block."""
    return np.array_equal(A, A.T) and all(
        np.array_equal(L := A[A[:, g]], L.T) for g in algebra._generators(A)
    )


def _cancellation_scan(A, core_idx):
    """(b, x, y) wherever row b's keys b (+) x and |x|, stably sorted, hold
    two equal defined neighbours: the per-row scan, on every row."""
    n = len(A) - 1
    out = []
    for b in range(n):
        row = A[b, :n].astype(np.int64)
        key = np.where(row != n, row * (n + 1) + core_idx[:n], -1)
        order = np.argsort(key, kind="stable")
        ks = key[order]
        for d in np.nonzero((ks[1:] == ks[:-1]) & (ks[1:] >= 0))[0]:
            out.append((b, int(order[d]), int(order[d + 1])))
    return out


def _unblocked_candidates(A, P, H, core_idx, stable):
    """Each pass's candidate index tuples, computed on the whole table."""
    n = len(A) - 1
    body = A[:n, :n]
    ids = np.arange(n)
    pure = np.concatenate([body.diagonal() == ids, [False]])
    pairs = np.argwhere(body == ids[:, None])
    xs, cs = pairs[:, 0], pairs[:, 1]
    below = ~P[cs].any(axis=1) & ((H[cs] == 0) | (H[cs] == H[xs])).all(axis=1)
    triples = [
        (i, int(j), int(k))
        for i in range(n)
        for j, k in np.argwhere(A[A[i, :n]][:, :n] != A[i][A[:n, :n]])
    ]
    found = {
        "neutral": np.argwhere(A[0, :n] != ids),
        "commutativity": np.argwhere(body != body.T),
        "associativity": [] if _light_unblocked(A) else triples,
        "core-a": np.argwhere((A[ids, core_idx[:n]] != ids) | (A[core_idx[:n], core_idx[:n]] != core_idx[:n])),
        "core-b": pairs[~below],
        "core-c": np.argwhere((body != n) & (core_idx[body] != A[np.ix_(core_idx[:n], core_idx[:n])])),
        "stability-d": np.argwhere(stable[:n, None] & stable[None, :n] & (body != n) & ~stable[body]),
        "positivity-e": np.argwhere((body != n) & pure[body] & ~pure[:n, None]),
    }
    found = {k: [tuple(int(i) for i in t) for t in v] for k, v in found.items()}
    found["cancellativity-f"] = _cancellation_scan(A, core_idx)
    return found


@pytest.mark.parametrize("text, mutants", [(TINY_TEXT, 200), (U2_TEXT, 20)], ids=["tiny", "u2"])
def test_blocked_passes_match_unblocked_on_mutated_tables(monkeypatch, text, mutants):
    u = parse_universe_text(text)
    states = list(enumerate_states(u))
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    assert states[0] == EMPTY  # the unblocked neutral pass reads row 0
    P, H = st.Codec(u).encode(states)
    core_idx = np.array([idx[st.core(s)] for s in states] + [n])
    stable = np.array([st.is_stable(s) for s in states] + [False])
    # blocks of `rows` rows, a size that divides neither n nor n + 1
    rows = next(r for r in range(3, n) if n % r and (n + 1) % r)
    monkeypatch.setattr(st, "BLOCK_ENTRIES", rows * (n + 1))
    assert [s.stop - s.start for s in algebra._blocks(n, n)][:2] == [rows, rows]
    assert [s.stop - s.start for s in algebra._blocks(n + 1, n + 1)][:2] == [rows, rows]

    base = _table(text)
    table = [base]
    found = {}

    def capture(axiom, candidates, law, detail):
        # cancellativity's candidates lead with the sum b (+) x
        cut = 1 if axiom == "cancellativity-f" else 0
        found[axiom] = [tuple(idx[s] for s in c[cut:]) for c in candidates]
        return algebra.AlgebraLawReport(axiom, True)

    monkeypatch.setattr(algebra, "_build_add_table", lambda *_: table[0])
    monkeypatch.setattr(algebra, "_cross_check", lambda *_: None)
    monkeypatch.setattr(algebra, "_replay", capture)
    rng = random.Random(n)
    nominated = set()
    for _ in range(mutants):
        A = base.copy()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            # any entry, or i itself (x + c = x), or another entry of row i
            A[i, j] = v = rng.choice([rng.randrange(n + 1), i, A[i, rng.randrange(n)]])
            if rng.random() < 0.5:  # keep commutativity in half the edits
                A[j, i] = v
        table[0] = A
        check_axioms(u)
        assert found == _unblocked_candidates(A, P, H, core_idx, stable)
        assert algebra._table_associative(A) == _light_unblocked(A)
        with monkeypatch.context() as one_block:
            one_block.setattr(st, "BLOCK_ENTRIES", (n + 1) ** 2)
            gens = algebra._generators(A)
        assert algebra._generators(A) == gens
        nominated |= {axiom for axiom, c in found.items() if c}
    # every blocked pass nominated candidates on some mutant, so each
    # comparison bit
    assert nominated >= set(AXIOMS) - {"neutral", "core-a"}
