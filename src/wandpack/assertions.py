"""Assertions: AST, well-formedness, demands, and satisfaction.

The grammar is star / implication / disjunction over the concrete atoms:
pure boolean expressions, accessibility predicates, predicate instances
and wand instances.  ``demands`` computes the finite antichain of minimal
states satisfying an assertion given ambient heap values; ``sat`` decides
satisfaction, deciding stars through demand sets and wand atoms through
the semantic footprint quantification.
"""

from __future__ import annotations

import functools
import math
import weakref
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from . import states as st
from .exprs import (
    BOOL,
    BoolOp,
    Expr,
    FieldAcc,
    Ite,
    Lit,
    PermOf,
    Store,
    Unframed,
    Var,
    children,
    eval_bool,
    eval_expr,
    format_expr,
    free_vars,
    infer_type,
    map_children,
    node,
    substitute,
)
from .states import EMPTY, State
from .universe import NULL, REF, FieldLoc, PredInst, Universe, Value, WandInst


class AssertionError_(Exception):
    """Static assertion problem (types, arities, predicate misuse)."""


@node
class Pure:
    expr: Expr


@node
class Acc:
    ref_expr: Expr
    field: str
    amount: Fraction = Fraction(1)


@node
class PredA:
    name: str
    args: tuple[Expr, ...]
    frac: Fraction = Fraction(1)


@node
class Star:
    left: "Assertion"
    right: "Assertion"


@node
class Imp:
    guard: Expr
    body: "Assertion"


@node
class OrA:
    left: "Assertion"
    right: "Assertion"


@node
class Wand:
    lhs: "Assertion"
    rhs: "Assertion"
    combinable: bool = False


Assertion = Union[Pure, Acc, PredA, Star, Imp, OrA, Wand]

ATOMS = (Pure, Acc, PredA, Wand, OrA)


def is_atom(a: Assertion) -> bool:
    """Semantic atoms for the package rules: everything but Star and Imp."""
    return isinstance(a, ATOMS)


# -- printing ----------------------------------------------------------------
# precedence: 0 wand, 1 implication, 2 disjunction, 3 star, 4 atom


def format_assertion(a: Assertion) -> str:
    return _fmt(a, 0)


def _fmt(a: Assertion, prec: int) -> str:
    if isinstance(a, Pure):
        s = format_expr(a.expr)
        # expressions whose top binds looser than a star would reparse as
        # assertion connectives; keep them grouped
        loose = isinstance(a.expr, Ite) or (
            isinstance(a.expr, BoolOp) and a.expr.op in ("or", "implies")
        )
        return f"({s})" if loose else s
    if isinstance(a, Acc):
        base = f"{format_expr(a.ref_expr)}.{a.field}"
        if a.amount == 1:
            return f"acc({base})"
        return f"acc({base}, {a.amount.numerator}/{a.amount.denominator})"
    if isinstance(a, PredA):
        call = f"{a.name}({', '.join(format_expr(x) for x in a.args)})"
        if a.frac == 1:
            return call
        return f"acc({call}, {a.frac.numerator}/{a.frac.denominator})"
    if isinstance(a, Star):
        # the parser is left-associative for * and ||, so right children at
        # the same level need grouping
        s = f"{_fmt(a.left, 3)} * {_fmt(a.right, 4)}"
        return f"({s})" if prec > 3 else s
    if isinstance(a, OrA):
        s = f"{_fmt(a.left, 2)} || {_fmt(a.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(a, Imp):
        s = f"{format_expr(a.guard)} ==> {_fmt(a.body, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(a, Wand):
        op = "--*c" if a.combinable else "--*"
        s = f"{_fmt(a.lhs, 1)} {op} {_fmt(a.rhs, 0)}"
        return f"({s})" if prec > 0 else s
    raise AssertionError_(f"unknown assertion node {a!r}")


# -- structural helpers --------------------------------------------------------


def close_assertion(a: Assertion, store: Store) -> Assertion:
    """Substitute store values for free variables (used for wand keys)."""
    fv = free_vars(a)
    missing = [v for v in sorted(fv) if v not in store]
    if missing:
        raise AssertionError_(f"cannot close assertion, unbound: {', '.join(missing)}")
    return substitute(a, {v: Lit(store[v]) for v in fv})


def wand_key(w: Wand, store: Store) -> WandInst:
    """Normalized wand resource key: the closed wand's printed form.

    Wands have no binders, so alpha-normalization reduces to canonical
    printing after closing; syntactically identical wands collide.
    """
    # keyed by identity too: Lit(1) == Lit(True), yet they print differently;
    # an entry holds its wand, so the id is not reused while the entry lives
    return _wand_key(id(w), w, tuple((k, type(v), v) for k, v in sorted(store.items())))


@functools.lru_cache(maxsize=1024)
def _wand_key(_, w: Wand, store_items: tuple) -> WandInst:
    return WandInst(format_assertion(close_assertion(w, {k: v for k, _, v in store_items})))


def atoms(a: Assertion) -> Iterator[Assertion]:
    """The leaves below ``a``'s stars, disjunctions and implications, left
    to right: pure, accessibility, predicate and wand atoms (a wand's own
    sides are not entered)."""
    if isinstance(a, (Star, OrA)):
        yield from atoms(a.left)
        yield from atoms(a.right)
    elif isinstance(a, Imp):
        yield from atoms(a.body)
    else:
        yield a


def contains_wand(a: Assertion) -> bool:
    return any(isinstance(x, Wand) for x in atoms(a))


def scale_assertion(a: Assertion, p: Fraction) -> Assertion:
    """Multiply every resource amount through by p (fractional reading)."""
    if p <= 0 or p > 1:
        raise AssertionError_("scale factor must be in (0, 1]")
    if isinstance(a, Acc):
        return Acc(a.ref_expr, a.field, a.amount * p)
    if isinstance(a, PredA):
        return PredA(a.name, a.args, a.frac * p)
    if isinstance(a, Wand):
        raise AssertionError_("wand atoms cannot be scaled syntactically")
    return map_children(a, lambda c: scale_assertion(c, p))


def instance_body(u: Universe, name: str, args: Sequence[Expr]) -> Assertion:
    """The body of predicate ``name`` with ``args`` for its parameters."""
    d = u.predicate(name)
    if len(d.params) != len(args):
        raise AssertionError_(f"{name} expects {len(d.params)} arguments")
    return substitute(d.body, dict(zip(d.params, args)))


def desugar_predicates(a: Assertion, u: Universe) -> Assertion:
    """Replace predicate atoms by their bodies, fractions multiplied through."""
    if isinstance(a, PredA):
        body = desugar_predicates(instance_body(u, a.name, a.args), u)
        return body if a.frac == 1 else scale_assertion(body, a.frac)
    return map_children(a, lambda c: desugar_predicates(c, u))


def typecheck(a: Assertion, u: Universe, var_types: Mapping[str, str]) -> None:
    if isinstance(a, Pure):
        if infer_type(a.expr, u, var_types) != BOOL:
            raise AssertionError_("pure assertion must be boolean")
        return
    if isinstance(a, Acc):
        if infer_type(a.ref_expr, u, var_types) != REF:
            raise AssertionError_("acc() base must be a reference")
        if u.field_type(a.field) is None:
            raise AssertionError_(f"unknown field {a.field}")
        if not (0 < a.amount <= 1):
            raise AssertionError_(f"acc amount {a.amount} outside (0, 1]")
        return
    if isinstance(a, PredA):
        d = u.predicate(a.name)
        if len(d.params) != len(a.args):
            raise AssertionError_(f"{a.name} expects {len(d.params)} arguments")
        for x in a.args:
            if infer_type(x, u, var_types) != REF:
                raise AssertionError_(f"{a.name} arguments must be references")
        if not (0 < a.frac <= 1):
            raise AssertionError_(f"predicate fraction {a.frac} outside (0, 1]")
        return
    if isinstance(a, (Star, OrA)):
        typecheck(a.left, u, var_types)
        typecheck(a.right, u, var_types)
        return
    if isinstance(a, Imp):
        if infer_type(a.guard, u, var_types) != BOOL:
            raise AssertionError_("implication guard must be boolean")
        typecheck(a.body, u, var_types)
        return
    if isinstance(a, Wand):
        typecheck(a.lhs, u, var_types)
        typecheck(a.rhs, u, var_types)
        return
    raise AssertionError_(f"unknown assertion node {a!r}")


# -- well-formedness (syntactic self-framing) ----------------------------------

Path = tuple


def _expr_path(e: Expr) -> Optional[Path]:
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Lit):
        return ("lit", str(e.value))
    if isinstance(e, FieldAcc):
        base = _expr_path(e.base)
        return None if base is None else (base, e.field)
    return None


def _expr_framed(e: Expr, framed: frozenset) -> bool:
    # framed holds (path, field) tuples, so an unrooted path (None) is never in it
    if isinstance(e, PermOf) or (isinstance(e, FieldAcc) and _expr_path(e) not in framed):
        return False
    return all(_expr_framed(c, framed) for c in children(e))


def _wf_walk(a: Assertion, framed: frozenset) -> tuple[bool, frozenset]:
    if isinstance(a, Pure):
        return _expr_framed(a.expr, framed), frozenset()
    if isinstance(a, Acc):
        if not _expr_framed(a.ref_expr, framed):
            return False, frozenset()
        p = _expr_path(a.ref_expr)
        gained = frozenset() if p is None else frozenset({(p, a.field)})
        return True, gained
    if isinstance(a, PredA):
        ok = all(_expr_framed(x, framed) for x in a.args)
        return ok, frozenset()
    if isinstance(a, Star):
        ok1, f1 = _wf_walk(a.left, framed)
        ok2, f2 = _wf_walk(a.right, framed | f1)
        return ok1 and ok2, f1 | f2
    if isinstance(a, Imp):
        if not _expr_framed(a.guard, framed):
            return False, frozenset()
        ok, _ = _wf_walk(a.body, framed)
        return ok, frozenset()
    if isinstance(a, OrA):
        ok1, f1 = _wf_walk(a.left, framed)
        ok2, f2 = _wf_walk(a.right, framed)
        return ok1 and ok2, f1 & f2
    if isinstance(a, Wand):
        ok1, fl = _wf_walk(a.lhs, frozenset())
        # the RHS is evaluated in combinations with LHS states, so LHS
        # frames are available to it
        ok2, _ = _wf_walk(a.rhs, fl)
        return ok1 and ok2, frozenset()
    raise AssertionError_(f"unknown assertion node {a!r}")


def wf(a: Assertion) -> bool:
    """Syntactic self-framing: every dereference is preceded (left to right
    through stars) by an accessibility predicate for its location; guards
    are pure, and no expression reads perm()."""
    ok, _ = _wf_walk(a, frozenset())
    return ok


# -- demands -------------------------------------------------------------------

FRESH_FAIL = "fail"
FRESH_FORK = "fork"


def demands(
    u: Universe,
    a: Assertion,
    heap: Mapping[FieldLoc, Value],
    store: Store,
    mask=None,
    fresh: str = FRESH_FAIL,
    fallback_heap: Optional[Mapping[FieldLoc, Value]] = None,
) -> list[State]:
    """Minimal states satisfying ``a`` given the ambient heap's values.

    Predicate and wand atoms demand their resource id (the verifier
    reading).  With ``fresh=FRESH_FORK`` an accessibility demand whose
    location has no ambient value yields one demand per domain value;
    otherwise such a branch is unsatisfiable.  ``fallback_heap`` supplies
    values the ambient heap lacks (the outer state's values during
    footprint extraction).  The result is a dominance-pruned list in
    structural (leftmost-first) order.
    """
    return st.antichain(_demands(u, a, heap, store, mask, fresh, fallback_heap))


def grow(u: Universe, a: Assertion, base: State, store: Store, mask=None) -> list[State]:
    """``base`` plus each demand of ``a`` read on its heap, forking over
    values it leaves undetermined; sums that are undefined are dropped.
    Raises Unframed like ``demands``."""
    ds = demands(u, a, base.heap_dict(), store, mask, FRESH_FORK)
    return [grown for d in ds if (grown := st.add(base, d)) is not None]


def _demands(u, a, heap, store, mask, fresh, fallback) -> list[State]:
    if isinstance(a, Pure):
        return [EMPTY] if eval_bool(a.expr, heap, store, mask) else []
    if isinstance(a, Acc):
        base = eval_expr(a.ref_expr, heap, store, mask)
        if base == NULL:
            return []  # null carries no locations; nothing can satisfy this
        loc = FieldLoc(base, a.field)
        if not u.has_location(loc):
            return []
        v = heap.get(loc)
        if v is None and fallback is not None:
            v = fallback.get(loc)
        if v is None:
            if fresh == FRESH_FORK:
                return [State.make({loc: a.amount}, {loc: dv}) for dv in u.domain(loc)]
            return []
        return [State.make({loc: a.amount}, {loc: v})]
    if isinstance(a, PredA):
        vals = tuple(eval_expr(x, heap, store, mask) for x in a.args)
        u.predicate(a.name)
        return [State.make({PredInst(a.name, vals): a.frac}, {})]
    if isinstance(a, Wand):
        return [State.make({wand_key(a, store): Fraction(1)}, {})]
    if isinstance(a, Star):
        out = []
        for dl in _demands(u, a.left, heap, store, mask, fresh, fallback):
            # the left demand's values frame the right conjunct (matters
            # when fresh values were forked for a dependent chain)
            overlay = dict(heap)
            overlay.update(dl.heap_dict())
            for dr in _demands(u, a.right, overlay, store, mask, fresh, fallback):
                s = st.add(dl, dr)
                if s is not None:
                    out.append(s)
        return out
    if isinstance(a, OrA):
        return _demands(u, a.left, heap, store, mask, fresh, fallback) + _demands(
            u, a.right, heap, store, mask, fresh, fallback
        )
    if isinstance(a, Imp):
        if eval_bool(a.guard, heap, store, mask):
            return _demands(u, a.body, heap, store, mask, fresh, fallback)
        return [EMPTY]
    raise AssertionError_(f"unknown assertion node {a!r}")


# -- satisfaction ---------------------------------------------------------------


def sat(u: Universe, sigma: State, a: Assertion, store: Store) -> bool:
    """Does sigma satisfy the assertion?

    Stars and predicate instances are decided through the demand walk:
    sigma satisfies them when it lies above one of their demands
    (equivalent to the existential split for this fragment), and a
    predicate instance is read as its token.  Top-level wand atoms use the
    semantic footprint quantification over the enumerated left-hand-side
    states.  Unframed expression evaluation makes the assertion false.
    """
    try:
        return _sat(u, sigma, a, store)
    except Unframed:
        return False


def _sat(u, sigma: State, a: Assertion, store) -> bool:
    if isinstance(a, Wand):
        return wand_holds(u, sigma, a, store)
    if isinstance(a, OrA):
        return _sat(u, sigma, a.left, store) or _sat(u, sigma, a.right, store)
    heap = sigma.heap_dict()
    mask = sigma.mask_dict()
    if isinstance(a, Pure):
        return eval_bool(a.expr, heap, store, mask)
    if isinstance(a, Acc):
        base = eval_expr(a.ref_expr, heap, store, mask)
        if base == NULL:
            return False  # null carries no locations
        loc = FieldLoc(base, a.field)
        return u.has_location(loc) and sigma.mask_of(loc) >= a.amount
    if isinstance(a, Imp):
        if eval_bool(a.guard, heap, store, mask):
            return _sat(u, sigma, a.body, store)
        return True
    if isinstance(a, (PredA, Star)):
        # every demand lies above a minimal one: no antichain is needed
        ds = _demands(u, a, heap, store, mask, FRESH_FAIL, None)
        return any(st.geq_dicts(heap, mask, d) for d in ds)
    raise AssertionError_(f"unknown assertion node {a!r}")


# Satisfying-state pools and compiled wand checks are hot inside wand
# satisfaction.  Pools are keyed by (universe id, printed assertion, the
# store restricted to the assertion's free variables, budget), so stores
# that differ only in variables the assertion never reads share an entry.
# Checks are keyed by (universe id, the wand's sides by identity, its kind,
# the store with each value's type).  Each cache keeps at most CHECK_LIMIT
# entries, the oldest dropped first.  A universe's entries of both caches
# are dropped when it is garbage-collected: neither cache keeps a universe
# alive nor outlives it, and a recycled id never meets a stale entry.
_LHS_CACHE: dict = {}
_CHECKS: dict = {}
_KEYS: dict[int, set] = {}
CHECK_LIMIT = 32
MEMO_LIMIT = 1024  # RHS verdicts one check keeps


def _forget_universe(uid: int) -> None:
    for k in _KEYS.pop(uid, ()):
        _LHS_CACHE.pop(k, None)
        _CHECKS.pop(k, None)


def _remember(cache: dict, u: Universe, key: tuple, value) -> None:
    """``cache[key] = value``, first dropping the oldest entry of a full
    cache; ``_KEYS`` follows both."""
    if len(cache) >= CHECK_LIMIT:
        old = next(iter(cache))
        del cache[old]
        _KEYS[old[0]].discard(old)
    keys = _KEYS.get(id(u))
    if keys is None:
        keys = _KEYS[id(u)] = set()
        weakref.finalize(u, _forget_universe, id(u)).atexit = False
    keys.add(key)
    cache[key] = value


def lhs_states(u: Universe, a: Assertion, store: Store, budget: int = 10**6) -> list[State]:
    """Enumerated stable states satisfying ``a`` (deterministic order).

    Quantifying over stable states suffices for well-formed assertions:
    extra heap values at zero permission can never flip them.
    """
    read = tuple(sorted((v, store[v]) for v in free_vars(a) if v in store))
    key = (id(u), format_assertion(a), read, budget)
    hit = _LHS_CACHE.get(key)
    if hit is not None:
        return hit
    out = sorted(s for s in st.enumerate_states(u, stable_only=True, budget=budget) if sat(u, s, a, store))
    _remember(_LHS_CACHE, u, key, out)
    return out


def lhs_cases(u: Universe, a: Assertion, store: Store) -> list[State]:
    """The cases of a left-hand side: its demands from the empty state,
    with fresh values forked over their domains, unpruned, deduplicated
    and sorted.  Each case holds only the locations it owns.  An
    assertion that reads an unframed location has no cases."""
    try:
        return sorted(set(_demands(u, a, {}, store, None, FRESH_FORK, None)))
    except Unframed:
        return []  # sat is False on every state


def minimal_lhs_states(u: Universe, a: Assertion, store: Store) -> list[State]:
    """The minimal stable lattice states satisfying a wand-free,
    self-framing assertion, built from its cases instead of enumerated.

    Equal to ``minimal_elements(lhs_states(u, a, store))``.  Each case is
    lifted to the least stable state on the universe's granularity
    lattice above it: amounts round up to the lattice (an assertion may
    hold off-lattice amounts such as 1/3), and predicate instances the
    universe does not declare satisfy nothing.  A stable lattice state
    satisfies the assertion exactly when it lies above one of the lifted
    cases.
    """
    declared = set(u.predicate_instances())
    g = u.granularity
    lifted = []
    for d in lhs_cases(u, a, store):
        if any(isinstance(r, PredInst) and r not in declared for r, _ in d.mask):
            continue
        mask = {r: Fraction(math.ceil(amt * g), g) for r, amt in d.mask}
        lifted.append(State.make(mask, d.heap))
    return st.minimal_elements(lifted)


def reach(u: Universe, *parts: Assertion) -> Universe:
    """The sub-universe of the fields ``parts`` name (``acc``, reads,
    ``perm``), at every reference, and the predicates they name, through
    bodies.  ``sat`` reads nothing outside it, and dropping the rest of a
    state keeps it stable, satisfying and compatible (``restrict`` too)."""
    fields, preds, todo = set(), set(), list(parts)
    while todo:
        n = todo.pop()
        if isinstance(n, PredA) and n.name not in preds:
            preds.add(n.name)
            if n.name in u.predicates:
                todo.append(u.predicates[n.name].body)
        elif isinstance(n, (Acc, FieldAcc, PermOf)):
            fields.add(n.field)
        todo.extend(children(n))
    return u.sub_universe(frozenset(fields), frozenset(preds))


class WandCheck:
    """A wand atom compiled for one universe and store: ``holds(sigma_w)``
    decides the semantic footprint reading for any candidate sigma_w.

    It keeps the LHS pool, fetched once (``lhs_states`` over the
    sub-universe the wand reaches), each pool state's heap and mask as
    dicts for the exact pre-test ``states.addable`` and the combinable cap
    ``states.capped``, and the RHS verdict of every combined state met,
    cleared when it reaches MEMO_LIMIT entries.  The universe is held
    weakly, so a cached check never keeps it alive.
    """

    def __init__(self, u: Universe, w: Wand, store: Store):
        self.pool = lhs_states(reach(u, w), w.lhs, store)
        self.wand = w
        self.store = dict(store)
        self._universe = weakref.ref(u)
        self._parts = [(a, dict(a.heap), dict(a.mask)) for a in self.pool]
        self._memo: dict[State, bool] = {}

    def holds(self, sigma_w: State) -> bool:
        u, w, memo = self._universe(), self.wand, self._memo
        for sigma_a, heap, mask in self._parts:
            if not st.addable(heap, mask, sigma_w, w.combinable):
                continue  # add is undefined: nothing to check
            fp = st.capped(mask, sigma_w) if w.combinable else sigma_w
            combined = st.add(sigma_a, fp)
            verdict = memo.get(combined)
            if verdict is None:
                if len(memo) >= MEMO_LIMIT:
                    memo.clear()
                verdict = memo[combined] = sat(u, combined, w.rhs, self.store)
            if not verdict:
                return False
        return True


def wand_check(u: Universe, w: Wand, store: Store) -> WandCheck:
    """The cached compiled check of ``w`` over ``u``'s enumerated pool."""
    # typed store values: a store binding 1 and one binding True differ
    typed = tuple((k, type(v), v) for k, v in sorted(store.items()))
    key = (id(u), id(w.lhs), id(w.rhs), w.combinable, typed)
    check = _CHECKS.get(key)
    if check is None:
        check = WandCheck(u, w, store)
        # the check holds w, so the ids in the key are not reused while it lives
        _remember(_CHECKS, u, key, check)
    return check


def wand_holds(u: Universe, sigma_w: State, w: Wand, store: Store) -> bool:
    """The semantic footprint reading of a wand atom.

    Standard: combined with every compatible state satisfying the LHS,
    the result satisfies the RHS.  Combinable: the footprint is first
    passed through the compatibility-restriction transform.

    The LHS states range over the ``lhs_states`` pool of the sub-universe
    the wand reaches.  The quantification runs in the cached
    ``WandCheck`` of ``wand_check``: a pool state the exact pre-test
    ``states.addable`` finds incompatible is skipped before any state is
    built, and RHS verdicts are memoised per combined state, at most
    ``MEMO_LIMIT`` of them, so repeated calls on one universe, wand and
    store fetch the pool once and share the memo.
    """
    return wand_check(u, w, store).holds(sigma_w)
