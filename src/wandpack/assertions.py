"""Assertions: AST, well-formedness, demands, and satisfaction.

The grammar is star / implication / disjunction over the concrete atoms:
pure boolean expressions, accessibility predicates, predicate instances
and wand instances.  ``demands`` computes the finite antichain of minimal
states satisfying an assertion given ambient heap values; ``sat`` decides
satisfaction, deciding stars through demand sets and wand atoms through
the semantic footprint quantification.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import states as st
from .exprs import (
    BOOL,
    Expr,
    Lit,
    Not,
    Store,
    Unframed,
    contains_perm,
    eval_bool,
    eval_expr,
    format_expr,
    free_vars,
    infer_type,
    substitute,
)
from .states import EMPTY, State, state_key
from .universe import NULL, REF, FieldLoc, PredInst, Universe, Value, WandInst


class AssertionError_(Exception):
    """Static assertion problem (types, arities, predicate misuse)."""


@dataclass(frozen=True)
class Pure:
    expr: Expr


@dataclass(frozen=True)
class Acc:
    ref_expr: Expr
    field: str
    amount: Fraction = Fraction(1)


@dataclass(frozen=True)
class PredA:
    name: str
    args: tuple[Expr, ...]
    frac: Fraction = Fraction(1)


@dataclass(frozen=True)
class Star:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Imp:
    guard: Expr
    body: "Assertion"


@dataclass(frozen=True)
class OrA:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
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
        from .exprs import BoolOp, Ite

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


def assertion_free_vars(a: Assertion) -> set[str]:
    if isinstance(a, Pure):
        return free_vars(a.expr)
    if isinstance(a, Acc):
        return free_vars(a.ref_expr)
    if isinstance(a, PredA):
        return set().union(*(free_vars(x) for x in a.args)) if a.args else set()
    if isinstance(a, (Star, OrA)):
        return assertion_free_vars(a.left) | assertion_free_vars(a.right)
    if isinstance(a, Imp):
        return free_vars(a.guard) | assertion_free_vars(a.body)
    if isinstance(a, Wand):
        return assertion_free_vars(a.lhs) | assertion_free_vars(a.rhs)
    raise AssertionError_(f"unknown assertion node {a!r}")


def assertion_substitute(a: Assertion, binding: Mapping[str, Expr]) -> Assertion:
    if isinstance(a, Pure):
        return Pure(substitute(a.expr, binding))
    if isinstance(a, Acc):
        return Acc(substitute(a.ref_expr, binding), a.field, a.amount)
    if isinstance(a, PredA):
        return PredA(a.name, tuple(substitute(x, binding) for x in a.args), a.frac)
    if isinstance(a, Star):
        return Star(assertion_substitute(a.left, binding), assertion_substitute(a.right, binding))
    if isinstance(a, OrA):
        return OrA(assertion_substitute(a.left, binding), assertion_substitute(a.right, binding))
    if isinstance(a, Imp):
        return Imp(substitute(a.guard, binding), assertion_substitute(a.body, binding))
    if isinstance(a, Wand):
        return Wand(assertion_substitute(a.lhs, binding), assertion_substitute(a.rhs, binding), a.combinable)
    raise AssertionError_(f"unknown assertion node {a!r}")


def close_assertion(a: Assertion, store: Store) -> Assertion:
    """Substitute store values for free variables (used for wand keys)."""
    fv = assertion_free_vars(a)
    missing = [v for v in sorted(fv) if v not in store]
    if missing:
        raise AssertionError_(f"cannot close assertion, unbound: {', '.join(missing)}")
    return assertion_substitute(a, {v: Lit(store[v]) for v in fv})


def wand_key(w: Wand, store: Store) -> WandInst:
    """Normalized wand resource key: the closed wand's printed form.

    Wands have no binders, so alpha-normalization reduces to canonical
    printing after closing; syntactically identical wands collide.
    """
    return WandInst(format_assertion(close_assertion(w, store)))


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
    if isinstance(a, Pure):
        return a
    if isinstance(a, Acc):
        return Acc(a.ref_expr, a.field, a.amount * p)
    if isinstance(a, PredA):
        return PredA(a.name, a.args, a.frac * p)
    if isinstance(a, Star):
        return Star(scale_assertion(a.left, p), scale_assertion(a.right, p))
    if isinstance(a, OrA):
        return OrA(scale_assertion(a.left, p), scale_assertion(a.right, p))
    if isinstance(a, Imp):
        return Imp(a.guard, scale_assertion(a.body, p))
    if isinstance(a, Wand):
        raise AssertionError_("wand atoms cannot be scaled syntactically")
    raise AssertionError_(f"unknown assertion node {a!r}")


def desugar_predicates(a: Assertion, u: Universe) -> Assertion:
    """Replace predicate atoms by their bodies, fractions multiplied through."""
    if isinstance(a, PredA):
        d = u.predicate(a.name)
        if len(d.params) != len(a.args):
            raise AssertionError_(f"{a.name} expects {len(d.params)} arguments")
        body = assertion_substitute(d.body, dict(zip(d.params, a.args)))
        body = desugar_predicates(body, u)
        return body if a.frac == 1 else scale_assertion(body, a.frac)
    if isinstance(a, Star):
        return Star(desugar_predicates(a.left, u), desugar_predicates(a.right, u))
    if isinstance(a, OrA):
        return OrA(desugar_predicates(a.left, u), desugar_predicates(a.right, u))
    if isinstance(a, Imp):
        return Imp(a.guard, desugar_predicates(a.body, u))
    if isinstance(a, Wand):
        return Wand(desugar_predicates(a.lhs, u), desugar_predicates(a.rhs, u), a.combinable)
    return a


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
    from .exprs import FieldAcc, Var

    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Lit):
        return ("lit", str(e.value))
    if isinstance(e, FieldAcc):
        base = _expr_path(e.base)
        return None if base is None else (base, e.field)
    return None


def _expr_framed(e: Expr, framed: frozenset, allow_perm: bool) -> bool:
    from .exprs import BoolOp, Eq, FieldAcc, Ite, PermOf, Var

    if isinstance(e, (Var, Lit)):
        return True
    if isinstance(e, FieldAcc):
        p = _expr_path(e)
        return p is not None and p in framed and _expr_framed(e.base, framed, allow_perm)
    if isinstance(e, PermOf):
        return allow_perm and _expr_framed(e.base, framed, allow_perm)
    if isinstance(e, Eq):
        return _expr_framed(e.left, framed, allow_perm) and _expr_framed(e.right, framed, allow_perm)
    if isinstance(e, Not):
        return _expr_framed(e.arg, framed, allow_perm)
    if isinstance(e, BoolOp):
        return _expr_framed(e.left, framed, allow_perm) and _expr_framed(e.right, framed, allow_perm)
    if isinstance(e, Ite):
        return all(_expr_framed(x, framed, allow_perm) for x in (e.cond, e.then, e.other))
    return False


def _wf_walk(a: Assertion, framed: frozenset, allow_perm: bool) -> tuple[bool, frozenset]:
    if isinstance(a, Pure):
        return _expr_framed(a.expr, framed, allow_perm), frozenset()
    if isinstance(a, Acc):
        if not _expr_framed(a.ref_expr, framed, allow_perm):
            return False, frozenset()
        p = _expr_path(a.ref_expr)
        gained = frozenset() if p is None else frozenset({(p, a.field)})
        return True, gained
    if isinstance(a, PredA):
        ok = all(_expr_framed(x, framed, allow_perm) for x in a.args)
        return ok, frozenset()
    if isinstance(a, Star):
        ok1, f1 = _wf_walk(a.left, framed, allow_perm)
        ok2, f2 = _wf_walk(a.right, framed | f1, allow_perm)
        return ok1 and ok2, f1 | f2
    if isinstance(a, Imp):
        if contains_perm(a.guard) and not allow_perm:
            return False, frozenset()
        if not _expr_framed(a.guard, framed, allow_perm):
            return False, frozenset()
        ok, _ = _wf_walk(a.body, framed, allow_perm)
        return ok, frozenset()
    if isinstance(a, OrA):
        ok1, f1 = _wf_walk(a.left, framed, allow_perm)
        ok2, f2 = _wf_walk(a.right, framed, allow_perm)
        return ok1 and ok2, f1 & f2
    if isinstance(a, Wand):
        ok1, fl = _wf_walk(a.lhs, frozenset(), False)
        # the RHS is evaluated in combinations with LHS states, so LHS
        # frames are available to it
        ok2, _ = _wf_walk(a.rhs, fl, False)
        return ok1 and ok2, frozenset()
    raise AssertionError_(f"unknown assertion node {a!r}")


def wf(a: Assertion, allow_perm: bool = False) -> bool:
    """Syntactic self-framing: every dereference is preceded (left to right
    through stars) by an accessibility predicate for its location; guards
    are pure.  ``allow_perm`` admits perm() at verifier level only."""
    ok, _ = _wf_walk(a, frozenset(), allow_perm)
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
    raw = _demands(u, a, heap, store, mask, fresh, fallback_heap)
    return _prune(raw)


def _prune(ds: Sequence[State]) -> list[State]:
    out: list[State] = []
    for d in ds:
        if d in out:
            continue
        if any(d != o and st.geq(d, o) for o in ds):
            continue
        out.append(d)
    return out


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


def sat(
    u: Universe,
    sigma: State,
    a: Assertion,
    store: Store,
    diag: Optional[list[str]] = None,
) -> bool:
    """Does sigma satisfy the assertion?

    Stars are decided through demand sets (equivalent to the existential
    split for this fragment); top-level wand atoms use the semantic
    footprint quantification over the enumerated left-hand-side states.
    Unframed expression evaluation makes the assertion false, recording a
    diagnostic when a list is supplied.
    """
    try:
        return _sat(u, sigma, a, store, diag)
    except Unframed as e:
        if diag is not None:
            diag.append(f"unframed evaluation: {e.description}")
        return False


def _sat(u, sigma: State, a: Assertion, store, diag) -> bool:
    heap = sigma.heap_dict()
    mask = sigma.mask_dict()
    if isinstance(a, Pure):
        return eval_bool(a.expr, heap, store, mask)
    if isinstance(a, Acc):
        base = eval_expr(a.ref_expr, heap, store, mask)
        if base == NULL:
            return False  # null carries no locations
        loc = FieldLoc(base, a.field)
        if not u.has_location(loc):
            if diag is not None:
                diag.append(f"accessibility over undeclared location {loc}")
            return False
        return sigma.mask_of(loc) >= a.amount
    if isinstance(a, PredA):
        vals = tuple(eval_expr(x, heap, store, mask) for x in a.args)
        return sigma.mask_of(PredInst(a.name, vals)) >= a.frac
    if isinstance(a, Wand):
        return wand_holds(u, sigma, a, store)
    if isinstance(a, Imp):
        if eval_bool(a.guard, heap, store, mask):
            return _sat(u, sigma, a.body, store, diag)
        return True
    if isinstance(a, OrA):
        return _sat(u, sigma, a.left, store, diag) or _sat(u, sigma, a.right, store, diag)
    if isinstance(a, Star):
        ds = demands(u, a, heap, store, mask)
        return any(st.geq(sigma, d) for d in ds)
    raise AssertionError_(f"unknown assertion node {a!r}")


# Satisfying-state pools are hot inside wand satisfaction.  Entries are keyed
# by (universe id, printed assertion, the store restricted to the assertion's
# free variables, budget), so stores that differ only in variables the
# assertion never reads share an entry.  A universe's entries are dropped
# when it is garbage-collected: the cache neither keeps a universe alive nor
# outlives it, and a recycled id never meets a stale entry.
_LHS_CACHE: dict = {}
_LHS_KEYS: dict[int, set] = {}


def _forget_universe(uid: int) -> None:
    for k in _LHS_KEYS.pop(uid, ()):
        _LHS_CACHE.pop(k, None)


def lhs_states(u: Universe, a: Assertion, store: Store, budget: int = 10**6) -> list[State]:
    """Enumerated stable states satisfying ``a`` (deterministic order).

    Quantifying over stable states suffices for well-formed assertions:
    extra heap values at zero permission can never flip them.
    """
    read = tuple(sorted((v, store[v]) for v in assertion_free_vars(a) if v in store))
    key = (id(u), format_assertion(a), read, budget)
    hit = _LHS_CACHE.get(key)
    if hit is not None:
        return hit
    out = sorted(
        (
            s
            for s in st.enumerate_states(u, stable_only=True, budget=budget)
            if sat(u, s, a, store)
        ),
        key=state_key,
    )
    keys = _LHS_KEYS.get(id(u))
    if keys is None:
        keys = _LHS_KEYS[id(u)] = set()
        weakref.finalize(u, _forget_universe, id(u)).atexit = False
    keys.add(key)
    _LHS_CACHE[key] = out
    return out


def lhs_cases(u: Universe, a: Assertion, store: Store) -> list[State]:
    """The cases of a left-hand side: its demands from the empty state,
    with fresh values forked over their domains, unpruned, deduplicated
    and sorted.  Each case holds only the locations it owns.  An
    assertion that reads an unframed location has no cases."""
    try:
        return sorted(set(_demands(u, a, {}, store, None, FRESH_FORK, None)), key=state_key)
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


def wand_holds(
    u: Universe,
    sigma_w: State,
    w: Wand,
    store: Store,
    lhs: Optional[Iterable[State]] = None,
) -> bool:
    """The semantic footprint reading of a wand atom.

    Standard: combined with every compatible state satisfying the LHS,
    the result satisfies the RHS.  Combinable: the footprint is first
    passed through the compatibility-restriction transform.
    """
    pool = lhs_states(u, w.lhs, store) if lhs is None else lhs
    for sigma_a in pool:
        fp = st.restrict(sigma_a, sigma_w) if w.combinable else sigma_w
        combined = st.add(sigma_a, fp)
        if combined is None:
            continue
        if not sat(u, combined, w.rhs, store):
            return False
    return True
