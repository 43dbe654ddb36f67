"""Heap-dependent expressions and their evaluation.

Expressions evaluate against a partial heap and a store of local
variables.  Dereferencing a location the heap does not frame raises
``Unframed`` — callers decide whether that is a falsity (satisfaction) or
a hard error (well-formedness, verification).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, Optional, Union

from .universe import BOOL, INT, NULL, REF, FieldLoc, Universe, Value

Store = Mapping[str, Value]

PERM = "perm"


class ExprError(Exception):
    """Static expression problem: unknown variable, bad operand types."""


class Unframed(Exception):
    """A dereference whose location has no heap entry (or a null base)."""

    def __init__(self, description: str):
        super().__init__(description)
        self.description = description


# -- the shape of the syntax tree ---------------------------------------------------
# Expression and assertion nodes are frozen dataclasses declared with
# ``@node``.  A field annotated with ``Expr`` or ``Assertion`` (alone or as a
# tuple of them) holds children; every other field is data.  Walkers that do
# the same thing at most nodes recurse through ``children`` and
# ``map_children`` and name only the nodes where they differ.

CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def node(cls):
    """Declare a syntax-tree class and record its child fields."""
    cls = dataclass(frozen=True)(cls)
    CHILD_FIELDS[cls] = tuple(
        f.name for f in fields(cls) if "Expr" in f.type or "Assertion" in f.type
    )
    return cls


def children(n) -> list:
    """The expression and assertion nodes directly below ``n``, in field
    order; a tuple field gives each of its items."""
    out = []
    for name in CHILD_FIELDS[type(n)]:
        v = getattr(n, name)
        if type(v) is tuple:
            out.extend(v)
        else:
            out.append(v)
    return out


def map_children(n, fn):
    """``n`` rebuilt with ``fn`` applied to each child."""
    names = CHILD_FIELDS[type(n)]
    if not names:
        return n
    kw = vars(n).copy()  # a node's fields, and nothing else
    for name in names:
        v = kw[name]
        kw[name] = tuple(map(fn, v)) if type(v) is tuple else fn(v)
    return type(n)(**kw)


@node
class Var:
    name: str


@node
class Lit:
    value: Union[Value, Fraction]


@node
class FieldAcc:
    base: "Expr"
    field: str


@node
class Eq:
    left: "Expr"
    right: "Expr"


@node
class Not:
    arg: "Expr"


@node
class BoolOp:
    op: str  # "and" | "or" | "implies"
    left: "Expr"
    right: "Expr"


@node
class Ite:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@node
class PermOf:
    """Permission introspection: the mask amount held for base.field."""

    base: "Expr"
    field: str


Expr = Union[Var, Lit, FieldAcc, Eq, Not, BoolOp, Ite, PermOf]


def eval_expr(
    e: Expr,
    heap: Mapping[FieldLoc, Value],
    store: Store,
    mask: Optional[Mapping] = None,
) -> Union[Value, Fraction]:
    """Evaluate an expression; raises Unframed on unbacked dereferences.

    ``mask`` supplies the permission table for ``perm`` introspection and
    is only available at verifier level.
    """
    if isinstance(e, Var):
        if e.name not in store:
            raise ExprError(f"unbound variable {e.name}")
        return store[e.name]
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, FieldAcc):
        base = eval_expr(e.base, heap, store, mask)
        if not isinstance(base, str):
            raise ExprError(f"field access on non-reference value {base!r}")
        if base == NULL:
            raise Unframed(f"null dereference at .{e.field}")
        loc = FieldLoc(base, e.field)
        if loc not in heap:
            raise Unframed(f"no heap value for {loc}")
        return heap[loc]
    if isinstance(e, Eq):
        return eval_expr(e.left, heap, store, mask) == eval_expr(e.right, heap, store, mask)
    if isinstance(e, Not):
        return not _as_bool(eval_expr(e.arg, heap, store, mask))
    if isinstance(e, BoolOp):
        lv = _as_bool(eval_expr(e.left, heap, store, mask))
        if e.op == "and":
            return lv and _as_bool(eval_expr(e.right, heap, store, mask))
        if e.op == "or":
            return lv or _as_bool(eval_expr(e.right, heap, store, mask))
        if e.op == "implies":
            return (not lv) or _as_bool(eval_expr(e.right, heap, store, mask))
        raise ExprError(f"unknown boolean operator {e.op}")
    if isinstance(e, Ite):
        if _as_bool(eval_expr(e.cond, heap, store, mask)):
            return eval_expr(e.then, heap, store, mask)
        return eval_expr(e.other, heap, store, mask)
    if isinstance(e, PermOf):
        if mask is None:
            raise ExprError("perm() is only available at verifier level")
        base = eval_expr(e.base, heap, store, mask)
        if not isinstance(base, str) or base == NULL:
            raise Unframed(f"perm() on non-reference or null base {base!r}")
        return mask.get(FieldLoc(base, e.field), Fraction(0))
    raise ExprError(f"unknown expression node {e!r}")


def _as_bool(v) -> bool:
    if not isinstance(v, bool):
        raise ExprError(f"expected a boolean, got {v!r}")
    return v


def eval_bool(e: Expr, heap, store: Store, mask=None) -> bool:
    return _as_bool(eval_expr(e, heap, store, mask))


def free_vars(n) -> set[str]:
    """The variables an expression or assertion reads."""
    # a loop, not a recursion: lhs_states computes this on every call
    out = set()
    stack = [n]
    while stack:
        x = stack.pop()
        if type(x) is Var:
            out.add(x.name)
        else:
            stack.extend(children(x))
    return out


def substitute(n, binding: Mapping[str, Expr]):
    """An expression or assertion with the variables ``binding`` names
    replaced."""

    def sub(x):
        return binding.get(x.name, x) if type(x) is Var else map_children(x, sub)

    return sub(n)


def contains_perm(n) -> bool:
    return type(n) is PermOf or any(map(contains_perm, children(n)))


def infer_type(e: Expr, u: Universe, var_types: Mapping[str, str]) -> str:
    """Type an expression (ref/int/bool/perm) against a universe."""
    if isinstance(e, Var):
        if e.name not in var_types:
            raise ExprError(f"unbound variable {e.name}")
        return var_types[e.name]
    if isinstance(e, Lit):
        if isinstance(e.value, Fraction):
            return PERM
        if isinstance(e.value, bool):
            return BOOL
        if isinstance(e.value, int):
            return INT
        return REF
    if isinstance(e, FieldAcc):
        bt = infer_type(e.base, u, var_types)
        if bt != REF:
            raise ExprError(f"field access base must be a reference, got {bt}")
        ft = u.field_type(e.field)
        if ft is None:
            raise ExprError(f"unknown field {e.field}")
        return ft
    if isinstance(e, PermOf):
        bt = infer_type(e.base, u, var_types)
        if bt != REF:
            raise ExprError(f"perm() base must be a reference, got {bt}")
        if u.field_type(e.field) is None:
            raise ExprError(f"unknown field {e.field}")
        return PERM
    if isinstance(e, Eq):
        lt = infer_type(e.left, u, var_types)
        rt = infer_type(e.right, u, var_types)
        if lt != rt:
            raise ExprError(f"equality between {lt} and {rt}")
        return BOOL
    if isinstance(e, Not):
        if infer_type(e.arg, u, var_types) != BOOL:
            raise ExprError("negation of a non-boolean")
        return BOOL
    if isinstance(e, BoolOp):
        for side in (e.left, e.right):
            if infer_type(side, u, var_types) != BOOL:
                raise ExprError(f"{e.op} applied to a non-boolean")
        return BOOL
    if isinstance(e, Ite):
        if infer_type(e.cond, u, var_types) != BOOL:
            raise ExprError("ternary condition must be boolean")
        tt = infer_type(e.then, u, var_types)
        et = infer_type(e.other, u, var_types)
        if tt != et:
            raise ExprError(f"ternary branches disagree: {tt} vs {et}")
        return tt
    raise ExprError(f"unknown expression node {e!r}")


def format_expr(e: Expr) -> str:
    return _fmt(e, 0)


# precedence: 0 ternary, 1 implies, 2 or, 3 and, 4 eq, 5 unary, 6 field access/atom
def _fmt(e: Expr, prec: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        if isinstance(e.value, Fraction):
            return "write" if e.value == 1 else f"{e.value.numerator}/{e.value.denominator}"
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        if isinstance(e.value, int):
            return str(e.value)
        if e.value == NULL:
            return "null"
        return f"ref({e.value})"
    if isinstance(e, FieldAcc):
        return f"{_fmt(e.base, 6)}.{e.field}"
    if isinstance(e, PermOf):
        return f"perm({_fmt(e.base, 6)}.{e.field})"
    if isinstance(e, Eq):
        s = f"{_fmt(e.left, 5)} == {_fmt(e.right, 5)}"
        return _paren(s, 4, prec)
    if isinstance(e, Not):
        return _paren(f"!{_fmt(e.arg, 5)}", 5, prec)
    if isinstance(e, BoolOp):
        sym, level = {"implies": ("==>", 1), "or": ("||", 2), "and": ("&&", 3)}[e.op]
        if e.op == "implies":  # right-associative in the grammar
            s = f"{_fmt(e.left, level + 1)} {sym} {_fmt(e.right, level)}"
        else:  # || and && are left-associative
            s = f"{_fmt(e.left, level)} {sym} {_fmt(e.right, level + 1)}"
        return _paren(s, level, prec)
    if isinstance(e, Ite):
        s = f"{_fmt(e.cond, 1)} ? {_fmt(e.then, 1)} : {_fmt(e.other, 0)}"
        return _paren(s, 0, prec)
    raise ExprError(f"unknown expression node {e!r}")


def _paren(s: str, level: int, prec: int) -> str:
    return f"({s})" if level < prec else s
