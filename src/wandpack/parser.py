"""Parsers for the text formats: expressions, assertions, universes,
programs, and state literals.  Every format round-trips with the printers,
except three top-level pure expressions that print as assertion
connectives and parse back as a different tree of the same meaning:
``Pure(BoolOp("or", l, r))`` as ``OrA(Pure(l), Pure(r))``,
``Pure(BoolOp("implies", l, r))`` as ``Imp(l, Pure(r))``, and
``Pure(Ite(c, t, e))`` as ``Star(Imp(c, Pure(t)), Imp(Not(c), Pure(e)))``.

All parsers are recursive descent over the token texts and offsets that
``_scan`` reads in one regex pass; a token's kind shows in its text.
Errors report the line/column position ``_Lines`` finds for an offset.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from typing import Optional

from . import program as pr
from .assertions import (
    Acc,
    Assertion,
    AssertionError_,
    Imp,
    OrA,
    PredA,
    Pure,
    Star,
    Wand,
    atoms,
    contains_wand,
    format_assertion,
)
from .exprs import (
    BoolOp,
    Eq,
    Expr,
    FieldAcc,
    Ite,
    Lit,
    Not,
    PermOf,
    Var,
    contains_perm,
)
from .states import State, StateError
from .universe import (
    BOOL,
    INT,
    NULL,
    REF,
    FieldLoc,
    PredicateDef,
    PredInst,
    Universe,
    UniverseError,
    Value,
    WandInst,
    format_value,
    make_universe,
    value_type,
)

KEYWORDS = {
    "universe", "granularity", "refs", "loc", "pred", "program", "method",
    "requires", "var", "if", "else", "inhale", "exhale", "assert", "package",
    "apply", "fold", "unfold", "acc", "perm", "ref", "int", "bool", "Ref",
    "Int", "Bool", "true", "false", "null", "write", "none", "wand",
}
# the statements a package's proof script admits
_SCRIPT_KEYWORDS = ("assert", "fold", "unfold", "apply", "if")

# One match per token: the whitespace and comments before it, then the token
# in group 1, which is empty at the end of the source (the eof token), or in
# group 2 a character no token starts with.  Since group 2 takes any other
# character, a match never fails, so the regex never backtracks into a
# comment to read part of it as tokens.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*|//[^\n]*)*
    (?:
        ( "[^"\n]*"                                             # string
        | \d+                                                   # number
        | [A-Za-z_][A-Za-z_0-9]*                                # ident
        | --\*c|--\*|==>|:=|==|!=|\|\||&&|[(){}\[\].,:;=@?!*/]  # op
        | \Z )
      | (.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_VALUES = {"true": True, "false": False, "null": NULL}
_AMOUNTS = {"write": Fraction(1), "none": Fraction(0)}
_TYPES = {"ref": (REF, str), "int": (INT, int), "bool": (BOOL, bool)}
_ASSERTION_STMTS = {"inhale": pr.Inhale, "exhale": pr.Exhale, "assert": pr.AssertStmt}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Lines:
    """The 1-based (line, col) of an offset into ``src``.  The line starts are
    found on first use: only an error or a statement's pos asks."""

    __slots__ = ("src", "starts")

    def __init__(self, src: str):
        self.src = src
        self.starts: Optional[list[int]] = None

    def __call__(self, offset: int) -> tuple[int, int]:
        if self.starts is None:
            self.starts = [0] + [m.end() for m in re.finditer("\n", self.src)]
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1


def _scan(src: str) -> tuple[list[str], list[int]]:
    """The texts of ``src``'s tokens and their offsets, ending with the eof
    token's empty text at the end of ``src``."""
    texts: list[str] = []
    offsets: list[int] = []
    for m in _TOKEN_RE.finditer(src):
        text = m.group(1)
        if text is None:
            at = m.start(2)
            raise ParseError(f"unexpected character {src[at]!r}", *_Lines(src)(at))
        texts.append(text)
        offsets.append(m.start(1))
        if not text:
            # after a match ending in whitespace at the end of src, finditer
            # would match the empty eof token there once more
            break
    return texts, offsets


class Parser:
    """Recursive descent over the token texts of one source.  The cursor ``i``
    indexes ``texts``, whose last entry is the eof token's empty text; no rule
    moves past it, so a token that is not eof always has a successor.  A
    token's kind shows in its text: a string starts with a quote, a number
    is decimal digits, an ident is an identifier, and no keyword or operator
    equals a string's text."""

    def __init__(self, src: str):
        self.texts, self.offsets = _scan(src)
        self.lines = _Lines(src)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def next(self) -> str:
        t = self.texts[self.i]
        if t:
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def pos(self, i: Optional[int] = None) -> tuple[int, int]:
        """(line, col) of token ``i``, by default the current one."""
        return self.lines(self.offsets[self.i if i is None else i])

    def error(self, msg: str, i: Optional[int] = None):
        raise ParseError(msg, *self.pos(i))

    def expect(self, text: str) -> None:
        t = self.texts[self.i]
        if t != text:
            self.error(f"expected {text!r}, found {t!r}")
        self.i += 1

    def expect_ident(self, reserved_ok: bool = False) -> str:
        t = self.texts[self.i]
        if not t.isidentifier() or (not reserved_ok and t in KEYWORDS):
            self.error(f"expected an identifier, found {t!r}")
        self.i += 1
        return t

    def expect_eof(self):
        t = self.texts[self.i]
        if t:
            self.error(f"unexpected trailing input {t!r}")

    def items(self, item, close: Optional[str] = None) -> list:
        """One or more ``item``s separated by commas; given ``close``, none or
        more, followed by the ``close`` token, which is consumed."""
        out = [] if close is not None and self.at(close) else [item()]
        while out and self.accept(","):
            out.append(item())
        if close is not None:
            self.expect(close)
        return out

    # -- fractions and values ----------------------------------------------

    def parse_fraction(self) -> Fraction:
        t = self.texts[self.i]
        if t in _AMOUNTS:
            self.i += 1
            return _AMOUNTS[t]
        if not t.isdecimal():
            self.error("expected a permission amount")
        self.i += 1
        return self._ratio(t) if self.accept("/") else Fraction(int(t))

    def _ratio(self, num: str) -> Fraction:
        """The fraction num/den, after num's "/"."""
        den = self.next()
        if not den.isdecimal():
            self.error("expected a denominator")
        if int(den) == 0:
            self.error("zero denominator", self.i - 1)
        return Fraction(int(num), int(den))

    def parse_value(self) -> Value:
        t = self.texts[self.i]
        if t.isdecimal():
            self.i += 1
            return int(t)
        if t in _VALUES:
            self.i += 1
            return _VALUES[t]
        if t.isidentifier():
            self.i += 1
            return t
        self.error("expected a value")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._ite()

    def _ite(self) -> Expr:
        cond = self._implies()
        if self.accept("?"):
            then = self._implies()
            self.expect(":")
            other = self._ite()
            return Ite(cond, then, other)
        return cond

    def _implies(self) -> Expr:
        left = self._or()
        if self.accept("==>"):
            return BoolOp("implies", left, self._implies())
        return left

    def _or(self) -> Expr:
        e = self._and()
        while self.accept("||"):
            e = BoolOp("or", e, self._and())
        return e

    def _and(self) -> Expr:
        e = self._cmp()
        while self.accept("&&"):
            e = BoolOp("and", e, self._cmp())
        return e

    def _cmp(self) -> Expr:
        e = self._unary()
        t = self.texts[self.i]
        if t == "==":
            self.i += 1
            return Eq(e, self._unary())
        if t == "!=":
            self.i += 1
            return Not(Eq(e, self._unary()))
        return e

    def _unary(self) -> Expr:
        if self.accept("!"):
            return Not(self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._atom_expr()
        texts = self.texts
        while texts[self.i] == "." and texts[self.i + 1].isidentifier():
            e = FieldAcc(e, texts[self.i + 1])
            self.i += 2
        return e

    def _atom_expr(self) -> Expr:
        start = self.i
        t = self.next()
        if t == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.isdecimal():
            return Lit(self._ratio(t) if self.accept("/") else int(t))
        if t in _VALUES:
            return Lit(_VALUES[t])
        if t in _AMOUNTS:
            return Lit(_AMOUNTS[t])
        if t == "ref":
            self.expect("(")
            name = self.expect_ident()
            self.expect(")")
            return Lit(name)
        if t == "perm":
            self.expect("(")
            inner = self._postfix()
            self.expect(")")
            if not isinstance(inner, FieldAcc):
                self.error("perm() takes a field access", start)
            return PermOf(inner.base, inner.field)
        if t.isidentifier() and t not in KEYWORDS:
            return Var(t)
        self.error("expected an expression", start)

    # -- assertions ------------------------------------------------------------

    def parse_assertion(self) -> Assertion:
        return self._wand()

    def _wand(self) -> Assertion:
        left = self._imp_a()
        t = self.texts[self.i]
        if t == "--*" or t == "--*c":
            self.i += 1
            return Wand(left, self._wand(), t == "--*c")
        return left

    def _imp_a(self) -> Assertion:
        left = self._or_a()
        t = self.texts[self.i]
        if t == "==>":
            self.i += 1
            guard = self._as_pure_expr(left)
            return Imp(guard, self._imp_a())
        if t == "?":
            self.i += 1
            guard = self._as_pure_expr(left)
            then = self._imp_a()
            self.expect(":")
            other = self._imp_a()
            # conditional assertions desugar to a pair of guarded conjuncts
            return Star(Imp(guard, then), Imp(Not(guard), other))
        return left

    def _as_pure_expr(self, a: Assertion) -> Expr:
        e = self._try_pure_expr(a)
        if e is None:
            self.error("guard must be a pure expression")
        return e

    def _try_pure_expr(self, a: Assertion) -> Optional[Expr]:
        if isinstance(a, Pure):
            return a.expr
        if isinstance(a, OrA):
            l = self._try_pure_expr(a.left)
            r = self._try_pure_expr(a.right)
            if l is not None and r is not None:
                return BoolOp("or", l, r)
        return None

    def _or_a(self) -> Assertion:
        a = self._star_a()
        while self.accept("||"):
            a = OrA(a, self._star_a())
        return a

    def _star_a(self) -> Assertion:
        a = self._atom_a()
        while self.accept("*"):
            a = Star(a, self._atom_a())
        return a

    def _atom_a(self) -> Assertion:
        texts = self.texts
        start = self.i
        t = texts[start]
        if t == "(":
            # parenthesized assertion; a parenthesized pure expression is
            # re-wrapped by the expression fallback below when needed
            self.i += 1
            try:
                a = self.parse_assertion()
                self.expect(")")
            except ParseError:
                self.i = start
                return Pure(self.parse_expr())
            # expression operators continue a parenthesized expression, e.g.
            # (x.f == y ? y : z) == w or (x.b ? y : z).f, whose span parses as
            # a conditional assertion.  The errors of a pure span followed by
            # an operator stand; any other span that is no expression stands
            # as the assertion it is.
            t = texts[self.i]
            if t in ("==", "!=", "&&", "."):
                after = self.i
                self.i = start
                try:
                    return Pure(self.parse_expr())
                except ParseError:
                    if isinstance(a, Pure) and t != ".":
                        raise
                    self.i = after
            return a
        if t == "acc":
            self.i += 1
            self.expect("(")
            name = texts[self.i]
            if name.isidentifier() and name not in KEYWORDS and texts[self.i + 1] == "(":
                self.i += 1
                args = self._call_args()
                frac = self.parse_fraction() if self.accept(",") else Fraction(1)
                self.expect(")")
                return PredA(name, args, frac)
            inner = self._postfix()
            if not isinstance(inner, FieldAcc):
                self.error("acc() takes a field access", start)
            amount = self.parse_fraction() if self.accept(",") else Fraction(1)
            self.expect(")")
            return Acc(inner.base, inner.field, amount)
        if t.isidentifier() and t not in KEYWORDS and texts[start + 1] == "(":
            self.i += 1
            return PredA(t, self._call_args(), Fraction(1))
        # a pure expression atom; || / ==> / ?: at assertion level belong to
        # the assertion grammar, so stop below them
        return Pure(self._and())

    def _call_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        return tuple(self.items(self.parse_expr, ")"))

    # -- universes ----------------------------------------------------------------

    def parse_universe(self) -> Universe:
        self.expect("universe")
        self.expect("v1")
        granularity = None
        refs: list[str] = []
        locations: dict[tuple[str, str], tuple[Value, ...]] = {}
        raw_preds: list[tuple[str, tuple[str, ...], Assertion]] = []
        while self.texts[self.i]:
            start = self.i
            t = self.next()
            if t == "granularity":
                n = self.next()
                if not n.isdecimal():
                    self.error("expected the granularity integer")
                granularity = int(n)
            elif t == "refs":
                refs += self.items(self.expect_ident)
            elif t == "loc":
                r = self.expect_ident()
                self.expect(".")
                f = self.expect_ident(reserved_ok=True)
                self.expect(":")
                dom = self._parse_domain()
                if (r, f) in locations:
                    self.error(f"duplicate location {r}.{f}")
                locations[(r, f)] = dom
            elif t == "pred":
                name = self.expect_ident()
                self.expect("(")
                params = self.items(self.expect_ident, ")")
                self.expect("=")
                body = self.parse_assertion()
                raw_preds.append((name, tuple(params), body))
            else:
                self.error("expected a universe declaration", start)
        if granularity is None:
            raise ParseError("missing granularity declaration", 1, 1)
        try:
            preds = _check_predicates(raw_preds)
            return make_universe(refs, locations, granularity, preds)
        except (UniverseError, AssertionError_) as e:
            raise ParseError(str(e), 1, 1)

    def _parse_domain(self) -> tuple[Value, ...]:
        t = self.texts[self.i]
        if t not in _TYPES:
            self.error("expected a location type (ref/int/bool)")
        self.i += 1
        ty, want = _TYPES[t]
        if ty == BOOL and not self.at("{"):
            return (False, True)
        self.expect("{")
        vals = self.items(self.parse_value)
        self.expect("}")
        for v in vals:
            if ty == INT and isinstance(v, bool):
                self.error("boolean value in an int domain")
            if not isinstance(v, want):
                self.error(f"value {v!r} does not fit a {ty} domain")
        return tuple(vals)

    # -- state literals --------------------------------------------------------

    def parse_state(self) -> State:
        start = self.i
        self.expect("{")
        mask: dict = {}
        heap: dict = {}
        seen: set = set()
        while not self.at("}"):
            entry = self.i
            rid = self._resource()
            if rid in seen:
                self.error(f"duplicate resource {rid}", entry)
            seen.add(rid)
            self.expect("@")
            amount = self.parse_fraction()
            if isinstance(rid, FieldLoc):
                if amount > 0:
                    mask[rid] = amount
                if self.accept("="):
                    heap[rid] = self.parse_value()
            else:
                mask[rid] = amount
            if not self.accept(","):
                break
        self.expect("}")
        try:
            return State.make(mask, heap)
        except StateError as e:
            self.error(str(e), start)

    def _resource(self):
        """The resource a state literal's entry names."""
        if self.accept("wand"):
            self.expect("[")
            depth = 1
            parts = []
            while True:
                t = self.next()
                if not t:
                    self.error("unterminated wand key")
                if t == "[":
                    depth += 1
                elif t == "]":
                    depth -= 1
                    if not depth:
                        break
                parts.append(t)
            # normalize the key through the assertion grammar
            return WandInst(format_assertion(parse_assertion_text(" ".join(parts))))
        name = self.expect_ident()
        if self.accept("("):
            return PredInst(name, tuple(self.items(self.parse_value, ")")))
        self.expect(".")
        return FieldLoc(name, self.expect_ident(reserved_ok=True))

    # -- programs ----------------------------------------------------------------

    def parse_program(self) -> pr.Program:
        self.expect("program")
        self.expect("v1")
        universe_ref = ""
        if self.accept("universe"):
            t = self.texts[self.i]
            if not t.startswith('"'):
                self.error("expected a quoted universe path")
            self.i += 1
            universe_ref = t[1:-1]
        methods = []
        while self.at("method"):
            methods.append(self._method())
        self.expect_eof()
        if not methods:
            raise ParseError("program declares no methods", 1, 1)
        return pr.Program(universe_ref, tuple(methods))

    def _method(self) -> pr.Method:
        pos = self.pos()
        self.expect("method")
        name = self.expect_ident()
        self.expect("(")
        params = self.items(self._param, ")")
        requires = None
        if self.accept("requires"):
            requires = self.parse_assertion()
        body = self._block(script=False)
        return pr.Method(name, tuple(params), requires, tuple(body), pos)

    def _param(self) -> str:
        name = self.expect_ident()
        self.expect(":")
        if self.texts[self.i] not in ("Ref", "ref"):
            self.error("method parameters must have type Ref")
        self.i += 1
        return name

    def _block(self, script: bool) -> list[pr.Stmt]:
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self._stmt(script))
            while self.accept(";"):
                pass
        self.expect("}")
        return out

    def _stmt(self, script: bool) -> pr.Stmt:
        """One statement of a method body or, when ``script``, of a
        package's proof script."""
        t = self.texts[self.i]
        pos = self.pos()
        if script and t not in _SCRIPT_KEYWORDS:
            self.error("expected a proof-script statement")
        if t in _ASSERTION_STMTS:
            self.i += 1
            return _ASSERTION_STMTS[t](self.parse_assertion(), pos)
        if t == "var":
            self.i += 1
            name = self.expect_ident()
            self.expect(":")
            ty = self.next()
            if ty not in ("Ref", "Int", "Bool", "ref", "int", "bool"):
                self.error("variable type must be Ref, Int or Bool")
            self.expect(":=")
            return pr.VarDecl(name, ty.lower(), self.parse_expr(), pos)
        if t == "if":
            self.i += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self._block(script)
            els: list[pr.Stmt] = []
            if self.accept("else"):
                els = self._block(script)
            return pr.If(cond, tuple(then), tuple(els), pos)
        if t == "package":
            self.i += 1
            wand = self.parse_assertion()
            if not isinstance(wand, Wand):
                raise ParseError("package takes a wand", *pos)
            body = tuple(self._block(script=True)) if self.at("{") else ()
            return pr.Package(wand, body, pos)
        if t == "apply":
            self.i += 1
            wand = self.parse_assertion()
            if not isinstance(wand, Wand):
                raise ParseError("apply takes a wand", *pos)
            return pr.Apply(wand, pos)
        if script and t in ("fold", "unfold"):
            self.i += 1
            kind = pr.Fold if t == "fold" else pr.Unfold
            name = self.expect_ident()
            return kind(name, self._call_args(), pos)
        # assignment or heap write
        target = self._postfix()
        if isinstance(target, Var):
            self.expect(":=")
            return pr.Assign(target.name, self.parse_expr(), pos)
        if isinstance(target, FieldAcc):
            self.expect(":=")
            return pr.HeapWrite(target.base, target.field, self.parse_expr(), pos)
        self.error("expected a statement")


def _check_predicates(raw: list[tuple[str, tuple[str, ...], Assertion]]) -> dict[str, PredicateDef]:
    """Reject recursion, wands and perm() in predicate bodies."""
    names = {n for n, _, _ in raw}
    if len(names) != len(raw):
        raise AssertionError_("duplicate predicate definition")

    deps = {n: {x.name for x in atoms(b) if isinstance(x, PredA)} & names for n, _, b in raw}
    try:
        TopologicalSorter(deps).prepare()
    except CycleError:
        raise AssertionError_("recursive predicate definitions are not supported")
    out = {}
    for name, params, body in raw:
        if contains_wand(body):
            raise AssertionError_(f"predicate {name} contains a wand")
        if contains_perm(body):
            raise AssertionError_(f"predicate {name} uses perm()")
        out[name] = PredicateDef(name, params, body)
    return out


# -- module-level conveniences ----------------------------------------------------


def _whole(src: str, rule):
    """``rule`` run on a parser of ``src``, which must leave nothing unread.
    Input nested deeper than the interpreter's stack is a parse error, not a
    crash."""
    p = Parser(src)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("input nested too deeply", 1, 1) from None
    p.expect_eof()
    return out


def parse_expr_text(src: str) -> Expr:
    return _whole(src, Parser.parse_expr)


def parse_assertion_text(src: str) -> Assertion:
    return _whole(src, Parser.parse_assertion)


def parse_script_text(src: str) -> tuple[pr.Stmt, ...]:
    """A package's proof script written as a ``{ ... }`` block."""
    return tuple(_whole(src, lambda p: p._block(script=True)))


def parse_universe_text(src: str) -> Universe:
    return _whole(src, Parser.parse_universe)


def parse_state_text(src: str) -> State:
    return _whole(src, Parser.parse_state)


def parse_program_text(src: str) -> pr.Program:
    return _whole(src, Parser.parse_program)


def format_universe(u: Universe) -> str:
    lines = ["universe v1", f"granularity {u.granularity}"]
    if u.refs:
        lines.append("refs " + ", ".join(sorted(u.refs)))
    for loc in u.sorted_locations():
        dom = u.domain(loc)
        ty = value_type(dom[0])
        if ty == BOOL and set(dom) == {False, True}:
            lines.append(f"loc {loc.ref}.{loc.field}: bool")
        else:
            vals = ", ".join(format_value(v) for v in dom)
            lines.append(f"loc {loc.ref}.{loc.field}: {ty} {{{vals}}}")
    for name in sorted(u.predicates):
        d = u.predicates[name]
        lines.append(f"pred {name}({', '.join(d.params)}) = {format_assertion(d.body)}")
    return "\n".join(lines) + "\n"


def format_state(s: State) -> str:
    parts = []
    heap_left = dict(s.heap)
    for rid, amt in s.mask:
        frac = "1" if amt == 1 else f"{amt.numerator}/{amt.denominator}"
        if isinstance(rid, FieldLoc):
            v = heap_left.pop(rid, None)
            suffix = f" = {format_value(v)}" if v is not None else ""
            parts.append(f"{rid} @ {frac}{suffix}")
        elif isinstance(rid, PredInst):
            parts.append(f"{rid} @ {frac}")
        else:
            parts.append(f"wand[{rid.key}] @ {frac}")
    for loc in sorted(heap_left):
        parts.append(f"{loc} @ 0 = {format_value(heap_left[loc])}")
    return "{" + ", ".join(parts) + "}"
