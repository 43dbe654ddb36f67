"""Parsers for the text formats: expressions, assertions, universes,
programs, and state literals.  Every format round-trips with the printers.

All parsers are recursive descent over a shared tokenizer and report
errors with line/column positions.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
    contains_perm,
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
    make_universe,
)

KEYWORDS = {
    "universe", "granularity", "refs", "loc", "pred", "program", "method",
    "requires", "var", "if", "else", "inhale", "exhale", "assert", "package",
    "apply", "fold", "unfold", "acc", "perm", "ref", "int", "bool", "Ref",
    "Int", "Bool", "true", "false", "null", "write", "none", "wand",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>--\*c|--\*|==>|:=|==|!=|\|\||&&|[(){}\[\].,:;=@?!*/])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "string"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "string":
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def expect_ident(self, reserved_ok: bool = False) -> Token:
        t = self.peek()
        if t.kind != "ident" or (not reserved_ok and t.text in KEYWORDS):
            raise ParseError(f"expected an identifier, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect_eof(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)

    # -- fractions and values ----------------------------------------------

    def parse_fraction(self) -> Fraction:
        if self.accept("write"):
            return Fraction(1)
        if self.accept("none"):
            return Fraction(0)
        t = self.peek()
        if t.kind != "number":
            self.error("expected a permission amount")
        self.next()
        if self.accept("/"):
            return self._ratio(t)
        return Fraction(int(t.text))

    def _ratio(self, num: Token) -> Fraction:
        """The fraction num/den, after num's "/"."""
        den = self.next()
        if den.kind != "number":
            self.error("expected a denominator")
        if int(den.text) == 0:
            raise ParseError("zero denominator", den.line, den.col)
        return Fraction(int(num.text), int(den.text))

    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return int(t.text)
        if self.accept("true"):
            return True
        if self.accept("false"):
            return False
        if self.accept("null"):
            return NULL
        if t.kind == "ident":
            self.next()
            return t.text
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
        if self.accept("=="):
            return Eq(e, self._unary())
        if self.accept("!="):
            return Not(Eq(e, self._unary()))
        return e

    def _unary(self) -> Expr:
        if self.accept("!"):
            return Not(self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._atom_expr()
        while self.at(".") and self.peek(1).kind == "ident":
            self.next()
            fld = self.expect_ident(reserved_ok=True)
            e = FieldAcc(e, fld.text)
        return e

    def _atom_expr(self) -> Expr:
        t = self.peek()
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "number":
            self.next()
            if self.accept("/"):
                return Lit(self._ratio(t))
            return Lit(int(t.text))
        if self.accept("true"):
            return Lit(True)
        if self.accept("false"):
            return Lit(False)
        if self.accept("null"):
            return Lit(NULL)
        if self.accept("write"):
            return Lit(Fraction(1))
        if self.accept("none"):
            return Lit(Fraction(0))
        if self.accept("ref"):
            self.expect("(")
            name = self.expect_ident()
            self.expect(")")
            return Lit(name.text)
        if self.accept("perm"):
            self.expect("(")
            inner = self._postfix()
            self.expect(")")
            if not isinstance(inner, FieldAcc):
                raise ParseError("perm() takes a field access", t.line, t.col)
            return PermOf(inner.base, inner.field)
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            return Var(t.text)
        self.error("expected an expression")

    # -- assertions ------------------------------------------------------------

    def parse_assertion(self) -> Assertion:
        return self._wand()

    def _wand(self) -> Assertion:
        left = self._imp_a()
        if self.at("--*") or self.at("--*c"):
            comb = self.next().text == "--*c"
            right = self._wand()
            return Wand(left, right, comb)
        return left

    def _imp_a(self) -> Assertion:
        left = self._or_a()
        if self.accept("==>"):
            guard = self._as_pure_expr(left)
            return Imp(guard, self._imp_a())
        if self.accept("?"):
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
            t = self.peek()
            raise ParseError("guard must be a pure expression", t.line, t.col)
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
        t = self.peek()
        if self.at("("):
            # parenthesized assertion; a parenthesized pure expression is
            # re-wrapped by the expression fallback below when needed
            save = self.i
            self.next()
            try:
                a = self.parse_assertion()
                self.expect(")")
            except ParseError:
                self.i = save
                return Pure(self.parse_expr())
            # allow expression operators to continue a parenthesized pure
            # expression, e.g. (x.f == y ? y : z) == w
            if isinstance(a, Pure) and (self.at("==") or self.at("!=") or self.at("&&")):
                self.i = save
                return Pure(self.parse_expr())
            return a
        if self.accept("acc"):
            self.expect("(")
            if self.peek().kind == "ident" and self.peek().text not in KEYWORDS and self.peek(1).text == "(":
                name = self.expect_ident()
                args = self._call_args()
                frac = Fraction(1)
                if self.accept(","):
                    frac = self.parse_fraction()
                self.expect(")")
                return PredA(name.text, args, frac)
            inner = self._postfix()
            if not isinstance(inner, FieldAcc):
                raise ParseError("acc() takes a field access", t.line, t.col)
            amount = Fraction(1)
            if self.accept(","):
                amount = self.parse_fraction()
            self.expect(")")
            return Acc(inner.base, inner.field, amount)
        if t.kind == "ident" and t.text not in KEYWORDS and self.peek(1).text == "(":
            name = self.expect_ident()
            args = self._call_args()
            return PredA(name.text, args, Fraction(1))
        # a pure expression atom; || / ==> / ?: at assertion level belong to
        # the assertion grammar, so stop below them
        return Pure(self._and())

    def _call_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")")
        return tuple(args)

    # -- universes ----------------------------------------------------------------

    def parse_universe(self) -> Universe:
        self.expect("universe")
        self.expect("v1")
        granularity = None
        refs: list[str] = []
        locations: dict[tuple[str, str], tuple[Value, ...]] = {}
        raw_preds: list[tuple[str, tuple[str, ...], Assertion]] = []
        while self.peek().kind != "eof":
            if self.accept("granularity"):
                t = self.next()
                if t.kind != "number":
                    self.error("expected the granularity integer")
                granularity = int(t.text)
            elif self.accept("refs"):
                refs.append(self.expect_ident().text)
                while self.accept(","):
                    refs.append(self.expect_ident().text)
            elif self.accept("loc"):
                r = self.expect_ident().text
                self.expect(".")
                f = self.expect_ident(reserved_ok=True).text
                self.expect(":")
                dom = self._parse_domain()
                if (r, f) in locations:
                    self.error(f"duplicate location {r}.{f}")
                locations[(r, f)] = dom
            elif self.accept("pred"):
                name = self.expect_ident().text
                self.expect("(")
                params = []
                if not self.at(")"):
                    params.append(self.expect_ident().text)
                    while self.accept(","):
                        params.append(self.expect_ident().text)
                self.expect(")")
                self.expect("=")
                body = self.parse_assertion()
                raw_preds.append((name, tuple(params), body))
            else:
                self.error("expected a universe declaration")
        if granularity is None:
            raise ParseError("missing granularity declaration", 1, 1)
        try:
            preds = _check_predicates(raw_preds)
            return make_universe(refs, locations, granularity, preds)
        except (UniverseError, AssertionError_) as e:
            raise ParseError(str(e), 1, 1)

    def _parse_domain(self) -> tuple[Value, ...]:
        if self.accept("ref"):
            ty = REF
        elif self.accept("int"):
            ty = INT
        elif self.accept("bool"):
            ty = BOOL
        else:
            self.error("expected a location type (ref/int/bool)")
        if ty == BOOL and not self.at("{"):
            return (False, True)
        self.expect("{")
        vals = [self.parse_value()]
        while self.accept(","):
            vals.append(self.parse_value())
        self.expect("}")
        for v in vals:
            want = {REF: str, INT: int, BOOL: bool}[ty]
            if ty == INT and isinstance(v, bool):
                self.error("boolean value in an int domain")
            if not isinstance(v, want):
                self.error(f"value {v!r} does not fit a {ty} domain")
        return tuple(vals)

    # -- state literals --------------------------------------------------------

    def parse_state(self) -> State:
        start = self.expect("{")
        mask: dict = {}
        heap: dict = {}
        while not self.at("}"):
            if self.accept("wand"):
                self.expect("[")
                depth = 1
                parts = []
                while depth:
                    t = self.next()
                    if t.kind == "eof":
                        self.error("unterminated wand key")
                    if t.text == "[":
                        depth += 1
                    elif t.text == "]":
                        depth -= 1
                        if not depth:
                            break
                    parts.append(t.text)
                # normalize the key through the assertion grammar
                key = format_assertion(parse_assertion_text(" ".join(parts)))
                self.expect("@")
                mask[WandInst(key)] = self.parse_fraction()
            else:
                name = self.expect_ident().text
                if self.at("("):
                    self.expect("(")
                    args = []
                    if not self.at(")"):
                        args.append(self.parse_value())
                        while self.accept(","):
                            args.append(self.parse_value())
                    self.expect(")")
                    self.expect("@")
                    mask[PredInst(name, tuple(args))] = self.parse_fraction()
                else:
                    self.expect(".")
                    fld = self.expect_ident(reserved_ok=True).text
                    loc = FieldLoc(name, fld)
                    self.expect("@")
                    amt = self.parse_fraction()
                    if amt > 0:
                        mask[loc] = amt
                    if self.accept("="):
                        heap[loc] = self.parse_value()
            if not self.accept(","):
                break
        self.expect("}")
        try:
            return State.make(mask, heap)
        except StateError as e:
            raise ParseError(str(e), start.line, start.col)

    # -- programs ----------------------------------------------------------------

    def parse_program(self) -> pr.Program:
        self.expect("program")
        self.expect("v1")
        universe_ref = ""
        if self.accept("universe"):
            t = self.peek()
            if t.kind != "string":
                self.error("expected a quoted universe path")
            self.next()
            universe_ref = t.text[1:-1]
        methods = []
        while self.at("method"):
            methods.append(self._method())
        self.expect_eof()
        if not methods:
            raise ParseError("program declares no methods", 1, 1)
        return pr.Program(universe_ref, tuple(methods))

    def _method(self) -> pr.Method:
        t = self.expect("method")
        name = self.expect_ident().text
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                p = self.expect_ident().text
                self.expect(":")
                if not (self.accept("Ref") or self.accept("ref")):
                    self.error("method parameters must have type Ref")
                params.append(p)
                if not self.accept(","):
                    break
        self.expect(")")
        requires = None
        if self.accept("requires"):
            requires = self.parse_assertion()
        body = self._block()
        return pr.Method(name, tuple(params), requires, tuple(body), (t.line, t.col))

    def _block(self) -> list[pr.Stmt]:
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self._stmt())
            while self.accept(";"):
                pass
        self.expect("}")
        return out

    def _stmt(self) -> pr.Stmt:
        t = self.peek()
        pos = (t.line, t.col)
        if self.accept("inhale"):
            return pr.Inhale(self.parse_assertion(), pos)
        if self.accept("exhale"):
            return pr.Exhale(self.parse_assertion(), pos)
        if self.accept("assert"):
            return pr.AssertStmt(self.parse_assertion(), pos)
        if self.accept("var"):
            name = self.expect_ident().text
            self.expect(":")
            ty = self.next().text
            if ty not in ("Ref", "Int", "Bool", "ref", "int", "bool"):
                self.error("variable type must be Ref, Int or Bool")
            self.expect(":=")
            return pr.VarDecl(name, ty.lower(), self.parse_expr(), pos)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self._block()
            els: list[pr.Stmt] = []
            if self.accept("else"):
                els = self._block()
            return pr.If(cond, tuple(then), tuple(els), pos)
        if self.accept("package"):
            wand = self.parse_assertion()
            if not isinstance(wand, Wand):
                raise ParseError("package takes a wand", pos[0], pos[1])
            script: tuple[pr.ScriptStmt, ...] = ()
            if self.at("{"):
                script = tuple(self._script_block())
            return pr.Package(wand, script, pos)
        if self.accept("apply"):
            wand = self.parse_assertion()
            if not isinstance(wand, Wand):
                raise ParseError("apply takes a wand", pos[0], pos[1])
            return pr.Apply(wand, pos)
        # assignment or heap write
        target = self._postfix()
        if isinstance(target, Var):
            self.expect(":=")
            return pr.Assign(target.name, self.parse_expr(), pos)
        if isinstance(target, FieldAcc):
            self.expect(":=")
            return pr.HeapWrite(target.base, target.field, self.parse_expr(), pos)
        self.error("expected a statement")

    def _script_block(self) -> list[pr.ScriptStmt]:
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self._script_stmt())
            while self.accept(";"):
                pass
        self.expect("}")
        return out

    def _script_stmt(self) -> pr.ScriptStmt:
        t = self.peek()
        pos = (t.line, t.col)
        if self.accept("assert"):
            return pr.SAssert(self.parse_assertion(), pos)
        if self.accept("fold"):
            name = self.expect_ident().text
            return pr.SFold(name, self._call_args(), pos)
        if self.accept("unfold"):
            name = self.expect_ident().text
            return pr.SUnfold(name, self._call_args(), pos)
        if self.accept("apply"):
            wand = self.parse_assertion()
            if not isinstance(wand, Wand):
                raise ParseError("apply takes a wand", pos[0], pos[1])
            return pr.SApply(wand, pos)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self._script_block()
            els: list[pr.ScriptStmt] = []
            if self.accept("else"):
                els = self._script_block()
            return pr.SIf(cond, tuple(then), tuple(els), pos)
        self.error("expected a proof-script statement")


def _check_predicates(raw: list[tuple[str, tuple[str, ...], Assertion]]) -> dict[str, PredicateDef]:
    """Reject recursion, wands and perm() in predicate bodies."""
    names = {n for n, _, _ in raw}
    if len(names) != len(raw):
        raise AssertionError_("duplicate predicate definition")

    deps = {n: {x.name for x in atoms(b) if isinstance(x, PredA)} & names for n, _, b in raw}
    # topological check: no (mutual) recursion
    resolved: set[str] = set()
    pending = dict(deps)
    while pending:
        ready = [n for n, d in pending.items() if d <= resolved]
        if not ready:
            raise AssertionError_("recursive predicate definitions are not supported")
        for n in ready:
            resolved.add(n)
            del pending[n]
    out = {}
    for name, params, body in raw:
        if contains_wand(body):
            raise AssertionError_(f"predicate {name} contains a wand")
        if _assertion_contains_perm(body):
            raise AssertionError_(f"predicate {name} uses perm()")
        out[name] = PredicateDef(name, params, body)
    return out


def _assertion_contains_perm(a: Assertion) -> bool:
    if isinstance(a, Pure):
        return contains_perm(a.expr)
    if isinstance(a, Acc):
        return contains_perm(a.ref_expr)
    if isinstance(a, PredA):
        return any(contains_perm(x) for x in a.args)
    if isinstance(a, (Star, OrA)):
        return _assertion_contains_perm(a.left) or _assertion_contains_perm(a.right)
    if isinstance(a, Imp):
        return contains_perm(a.guard) or _assertion_contains_perm(a.body)
    if isinstance(a, Wand):
        return _assertion_contains_perm(a.lhs) or _assertion_contains_perm(a.rhs)
    return False


# -- module-level conveniences ----------------------------------------------------


def _nested(parse):
    """Run one parse; input nested deeper than the interpreter's stack is a
    parse error, not a crash."""
    try:
        return parse()
    except RecursionError:
        raise ParseError("input nested too deeply", 1, 1) from None


def parse_expr_text(src: str) -> Expr:
    p = Parser(src)
    e = _nested(p.parse_expr)
    p.expect_eof()
    return e


def parse_assertion_text(src: str) -> Assertion:
    p = Parser(src)
    a = _nested(p.parse_assertion)
    p.expect_eof()
    return a


def parse_universe_text(src: str) -> Universe:
    return _nested(Parser(src).parse_universe)


def parse_state_text(src: str) -> State:
    p = Parser(src)
    s = _nested(p.parse_state)
    p.expect_eof()
    return s


def parse_program_text(src: str) -> pr.Program:
    return _nested(Parser(src).parse_program)


def format_universe(u: Universe) -> str:
    lines = ["universe v1", f"granularity {u.granularity}"]
    if u.refs:
        lines.append("refs " + ", ".join(sorted(u.refs)))
    for loc in u.sorted_locations():
        from .universe import format_value, value_type

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
    from .universe import format_value

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
    for loc in sorted(heap_left, key=lambda l: (l.ref, l.field)):
        parts.append(f"{loc} @ 0 = {format_value(heap_left[loc])}")
    return "{" + ", ".join(parts) + "}"
