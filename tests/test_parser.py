import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from wandpack.assertions import Imp, OrA, Pure, Star, Wand, format_assertion
from wandpack.exprs import BoolOp, Eq, Expr, FieldAcc, Ite, Lit, Not, PermOf, Var, format_expr
from wandpack.parser import (
    KEYWORDS,
    ParseError,
    format_state,
    format_universe,
    parse_assertion_text,
    parse_expr_text,
    parse_program_text,
    parse_state_text,
    parse_universe_text,
    _Lines,
    _scan,
)
from wandpack.program import format_program

import gen
from conftest import U1_TEXT, U2_TEXT


EXPRS = [
    "x",
    "null",
    "true",
    "x.f",
    "x.f.g",
    "x.f == y",
    "x.f != y",
    "!x.b",
    "x.b && y.b || z.b",
    "x.b ==> y.b",
    "x.f == y ? 1 : 0",
    "perm(x.f) == write",
    "perm(x.f) == 1/2",
    "perm(x.f) == none",
    "ref(x) == x.f",
]


@pytest.mark.parametrize("src", EXPRS)
def test_expr_round_trip(src):
    e = parse_expr_text(src)
    assert parse_expr_text(format_expr(e)) == e


ASSERTIONS = [
    "acc(x.f)",
    "acc(x.f, 1/2)",
    "acc(x.f) * acc(y.g)",
    "acc(x.f) * (x.f == y || x.f == z)",
    "x.b ==> acc(x.f)",
    "acc(y.g) || acc(z.g)",
    "acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)",
    "acc(x.f, 1/2) --*c acc(x.g)",
    "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))",
    "P(x)",
    "acc(P(x), 1/2)",
    "acc(x.f) --* P(x)",
    "false",
]


@pytest.mark.parametrize("src", ASSERTIONS)
def test_assertion_round_trip(src):
    a = parse_assertion_text(src)
    assert parse_assertion_text(format_assertion(a)) == a


# the printer parenthesizes a conditional or a disjunction that an expression
# operator follows; the parenthesized span alone parses as an assertion
ITE = Ite(Eq(FieldAcc(Var("x"), "f"), Var("y")), Var("y"), Var("z"))


@pytest.mark.parametrize(
    "a",
    [
        Pure(Eq(ITE, Var("w"))),
        Pure(Eq(Var("w"), ITE)),
        Pure(BoolOp("and", Ite(Lit(True), Lit(True), Lit(False)), Lit(True))),
        Pure(BoolOp("and", BoolOp("or", Var("a"), Var("b")), Var("c"))),
        Pure(Eq(FieldAcc(Ite(FieldAcc(Var("x"), "b"), Var("y"), Var("z")), "f"), Var("w"))),
    ],
)
def test_parenthesized_span_continued_as_an_expression_round_trips(a):
    assert parse_assertion_text(format_assertion(a)) == a


T, F = Lit(True), Lit(False)


# the three top-level pure expressions whose printed form parses back as
# another assertion tree of the same meaning, as the README lists them
@pytest.mark.parametrize(
    "a,text,parsed",
    [
        (Pure(BoolOp("or", T, F)), "(true || false)", OrA(Pure(T), Pure(F))),
        (Pure(BoolOp("implies", T, F)), "(true ==> false)", Imp(T, Pure(F))),
        (Pure(Ite(T, F, T)), "(true ? false : true)", Star(Imp(T, Pure(F)), Imp(Not(T), Pure(T)))),
    ],
)
def test_pure_expressions_that_print_as_assertion_connectives(a, text, parsed):
    assert format_assertion(a) == text
    assert parse_assertion_text(text) == parsed


def test_parenthesized_conditional_continues_with_not_equal():
    assert parse_assertion_text("(x.f == y ? y : z) != w") == Pure(Not(Eq(ITE, Var("w"))))


def test_parenthesized_assertion_stands_before_an_expression_operator():
    # the span is no expression, so the error is the one after the assertion
    with pytest.raises(ParseError) as e:
        parse_assertion_text("(acc(x.f) * acc(x.g)) == w")
    assert (e.value.message, e.value.line, e.value.col) == ("unexpected trailing input '=='", 1, 23)


def random_expr(rng: random.Random, depth: int, ite: bool) -> Expr:
    """A random expression over x, y and field f; given ``ite``, one of its
    subexpressions is a conditional."""
    if depth <= 0:
        if ite:
            return Ite(random_expr(rng, 0, False), random_expr(rng, 0, False), random_expr(rng, 0, False))
        return rng.choice([Var("x"), Var("y"), FieldAcc(Var("x"), "f"), Lit(0), Lit(True), Lit("null"), PermOf(Var("x"), "f")])
    kind = rng.choice(["eq", "not", "and", "or", "implies", "ite", "field"])
    if kind == "ite":
        return Ite(*(random_expr(rng, depth - 1, False) for _ in range(3)))
    if kind in ("not", "field"):
        arg = random_expr(rng, depth - 1, ite)
        return Not(arg) if kind == "not" else FieldAcc(arg, "f")
    left, right = random_expr(rng, depth - 1, False), random_expr(rng, depth - 1, False)
    if ite:
        if rng.random() < 0.5:
            left = random_expr(rng, depth - 1, True)
        else:
            right = random_expr(rng, depth - 1, True)
    return Eq(left, right) if kind == "eq" else BoolOp(kind, left, right)


def test_printed_pure_expressions_with_conditionals_parse():
    rng = random.Random(2121)
    for _ in range(500):
        e = random_expr(rng, rng.randint(1, 4), True)
        assert parse_expr_text(format_expr(e)) == e
        parse_assertion_text(format_assertion(Pure(e)))


def test_disjunction_is_assertion_level():
    a = parse_assertion_text("x.f == y || x.f == z")
    assert isinstance(a, OrA)
    assert isinstance(a.left, Pure) and isinstance(a.right, Pure)


def test_conditional_assertion_desugars():
    a = parse_assertion_text("x.f == y ? acc(y.g) : acc(z.g)")
    assert isinstance(a, Star)
    assert isinstance(a.left, Imp) and isinstance(a.right, Imp)
    assert isinstance(a.right.guard, Not)


def test_wand_binds_loosest_and_right_assoc():
    a = parse_assertion_text("acc(x.f) --* acc(x.g) --* acc(x.h)")
    assert isinstance(a, Wand)
    assert isinstance(a.rhs, Wand)


def test_guard_must_be_pure():
    with pytest.raises(ParseError):
        parse_assertion_text("acc(x.f) ==> acc(x.g)")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_assertion_text("acc(x.f) *")
    assert exc.value.line == 1
    assert exc.value.col > 1


def test_universe_round_trip():
    for text in (U1_TEXT, U2_TEXT):
        u = parse_universe_text(text)
        assert parse_universe_text(format_universe(u)) == u


def test_universe_with_predicate_round_trip():
    u = parse_universe_text(
        """
        universe v1
        granularity 2
        refs x, y
        loc x.f: int {0}
        loc y.f: int {0}
        pred Cell(r) = acc(r.f)
        """
    )
    assert parse_universe_text(format_universe(u)) == u
    assert "Cell" in u.predicates


def test_universe_rejects_recursion():
    with pytest.raises(ParseError):
        parse_universe_text(
            """
            universe v1
            granularity 2
            refs x
            loc x.f: int {0}
            pred P(r) = acc(r.f) * P(r)
            """
        )


def test_universe_rejects_mutual_recursion():
    with pytest.raises(ParseError):
        parse_universe_text(
            """
            universe v1
            granularity 2
            refs x
            loc x.f: int {0}
            pred P(r) = Q(r)
            pred Q(r) = P(r)
            """
        )


def test_universe_rejects_wand_in_predicate():
    with pytest.raises(ParseError):
        parse_universe_text(
            """
            universe v1
            granularity 2
            refs x
            loc x.f: int {0}
            loc x.g: int {0}
            pred P(r) = acc(r.f) --* acc(r.g)
            """
        )


@pytest.mark.parametrize(
    "preds, message, line",
    [
        ("pred P(r) = acc(r.f)\npred P(r) = acc(r.f)", "duplicate predicate definition", 6),
        ("pred P(r) = acc(r.f)\npred Q(r) = R(r)\npred R(r) = Q(r)", "recursive predicate definitions are not supported", 6),
        ("pred P(r) = acc(r.f)\npred Q(r) = acc(r.f) --* acc(r.f)", "predicate Q contains a wand", 6),
        ("pred P(r) = perm(r.f) == 1\npred Q(r) = acc(r.f)", "predicate P uses perm()", 5),
    ],
    ids=["duplicate", "recursive", "wand", "perm"],
)
def test_universe_reports_a_predicate_error_at_its_pred_line(preds, message, line):
    # a duplicate at its second definition, a cycle at its first definition
    with pytest.raises(ParseError) as e:
        parse_universe_text(f"universe v1\ngranularity 2\nrefs x\nloc x.f: int {{0}}\n{preds}\n")
    assert (e.value.message, e.value.line, e.value.col) == (message, line, 1)


def test_universe_rejects_null_location():
    with pytest.raises(ParseError):
        parse_universe_text(
            """
            universe v1
            granularity 2
            refs x
            loc null.f: int {0}
            """
        )


STATES = [
    "{}",
    "{x.f @ 1 = y}",
    "{x.f @ 1/2 = y, y.g @ 1 = 0}",
    "{x.f @ 0 = y}",
    "{Cell(x) @ 1/2}",
    "{wand[acc(x.f) --* acc(x.g)] @ 1}",
]


@pytest.mark.parametrize("src", STATES)
def test_state_round_trip(src):
    s = parse_state_text(src)
    assert parse_state_text(format_state(s)) == s


@pytest.mark.parametrize(
    "src, message, col",
    [
        ("{x.f @ 1 = 0, x.f @ 1/2 = 0}", "duplicate resource x.f", 15),
        ("{x.f @ 0, y.g @ 1 = 0, x.f @ 1 = 0}", "duplicate resource x.f", 24),
        ("{Cell(x) @ 1/2, Cell(x) @ 1/2}", "duplicate resource Cell(x)", 17),
        ("{wand[acc(x.f) --* acc(x.g)] @ 1, wand[acc(x.f)  --*  acc(x.g)] @ 1}",
         "duplicate resource wand[acc(x.f) --* acc(x.g)]", 35),
    ],
)
def test_state_literal_names_each_resource_once(src, message, col):
    with pytest.raises(ParseError) as e:
        parse_state_text(src)
    assert (e.value.message, e.value.line, e.value.col) == (message, 1, col)


def test_program_round_trip(corpus_dir):
    # positions shift when comments are stripped, so compare the printed
    # fixpoint rather than the raw ASTs
    for name in ("proof_of_false.wnd", "two_footprints.wnd", "preds.wnd", "combinable.wnd", "basic.wnd"):
        src = (corpus_dir / name).read_text()
        printed = format_program(parse_program_text(src))
        assert format_program(parse_program_text(printed)) == printed


# a package script using every script form; the printed text is the
# parsed program's fixpoint
SCRIPT_PROGRAM = """program v1
universe "preds.universe"

method m(x: Ref, y: Ref)
  requires acc(x.f) * (acc(y.f) --* Cell(y))
{
  package acc(y.f) --* Cell(x) * Cell(y) {
    fold Cell(x)
    if (x == y) {
      assert Cell(x)
    } else {
      apply acc(y.f) --* Cell(y)
      if (x.f == 0) {
        unfold Cell(x)
        fold Cell(x)
      }
    }
  }
  assert acc(x.f, 1/2) || x == y
}
"""


def test_script_program_round_trip():
    p = parse_program_text(SCRIPT_PROGRAM)
    assert format_program(p) == SCRIPT_PROGRAM
    script = p.methods[0].body[0].script
    assert [type(s).__name__ for s in script] == ["Fold", "If"]
    assert [type(s).__name__ for s in script[1].els] == ["Apply", "If"]
    assert [type(s).__name__ for s in script[1].els[1].then] == ["Unfold", "Fold"]


@pytest.mark.parametrize(
    "stmt, message, pos",
    [
        ("package acc(x.f) --* acc(x.f) {\n    inhale acc(x.f)\n  }", "expected a proof-script statement", (5, 5)),
        ("package acc(x.f) --* acc(x.f) {\n    var y: Int := 0\n  }", "expected a proof-script statement", (5, 5)),
        ("package acc(x.f) --* acc(x.f) {\n    if (true) { exhale acc(x.f) }\n  }", "expected a proof-script statement", (5, 17)),
        ("package acc(x.f) --* acc(x.f) {\n    package acc(x.f) --* acc(x.f)\n  }", "expected a proof-script statement", (5, 5)),
        ("fold Cell(x)", "expected an expression", (4, 3)),
        ("unfold Cell(x)", "expected an expression", (4, 3)),
    ],
    ids=["inhale-in-script", "var-in-script", "exhale-in-script-if", "package-in-script", "fold-in-body", "unfold-in-body"],
)
def test_script_statement_errors(stmt, message, pos):
    with pytest.raises(ParseError) as e:
        parse_program_text(f"program v1\nmethod m(x: Ref)\n{{\n  {stmt}\n}}\n")
    assert (e.value.message, e.value.line, e.value.col) == (message, *pos)


def test_empty_method_parses_to_noop_body():
    p = parse_program_text(
        """
        program v1
        method nothing(x: Ref) {
        }
        """
    )
    assert p.methods[0].body == ()


def test_apply_of_non_wand_is_type_error():
    with pytest.raises(ParseError):
        parse_program_text(
            """
            program v1
            method m(x: Ref) {
              apply acc(x.f)
            }
            """
        )


def test_print_parse_identity_on_random_assertions():
    rng = random.Random(424242)
    for i in range(600):
        u = gen.random_universe(rng)
        wand = gen.random_wand(rng, u, combinable=i % 2 == 1)
        for side in (wand.lhs, wand.rhs, wand):
            assert parse_assertion_text(format_assertion(side)) == side


def test_statement_positions():
    p = parse_program_text(
        """program v1
method m(x: Ref)
{
  inhale acc(x.f)
  assert acc(x.f)
}
"""
    )
    stmts = p.methods[0].body
    assert stmts[0].pos == (4, 3)
    assert stmts[1].pos == (5, 3)


# -- fuzzing: malformed text raises ParseError and nothing else ------------------------

VOCABULARY = sorted(KEYWORDS) + [
    "x", "y", "f", "g", "Cell", "v1", "0", "1", "2", "3", "10", '"u.universe"',
    "--*", "--*c", "==>", ":=", "==", "!=", "||", "&&",
    "(", ")", "{", "}", "[", "]", ".", ",", ":", ";", "=", "@", "?", "!", "*", "/",
]
SEEDS = ASSERTIONS + STATES + [
    U1_TEXT, U2_TEXT, "universe v1\ngranularity 2\nrefs x\nloc x.f: int {0}\npred P(r) = acc(r.f)", SCRIPT_PROGRAM,
]


def mutate(seed: str, edits) -> str:
    """The seed's tokens with each edit applied: insert, replace or delete
    one token at a position taken modulo the current length."""
    toks = _scan(seed)[0]
    for pos, op, word in edits:
        if op == "insert":
            toks.insert(pos % (len(toks) + 1), word)
        elif toks and op == "replace":
            toks[pos % len(toks)] = word
        elif toks:
            del toks[pos % len(toks)]
    return " ".join(toks)


# mutants of valid inputs reach deep into the grammar; arbitrary text and
# token soup cover the tokenizer and the first rule of each parser
edits = strat.lists(
    strat.tuples(strat.integers(0, 500), strat.sampled_from(["insert", "replace", "delete"]), strat.sampled_from(VOCABULARY)),
    min_size=1,
    max_size=4,
)
texts = (
    strat.builds(mutate, strat.sampled_from(SEEDS), edits)
    | strat.text(max_size=80)
    | strat.lists(strat.sampled_from(VOCABULARY), max_size=30).map(" ".join)
)
NESTED = "(" * 3000 + "true" + ")" * 3000


@settings(max_examples=600, deadline=None)
@given(texts)
@example("{x.f @ 1/0 = 0}")
@example("acc(x.f, 1/0)")
@example("x.f == 1/0")
@example("{x.f @ 3/2 = 0}")
@example("{Cell(x) @ 2}")
@example(NESTED)
@example("universe v1 granularity 2 refs x loc x.f: int {0} pred P(r) = " + NESTED)
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_universe_text, parse_assertion_text, parse_state_text, parse_program_text):
        try:
            parse(text)
        except ParseError:
            pass


# -- the tokenizer against a reference ---------------------------------------------------

# the tokenizer as it was before tokens kept source offsets: one match per
# token, whitespace run or comment, with line and column counted as it goes
_REFERENCE_RE = re.compile(
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


class ReferenceToken:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def reference_tokenize(src: str) -> list[ReferenceToken]:
    toks: list[ReferenceToken] = []
    line, col, i = 1, 1, 0
    while i < len(src):
        m = _REFERENCE_RE.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            toks.append(ReferenceToken(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    toks.append(ReferenceToken("eof", "", line, col))
    return toks


def kind_of(text: str) -> str:
    """A token's kind, told by its text alone, as the parser tells it."""
    if not text:
        return "eof"
    if text[0] == '"':
        return "string"
    if text.isdecimal():
        return "number"
    return "ident" if text.isidentifier() else "op"


def scan(src: str) -> list[tuple[str, str, int, int]]:
    """``_scan``'s tokens as (kind, text, line, col)."""
    texts, offsets = _scan(src)
    lines = _Lines(src)
    return [(kind_of(t), t, *lines(o)) for t, o in zip(texts, offsets)]


def reference_scan(src: str) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.text, t.line, t.col) for t in reference_tokenize(src)]


def token_stream(tokenizer, src: str):
    """(kind, text, line, col) of every token, or the error's message and position."""
    try:
        return tokenizer(src)
    except ParseError as e:
        return ("error", e.message, e.line, e.col)


def assert_tokenizes_like_reference(src: str):
    assert token_stream(scan, src) == token_stream(reference_scan, src)


@pytest.mark.parametrize(
    "variant",
    [
        lambda text: text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: re.sub(r"(?m)^ +", "\t", text),
        lambda text: re.sub(r"(?m)^", "# a comment line\n// another\n", text),
    ],
    ids=["as-is", "crlf", "tabs", "comment-lines"],
)
def test_tokenize_matches_reference_on_the_corpus(corpus_dir, variant):
    files = sorted(p for p in corpus_dir.rglob("*") if p.is_file())
    assert files
    for path in files:
        assert_tokenizes_like_reference(variant(path.read_text()))


def test_tokenize_matches_reference_on_generated_texts():
    rng = random.Random(2121)
    for i in range(300):
        u = gen.random_universe(rng, with_predicate=i % 3 == 0)
        wand = gen.random_wand(rng, u, combinable=i % 2 == 1)
        for text in (format_universe(u), format_assertion(wand), format_state(gen.random_outer(rng, u))):
            assert_tokenizes_like_reference(text)


@settings(max_examples=300, deadline=None)
@given(texts)
@example("x $ y")
@example("acc(x.f)\r\n\t* @ # only a comment\r\n// and another\n")
@example('x == "unterminated')
@example("acc(x.f)\n\n  \u00e9")
@example("")
@example("  \n# trailing comment")
def test_tokenize_matches_reference_on_token_soup(text):
    assert_tokenizes_like_reference(text)


def test_unexpected_character_reports_its_position():
    with pytest.raises(ParseError) as e:
        _scan("acc(x.f)\n  * $")
    assert (e.value.message, e.value.line, e.value.col) == ("unexpected character '$'", 2, 5)
