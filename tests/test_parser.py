import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from wandpack.assertions import Imp, OrA, Pure, Star, Wand, format_assertion
from wandpack.exprs import Not, format_expr
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
    tokenize,
)
from wandpack.program import format_program

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
    import random

    import gen

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
    toks = [t.text for t in tokenize(seed)]
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
