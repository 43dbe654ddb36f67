import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as strat

import gen
import wandpack.states as st
from wandpack.algorithms import package_combinable, package_sound
from wandpack.cli import main
from wandpack.package_logic import (
    DAtom,
    DDisjunction,
    DExtract,
    check_derivation,
    extract_footprint,
    initial_configuration,
)
from wandpack.parser import ParseError, format_state, parse_assertion_text, parse_state_text, parse_universe_text
from wandpack.serialization import (
    SerializationError,
    derivation_doc,
    derivation_doc_parse,
    dumps_canonical,
    state_to_json,
)
from wandpack.states import EMPTY

from conftest import U1_TEXT


def test_state_json_is_canonical():
    s = parse_state_text("{x.f @ 1 = y, y.g @ 1/2 = 0, Cell(x) @ 1/2}")
    doc = state_to_json(s)
    assert doc == {
        "mask": {"x.f": "1", "y.g": "1/2", "Cell(x)": "1/2"},
        "heap": {"x.f": "y", "y.g": 0},
    }
    assert parse_state_text(format_state(s)) == s


def test_derivation_documents_round_trip_and_recheck():
    rng = random.Random(99)
    checked = 0
    for i in range(120):
        u = gen.random_universe(rng)
        store = gen.identity_store(u)
        comb = i % 2 == 1
        wand = gen.random_wand(rng, u, combinable=comb)
        outer = gen.random_outer(rng, u)
        out = (package_combinable if comb else package_sound)(outer, wand, (), store, u)
        if not out.success:
            continue
        doc = json.loads(
            dumps_canonical(derivation_doc(u, store, wand, out.configuration, out.derivation))
        )
        u2, store2, wand2, conf2, deriv2 = derivation_doc_parse(doc)
        assert wand2 == wand
        final = check_derivation(conf2, deriv2, u2, store2)
        assert extract_footprint(conf2.context.outer, final.outer) == out.footprint
        checked += 1
    assert checked > 30


def test_disjunction_trees_round_trip_and_check(tmp_path, capsys):
    # nothing in the packagers emits the Disjunction rule; a hand-built tree
    # proves the left branch for the y-pair and the right for the z-pair
    u, store = parse_universe_text(U1_TEXT), {"x": "x", "y": "y", "z": "z"}
    wand = parse_assertion_text("acc(x.f) * (x.f == y || x.f == z) --* acc(y.g) || acc(z.g)")
    conf = initial_configuration(u, wand, store, parse_state_text("{y.g @ 1 = 0, z.g @ 1 = 0}"))
    pay, paz = parse_state_text("{x.f @ 1 = y}"), parse_state_text("{x.f @ 1 = z}")
    sy, sz = parse_state_text("{y.g @ 1 = 0}"), parse_state_text("{z.g @ 1 = 0}")
    # by the time the right branch runs, the z-pair has absorbed sy as well
    paz1 = st.add(st.add(paz, sy), sz)
    left = DExtract(sy, DAtom.make({(st.add(pay, sy), EMPTY): sy}))
    tree = DDisjunction(((pay, EMPTY),), left, DExtract(sz, DAtom.make({(paz1, EMPTY): sz})))
    doc = json.loads(dumps_canonical(derivation_doc(u, store, wand, conf, tree)))
    assert doc["derivation"]["rule"] == "disjunction"
    _, _, _, conf2, tree2 = derivation_doc_parse(doc)
    assert tree2 == tree
    final = check_derivation(conf2, tree2, u, store)
    assert extract_footprint(conf2.context.outer, final.outer) == st.add(sy, sz)
    path = tmp_path / "disjunction.json"
    path.write_text(json.dumps(doc))
    assert main(["check-derivation", str(path)]) == 0
    assert capsys.readouterr().out == "derivation 0: ACCEPTED, footprint {y.g @ 1 = 0, z.g @ 1 = 0}\n"


# -- fuzzing: a malformed document raises only what check-derivation reports ------------

# the errors `check-derivation` turns into a one-line message and exit 2
DOC_ERRORS = (SerializationError, ParseError, KeyError, TypeError, ValueError, AttributeError)


def _valid_doc() -> dict:
    u = parse_universe_text(U1_TEXT)
    store = {"x": "x", "y": "y", "z": "z"}
    wand = parse_assertion_text("acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)")
    outer = parse_state_text("{x.f @ 1 = y, y.g @ 1 = 0, z.g @ 1 = 0}")
    out = package_sound(outer, wand, (), store, u)
    assert out.success
    return json.loads(dumps_canonical(derivation_doc(u, store, wand, out.configuration, out.derivation)))


VALID_DOC = _valid_doc()


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


PATHS = list(_paths(VALID_DOC))[1:]
fragments = strat.sampled_from(["{}", "{x.f @ 1/0 = y}", "{x.f @ 2 = y}", "acc(x.f", "extract", "atom", "(" * 2000])
json_values = strat.recursive(
    strat.none() | strat.booleans() | strat.integers() | strat.text(max_size=20) | fragments,
    lambda inner: strat.lists(inner, max_size=4) | strat.dictionaries(strat.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _mutated(path, value, delete):
    doc = json.loads(json.dumps(VALID_DOC))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


documents = (
    strat.builds(_mutated, strat.sampled_from(PATHS), fragments | json_values, strat.booleans())
    | strat.dictionaries(strat.sampled_from(sorted(VALID_DOC)), json_values).map(
        lambda d: {**d, "format": VALID_DOC["format"]}
    )
    | json_values
)


def test_valid_document_parses():
    derivation_doc_parse(VALID_DOC)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_derivation_doc_parse_raises_only_declared_errors(doc):
    try:
        derivation_doc_parse(doc)
    except DOC_ERRORS:
        pass


@settings(max_examples=300, deadline=None)
@given(documents)
def test_check_derivation_exits_0_1_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check-derivation", str(path)]) in (0, 1, 2)
