"""Resource ids and states are tuples: an id holds its own sort key and a
state is its (mask, heap) pair, so hashing, equality and order are the
tuple's.  These tests pin the properties the state algebra relies on:
equality sees only the compared fields, ids of different kinds never meet,
ids order as the formula written out in conftest, copies and pickles rebuild
in the receiving process, and nothing can be assigned.  The last tests
pin the universe's well-formedness errors that the text format cannot
express."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from wandpack.states import EMPTY, State
from wandpack.universe import NULL, FieldLoc, PredInst, UniverseError, WandInst, make_universe

from conftest import formula_rid_key

IDS = [
    FieldLoc("x", "f"),
    PredInst("Cell", ("x",)),
    PredInst("Flag", ("x", True, False)),
    PredInst("Count", ("y", 0, 1)),
    PredInst("Unit", ()),
    WandInst("acc(x.f) --* acc(x.f)"),
]
STATES = [
    EMPTY,
    State.make({FieldLoc("x", "f"): Fraction(1, 2)}, {FieldLoc("x", "f"): 0}),
    State.make({PredInst("Flag", ("x", True)): 1, WandInst("acc(x.f) --* acc(x.f)"): Fraction(1, 3)}),
    State.make({}, {FieldLoc("x", "g"): True}),
]
FIELDS = {FieldLoc: ("ref", "field"), PredInst: ("name", "args"), WandInst: ("key",), State: ("mask", "heap")}


def compared(r) -> tuple:
    return tuple(getattr(r, name) for name in FIELDS[type(r)])


@pytest.mark.parametrize("r", IDS, ids=repr)
def test_hash_and_key_are_the_dataclass_values(r):
    """The values the ids compared as dataclasses, and nothing else, give
    the hash; each id is its own sort key, ordered as ``formula_rid_key``."""
    assert hash(r) == hash(type(r)(*compared(r)))
    for other in IDS:
        assert (r < other) == (formula_rid_key(r) < formula_rid_key(other))
        assert (r == other) == (formula_rid_key(r) == formula_rid_key(other))


@pytest.mark.parametrize("r", IDS + STATES, ids=repr)
def test_equality_order_and_repr_see_only_the_compared_fields(r):
    twin = type(r)(*compared(r))
    assert twin == r and twin is not r and hash(twin) == hash(r)
    assert not twin < r and not r < twin
    assert repr(r) == f"{type(r).__name__}(" + ", ".join(
        f"{name}={getattr(r, name)!r}" for name in FIELDS[type(r)]) + ")"
    with pytest.raises(AttributeError):
        r.extra = 1
    with pytest.raises(AttributeError):
        setattr(r, FIELDS[type(r)][0], None)


def test_changing_any_compared_field_changes_the_value():
    assert PredInst("P", ("x",)) != PredInst("Q", ("x",)) != PredInst("Q", ("y",))
    # a bool argument is not the int it equals
    assert PredInst("P", (True,)) != PredInst("P", (1,))
    assert FieldLoc("x", "f") != FieldLoc("x", "g") != FieldLoc("y", "g")
    assert WandInst("a") != WandInst("b")
    xf = FieldLoc("x", "f")
    assert State.make({xf: 1}, {xf: 0}) != State.make({}, {xf: 0}) != State.make({}, {xf: 1})


def test_ids_of_different_kinds_are_never_equal():
    kinds = [FieldLoc("x", "f"), PredInst("x", ("f",)), PredInst("x", ()), WandInst("x"), WandInst("x.f")]
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert a != b
    assert FieldLoc("x", "f") != ("x", "f")
    assert PredInst("x", ("f",)) != ("x", ("f",))
    assert WandInst("x") != ("x",)
    assert all(s != r for s in STATES for r in IDS)


def test_field_locations_order_as_their_fields():
    locs = [FieldLoc(r, f) for r in ("y", "x") for f in ("g", "f")]
    assert sorted(locs) == sorted(locs, key=compared)
    assert sorted(locs) == sorted(locs, key=formula_rid_key)
    assert FieldLoc("x", "f") != ("x", "f")


@pytest.mark.parametrize("r", IDS + STATES, ids=repr)
def test_copies_rebuild_through_the_constructor(r):
    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(c) is type(r) and c == r and hash(c) == hash(r) and compared(c) == compared(r)
    assert r.__getnewargs__() == compared(r)


def test_unpickled_ids_hash_as_the_receiving_process_does():
    # string hashes differ between processes, so an id or a state must be
    # hashed where it is rebuilt, with its fields in the right places
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = (
        "import pickle, sys\n"
        "from wandpack.states import State\n"
        "from wandpack.universe import FieldLoc, PredInst, WandInst\n"
        f"FIELDS = {{FieldLoc: {FIELDS[FieldLoc]}, PredInst: {FIELDS[PredInst]}, "
        f"WandInst: {FIELDS[WandInst]}, State: {FIELDS[State]}}}\n"
        "for r in pickle.loads(sys.stdin.buffer.read()):\n"
        "    rebuilt = type(r)(*(getattr(r, name) for name in FIELDS[type(r)]))\n"
        "    assert hash(r) == hash(rebuilt), r\n"
        "    assert {r: 1}[rebuilt] == 1\n"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(IDS + STATES), env=env,
                              capture_output=True)
        assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize(
    "refs, locations, message",
    [
        (["x", NULL], {}, "null is implicit and declares no locations"),
        (["x"], {(NULL, "f"): [0]}, "locations rooted at null are not allowed"),
        (["x"], {("x", "f"): []}, "location x.f has an empty value domain"),
        (["x"], {("x", "f"): [0, True]}, "location x.f mixes value types in its domain"),
    ],
    ids=["null-ref", "null-rooted", "empty-domain", "mixed-domain"],
)
def test_make_universe_rejects_what_the_grammar_cannot_express(refs, locations, message):
    with pytest.raises(UniverseError, match=f"^{message}$"):
        make_universe(refs, locations, 2)
