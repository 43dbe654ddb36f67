"""Resource ids compute their hash and ``rid_key`` once, at construction;
these tests pin that the cached values are the ones the plain dataclasses
would compute, that nothing else sees them, and that they never travel
between processes.  The last tests pin the universe's well-formedness
errors that the text format cannot express."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from wandpack.universe import NULL, FieldLoc, PredInst, UniverseError, WandInst, make_universe, rid_key, value_key

IDS = [
    FieldLoc("x", "f"),
    PredInst("Cell", ("x",)),
    PredInst("Flag", ("x", True, False)),
    PredInst("Count", ("y", 0, 1)),
    PredInst("Unit", ()),
    WandInst("acc(x.f) --* acc(x.f)"),
]


def compared(r) -> tuple:
    return tuple(getattr(r, f.name) for f in dataclasses.fields(r))


def formula_key(r) -> tuple:
    if isinstance(r, FieldLoc):
        return (0, r.ref, r.field)
    if isinstance(r, PredInst):
        return (1, r.name, tuple(value_key(a) for a in r.args))
    return (2, r.key)


@pytest.mark.parametrize("r", IDS, ids=repr)
def test_hash_and_key_are_the_dataclass_values(r):
    assert hash(r) == hash(compared(r))
    assert rid_key(r) == formula_key(r)


@pytest.mark.parametrize("r", IDS, ids=repr)
def test_equality_order_and_repr_see_only_the_compared_fields(r):
    assert [f.name for f in dataclasses.fields(r)] == {
        FieldLoc: ["ref", "field"], PredInst: ["name", "args"], WandInst: ["key"]
    }[type(r)]
    twin = type(r)(*compared(r))
    assert twin == r and twin is not r and hash(twin) == hash(r)
    assert repr(r) == f"{type(r).__name__}(" + ", ".join(
        f"{f.name}={getattr(r, f.name)!r}" for f in dataclasses.fields(r)) + ")"
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.extra = 1


def test_field_locations_order_as_their_fields():
    locs = [FieldLoc(r, f) for r in ("y", "x") for f in ("g", "f")]
    assert sorted(locs) == sorted(locs, key=compared)
    assert sorted(locs) == sorted(locs, key=rid_key)
    assert FieldLoc("x", "f") != ("x", "f")


@pytest.mark.parametrize("r", IDS, ids=repr)
def test_copies_rebuild_through_the_constructor(r):
    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert c == r and hash(c) == hash(r) and rid_key(c) == rid_key(r)
    assert r.__reduce__() == (type(r), compared(r))


def test_unpickled_ids_hash_as_the_receiving_process_does():
    # string hashes differ between processes, so a cached hash must be
    # recomputed where the id is rebuilt, never carried in the pickle
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = (
        "import pickle, sys, dataclasses\n"
        "ids = pickle.loads(sys.stdin.buffer.read())\n"
        "for r in ids:\n"
        "    assert hash(r) == hash(tuple(getattr(r, f.name) for f in dataclasses.fields(r))), r\n"
        "    assert {r: 1}[type(r)(*(getattr(r, f.name) for f in dataclasses.fields(r)))] == 1\n"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(IDS), env=env,
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
