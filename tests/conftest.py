import pathlib

import pytest

from wandpack.parser import parse_assertion_text, parse_state_text, parse_universe_text
from wandpack.universe import FieldLoc, PredInst, value_type

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

U1_TEXT = """
universe v1
granularity 2
refs x, y, z
loc x.f: ref {y, z}
loc y.g: int {0}
loc z.g: int {0}
"""

U2_TEXT = """
universe v1
granularity 2
refs x
loc x.b: bool
loc x.f: int {0}
loc x.g: int {0}
"""

TINY_TEXT = """
universe v1
granularity 2
refs x
loc x.f: int {0}
loc x.g: int {0}
"""


@pytest.fixture(scope="session")
def u1():
    return parse_universe_text(U1_TEXT)


@pytest.fixture(scope="session")
def u2():
    return parse_universe_text(U2_TEXT)


@pytest.fixture(scope="session")
def tiny():
    return parse_universe_text(TINY_TEXT)


@pytest.fixture(scope="session")
def store1():
    return {"x": "x", "y": "y", "z": "z"}


@pytest.fixture(scope="session")
def store2():
    return {"x": "x"}


def A(text):
    return parse_assertion_text(text)


def S(text):
    return parse_state_text(text)


def formula_rid_key(r) -> tuple:
    """The order of resource ids, written out: field locations, then
    predicate instances by name and type-tagged arguments, then wands."""
    if isinstance(r, FieldLoc):
        return (0, r.ref, r.field)
    if isinstance(r, PredInst):
        return (1, r.name, tuple((value_type(a), a) for a in r.args))
    return (2, r.key)


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS
