import json
import random

import gen
from wandpack.algorithms import package_combinable, package_sound
from wandpack.package_logic import (
    check_derivation,
    extract_footprint,
)
from wandpack.parser import parse_state_text
from wandpack.serialization import (
    derivation_doc,
    derivation_doc_parse,
    dumps_canonical,
    state_to_json,
    state_to_text,
)


def test_state_json_is_canonical():
    s = parse_state_text("{x.f @ 1 = y, y.g @ 1/2 = 0, Cell(x) @ 1/2}")
    doc = state_to_json(s)
    assert doc == {
        "mask": {"x.f": "1", "y.g": "1/2", "Cell(x)": "1/2"},
        "heap": {"x.f": "y", "y.g": 0},
    }
    assert parse_state_text(state_to_text(s)) == s


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
