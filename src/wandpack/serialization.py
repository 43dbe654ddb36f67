"""JSON forms for states and derivations.

A derivation document stores a package's inputs beside its rule tree:
the universe (in its canonical text form), the store, the wand, the outer
state before the proof script, and the script as a ``{ ... }`` block.
It holds no configuration.  Reading a document rebuilds the package's
initial configuration from those inputs, so ``check-derivation`` re-runs
the script and checks the tree without trusting a starting point the
document could forge.  All dumps are canonical (sorted keys, stable
ordering) so golden files and reports are byte-reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from .assertions import Wand, format_assertion
from .package_logic import (
    Configuration,
    DAtom,
    DDisjunction,
    Derivation,
    DExtract,
    DImplication,
    DStar,
    initial_configuration,
    rule_tag,
)
from .parser import (
    parse_assertion_text,
    parse_script_text,
    parse_state_text,
    parse_universe_text,
    format_state,
    format_universe,
)
from .program import Package, Stmt, format_stmts
from .states import State, StateError, validate
from .universe import REF, Universe, UniverseError, value_type

DERIVATION_FORMAT = "wandpack-derivation-2"


class SerializationError(Exception):
    pass


def frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def state_to_json(s: State) -> dict:
    mask = {}
    heap = {}
    for rid, amt in s.mask:
        mask[str(rid)] = frac_str(amt)
    for loc, v in s.heap:
        heap[str(loc)] = v
    return {"mask": mask, "heap": heap}


state_to_text = format_state


def derivation_to_json(d: Derivation) -> dict:
    tag = rule_tag(d)
    if isinstance(d, DImplication):
        return {"rule": tag, "child": derivation_to_json(d.child)}
    if isinstance(d, DStar):
        return {"rule": tag, "left": derivation_to_json(d.left), "right": derivation_to_json(d.right)}
    if isinstance(d, DExtract):
        return {"rule": tag, "state": state_to_text(d.sigma_w), "child": derivation_to_json(d.child)}
    if isinstance(d, DAtom):
        return {
            "rule": tag,
            "choices": [
                {
                    "available": state_to_text(sa),
                    "assembled": state_to_text(sb),
                    "choice": state_to_text(choice),
                }
                for sa, sb, choice in d.choices
            ],
        }
    if isinstance(d, DDisjunction):
        return {
            "rule": tag,
            "left_pairs": [
                {"available": state_to_text(sa), "assembled": state_to_text(sb)}
                for sa, sb in d.left_pairs
            ],
            "left": derivation_to_json(d.left),
            "right": derivation_to_json(d.right),
        }
    raise SerializationError(f"unknown derivation node {d!r}")


def derivation_from_json(d: dict, u: Universe) -> Derivation:
    """The derivation tree ``d`` holds, each state it names checked against
    ``u`` (``states.validate``) as a document's outer state is."""
    rule = d["rule"]
    if rule == "implication":
        return DImplication(derivation_from_json(d["child"], u))
    if rule == "star":
        return DStar(derivation_from_json(d["left"], u), derivation_from_json(d["right"], u))
    if rule == "extract":
        return DExtract(_state(d["state"], u), derivation_from_json(d["child"], u))
    if rule == "atom":
        choices = {
            (_state(c["available"], u), _state(c["assembled"], u)): _state(c["choice"], u)
            for c in d["choices"]
        }
        return DAtom.make(choices)
    if rule == "disjunction":
        pairs = tuple((_state(p["available"], u), _state(p["assembled"], u)) for p in d["left_pairs"])
        return DDisjunction(pairs, derivation_from_json(d["left"], u), derivation_from_json(d["right"], u))
    raise SerializationError(f"unknown derivation rule {rule!r}")


def _state(text: str, u: Universe) -> State:
    s = parse_state_text(text)
    validate(s, u)
    return s


def derivation_doc(
    u: Universe,
    store: Mapping,
    wand: Wand,
    conf: Configuration,
    deriv: Derivation,
    script: Sequence[Stmt] = (),
) -> dict:
    """The document of a package that started from ``conf`` and ran ``script``."""
    return {
        "format": DERIVATION_FORMAT,
        "universe": format_universe(u),
        "store": dict(sorted(store.items())),
        "wand": format_assertion(wand),
        "outer": state_to_text(conf.context.outer),
        "script": " ".join(["{", *(line.strip() for line in format_stmts(script, "")), "}"]),
        "derivation": derivation_to_json(deriv),
    }


def derivation_doc_read(doc: dict):
    """Returns (universe, store, wand, initial configuration, derivation, script).

    The wand and script get a ``package`` statement's static check, each
    store variable typed by its value, and every state the document names
    is checked against its universe, before the configuration is rebuilt."""
    from .verifier import ProgramError, check_stmts  # the verifier writes documents

    if not isinstance(doc, dict) or doc.get("format") != DERIVATION_FORMAT:
        raise SerializationError("not a derivation document")
    u = parse_universe_text(doc["universe"])
    store = dict(doc["store"])
    wand = parse_assertion_text(doc["wand"])
    if not isinstance(wand, Wand):
        raise SerializationError("document wand is not a wand assertion")
    script = parse_script_text(doc["script"])
    outer = parse_state_text(doc["outer"])
    for x, v in store.items():
        if value_type(v) == REF and v not in u.ref_values():
            raise SerializationError(f"store value {v!r} of {x} is not a reference the universe declares")
    try:
        check_stmts([Package(wand, script)], u, {x: value_type(v) for x, v in store.items()})
        validate(outer, u)
        deriv = derivation_from_json(doc["derivation"], u)
    except ProgramError as e:
        raise SerializationError(e.message) from None
    except (StateError, UniverseError) as e:
        raise SerializationError(str(e)) from None
    conf = initial_configuration(u, wand, store, outer)
    return u, store, wand, conf, deriv, script


def derivation_doc_parse(doc: dict):
    """Returns (universe, store, wand, initial configuration, derivation):
    ``derivation_doc_read`` without the script."""
    return derivation_doc_read(doc)[:5]


def dumps_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
