"""JSON forms for states, configurations, and derivations.

Derivation documents are self-contained: they embed the universe (in its
canonical text form), the store, the wand, the starting configuration and
the rule tree, so `check-derivation` can re-validate them standalone.
All dumps are canonical (sorted keys, stable ordering) so golden files
and reports are byte-reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .assertions import Wand, format_assertion
from .exprs import format_expr
from .package_logic import (
    CombinableR,
    Configuration,
    Context,
    DAtom,
    DDisjunction,
    Derivation,
    DExtract,
    DImplication,
    DStar,
    Identity,
    WitnessPair,
    rule_tag,
)
from .parser import (
    parse_assertion_text,
    parse_expr_text,
    parse_state_text,
    parse_universe_text,
    format_state,
    format_universe,
)
from .states import State, StateError, validate
from .universe import Universe

DERIVATION_FORMAT = "wandpack-derivation-1"
REPORT_FORMAT = "wandpack-report-1"


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


def state_to_text(s: State) -> str:
    return format_state(s)


def _pair_to_json(p: WitnessPair) -> dict:
    d = {
        "available": state_to_text(p.sigma_a),
        "assembled": state_to_text(p.sigma_b),
    }
    if isinstance(p.transformer, CombinableR):
        d["transformer"] = {"kind": "restrict", "anchor": state_to_text(p.transformer.anchor)}
    else:
        d["transformer"] = {"kind": "identity"}
    return d


def _pair_from_json(d: dict) -> WitnessPair:
    t = d.get("transformer", {"kind": "identity"})
    if t["kind"] == "restrict":
        tr = CombinableR(parse_state_text(t["anchor"]))
    elif t["kind"] == "identity":
        tr = Identity()
    else:
        raise SerializationError(f"unknown transformer kind {t['kind']!r}")
    return WitnessPair(parse_state_text(d["available"]), parse_state_text(d["assembled"]), tr)


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


def derivation_from_json(d: dict) -> Derivation:
    rule = d["rule"]
    if rule == "implication":
        return DImplication(derivation_from_json(d["child"]))
    if rule == "star":
        return DStar(derivation_from_json(d["left"]), derivation_from_json(d["right"]))
    if rule == "extract":
        return DExtract(parse_state_text(d["state"]), derivation_from_json(d["child"]))
    if rule == "atom":
        choices = {
            (parse_state_text(c["available"]), parse_state_text(c["assembled"])): parse_state_text(
                c["choice"]
            )
            for c in d["choices"]
        }
        return DAtom.make(choices)
    if rule == "disjunction":
        pairs = tuple(
            (parse_state_text(p["available"]), parse_state_text(p["assembled"]))
            for p in d["left_pairs"]
        )
        return DDisjunction(pairs, derivation_from_json(d["left"]), derivation_from_json(d["right"]))
    raise SerializationError(f"unknown derivation rule {rule!r}")


def derivation_doc(
    u: Universe,
    store: Mapping,
    wand: Wand,
    conf: Configuration,
    deriv: Derivation,
) -> dict:
    return {
        "format": DERIVATION_FORMAT,
        "universe": format_universe(u),
        "store": dict(sorted(store.items())),
        "wand": format_assertion(wand),
        "kind": "combinable" if wand.combinable else "standard",
        "config": {
            "assertion": format_assertion(conf.assertion),
            "pc": [format_expr(e) for e in conf.pc],
            "outer": state_to_text(conf.context.outer),
            "extracted": state_to_text(conf.context.extracted),
            "pairs": [_pair_to_json(p) for p in conf.context.pairs],
        },
        "derivation": derivation_to_json(deriv),
    }


def derivation_doc_parse(doc: dict):
    """Returns (universe, store, wand, configuration, derivation)."""
    if not isinstance(doc, dict) or doc.get("format") != DERIVATION_FORMAT:
        raise SerializationError("not a derivation document")
    u = parse_universe_text(doc["universe"])
    store = dict(doc["store"])
    wand = parse_assertion_text(doc["wand"])
    if not isinstance(wand, Wand):
        raise SerializationError("document wand is not a wand assertion")
    cfg = doc["config"]
    pairs = [_pair_from_json(p) for p in cfg["pairs"]]
    conf = Configuration(
        parse_assertion_text(cfg["assertion"]),
        tuple(parse_expr_text(e) for e in cfg["pc"]),
        Context.make(
            parse_state_text(cfg["outer"]),
            pairs,
            parse_state_text(cfg.get("extracted", "{}")),
        ),
    )
    anchors = [p.transformer.anchor for p in pairs if isinstance(p.transformer, CombinableR)]
    sides = [s for p in pairs for s in (p.sigma_a, p.sigma_b)]
    for s in [conf.context.outer, conf.context.extracted, *sides, *anchors]:
        try:
            validate(s, u)
        except StateError as e:
            raise SerializationError(f"state {state_to_text(s)}: {e}") from None
    deriv = derivation_from_json(doc["derivation"])
    return u, store, wand, conf, deriv


def dumps_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
