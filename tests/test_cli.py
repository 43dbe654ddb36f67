import json

import pytest

from wandpack.algorithms import prove_rhs
from wandpack.cli import load_universe, main
from wandpack.package_logic import (
    Configuration,
    Context,
    DAtom,
    DDisjunction,
    init_witness_set,
    initial_configuration,
)
from wandpack.parser import parse_assertion_text, parse_state_text
from wandpack.serialization import derivation_doc, dumps_canonical, state_to_json
from wandpack.states import EMPTY
from wandpack.universe import FieldLoc

from conftest import CORPUS


def run_cli(*args):
    return main([str(a) for a in args])


# -- verify ---------------------------------------------------------------------


def test_verify_proof_of_false_fia_exit_0(capsys):
    assert run_cli("verify", CORPUS / "proof_of_false.wnd", "--algorithm", "fia") == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_proof_of_false_sound_exit_1(capsys):
    assert run_cli("verify", CORPUS / "proof_of_false.wnd", "--algorithm", "sound") == 1
    assert "REJECTED" in capsys.readouterr().out


def test_verify_audit_downgrades_fia(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "verify", CORPUS / "proof_of_false.wnd", "--algorithm", "fia", "--audit", "--json", out
    )
    assert code == 1
    doc = json.loads(out.read_text())
    flags = [a["valid"] for m in doc["methods"] for p in m["packages"] for a in p["audit"]]
    assert flags and not any(flags)


def test_verify_audit_follows_the_wand_not_the_universe(capsys, tmp_path):
    # ten int {0, 1} locations make 5^10 stable states, over the 10^6 bound;
    # the audit enumerates the two locations the wand names
    locs = "".join(f"loc x.f{i}: int {{0, 1}}\n" for i in range(1, 11))
    (tmp_path / "u.universe").write_text(f"universe v1\ngranularity 2\nrefs x\n{locs}")
    (tmp_path / "p.wnd").write_text(
        'program v1\nuniverse "u.universe"\n\nmethod m(x: Ref)\n'
        "  requires acc(x.f2) * x.f2 == 1\n{\n  package acc(x.f1) --* acc(x.f1) * acc(x.f2)\n}\n"
    )
    assert run_cli("verify", tmp_path / "p.wnd", "--audit") == 0
    assert "audit violations: 0" in capsys.readouterr().out


@pytest.mark.parametrize("granularity", [1, 2])
def test_verify_wand_lhs_enumerates_what_it_reaches(capsys, tmp_path, granularity):
    # the left-hand side holds a wand atom, so its witness set is enumerated:
    # over x.f1 alone, not the 5^10 (granularity 2) or 3^10 stable states
    locs = "".join(f"loc x.f{i}: int {{0, 1}}\n" for i in range(1, 11))
    (tmp_path / "u.universe").write_text(f"universe v1\ngranularity {granularity}\nrefs x\n{locs}")
    (tmp_path / "p.wnd").write_text(
        'program v1\nuniverse "u.universe"\n\nmethod m(x: Ref)\n'
        "  requires acc(x.f2)\n{\n  package (acc(x.f1) --* acc(x.f1)) --* acc(x.f2)\n}\n"
    )
    assert run_cli("verify", tmp_path / "p.wnd") == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_backtracks_past_the_greedy_disjunct(capsys, tmp_path):
    # the disjunction first takes the pair's x.f, which the last atom needs;
    # the search takes x.g from the outer state for it instead
    (tmp_path / "u.universe").write_text("universe v1\ngranularity 2\nrefs x\nloc x.f: int {0}\nloc x.g: int {0}\n")
    (tmp_path / "p.wnd").write_text(
        'program v1\nuniverse "u.universe"\n\nmethod m(x: Ref)\n'
        "  requires acc(x.g)\n{\n  package acc(x.f) --* (acc(x.f) || acc(x.g)) * acc(x.f)\n}\n"
    )
    report, derivs = tmp_path / "r.json", tmp_path / "d.json"
    assert run_cli("verify", tmp_path / "p.wnd", "--audit", "--json", report, "--emit-derivation", derivs) == 0
    assert "audit violations: 0" in capsys.readouterr().out
    (package,) = [p for m in json.loads(report.read_text())["methods"] for p in m["packages"]]
    assert package["footprints"] == [state_to_json(parse_state_text("{x.g @ 1 = 0}"))]
    assert run_cli("check-derivation", derivs) == 0
    assert capsys.readouterr().out == "derivation 0: ACCEPTED, footprint {x.g @ 1 = 0}\n"


def test_oracle_over_budget_exit_2(capsys, tmp_path):
    # the query names f and g, so it reaches every location: 405^4 states
    uni = tmp_path / "big.universe"
    uni.write_text(
        "universe v1\ngranularity 100\nrefs x, y\n"
        + "".join(f"loc {r}.{f}: int {{0, 1, 2, 3}}\n" for r in "xy" for f in "fg")
    )
    assert run_cli("oracle", "entail", "--universe", uni, "--lhs", "acc(x.f)", "--rhs", "acc(x.g)") == 2
    assert "over the budget of 1000000" in capsys.readouterr().err


def test_verify_json_and_derivation_outputs(tmp_path):
    rj = tmp_path / "r.json"
    dj = tmp_path / "d.json"
    code = run_cli(
        "verify", CORPUS / "two_footprints.wnd", "--algorithm", "sound", "--json", rj,
        "--emit-derivation", dj,
    )
    assert code == 0
    report = json.loads(rj.read_text())
    assert report["format"] == "wandpack-report-1"
    assert report["verified"] is True
    derivs = json.loads(dj.read_text())
    assert derivs and derivs[0]["format"] == "wandpack-derivation-2"
    assert run_cli("check-derivation", dj) == 0


def test_verify_missing_file_exit_2(capsys):
    assert run_cli("verify", "no-such-file.wnd") == 2


# -- open gaps, pinned at their current verdicts ---------------------------------------
# Each test names the ROADMAP open item that would change it; the change that
# closes an item flips its pin and says why in CHANGES.md.


def _verify_text(tmp_path, universe, program, *args):
    (tmp_path / "u.universe").write_text(universe)
    (tmp_path / "p.wnd").write_text('program v1\nuniverse "u.universe"\n\n' + program)
    return run_cli("verify", tmp_path / "p.wnd", *args)


README_PROGRAM = (
    "method m(x: Ref)\n  requires acc(x.f) * Cell(x)\n{\n"
    "  package acc(x.f, 1/2) --*c acc(x.f) * Cell(x)\n}\n"
)
NESTED_UNIVERSE = "universe v1\ngranularity 2\nrefs x\nloc x.f: int {0, 1}\nloc x.g: int {0, 1}\n"
NESTED_PROGRAM = (
    "method m(x: Ref)\n  requires acc(x.g) * (acc(x.f) --* acc(x.f) * acc(x.g))\n{\n"
    "  package true --* (acc(x.f) --* acc(x.f) * acc(x.g))\n}\n"
)


def test_open_item_1_readme_cell_program_verifies_but_fails_its_audit(capsys, tmp_path):
    # ROADMAP open item 1: the package logic reads Cell(x) as a token, the
    # audit replaces it with its body
    assert _verify_text(tmp_path, CELL_UNIVERSE, README_PROGRAM, "--algorithm", "combinable") == 0
    assert "VERIFIED (combinable" in capsys.readouterr().out
    assert _verify_text(tmp_path, CELL_UNIVERSE, README_PROGRAM, "--algorithm", "combinable", "--audit") == 1
    out = capsys.readouterr().out
    assert "REJECTED (combinable" in out and "audit violations: 2\n" in out


def test_open_item_9_nested_wand_verifies_but_fails_its_audit(capsys, tmp_path):
    # ROADMAP open item 9: the footprint is the held wand instance, which the
    # audit reads semantically
    assert _verify_text(tmp_path, NESTED_UNIVERSE, NESTED_PROGRAM, "--algorithm", "sound") == 0
    assert "VERIFIED (sound" in capsys.readouterr().out
    assert _verify_text(tmp_path, NESTED_UNIVERSE, NESTED_PROGRAM, "--algorithm", "sound", "--audit") == 1
    out = capsys.readouterr().out
    assert "REJECTED (sound" in out and "audit violations: 2\n" in out


def test_open_item_8_script_apply_needs_the_instance_in_every_pair(capsys, tmp_path):
    # ROADMAP open item 8: script apply does not extract the wand instance
    # the outer state holds, as fold extracts its body
    program = (
        "method m(x: Ref, y: Ref)\n  requires acc(x.f) * acc(y.f) * (acc(x.f) --* Cell(x))\n{\n"
        "  package acc(y.f, 1/2) --* acc(y.f, 1/2) * Cell(x) {\n    apply acc(x.f) --* Cell(x)\n  }\n}\n"
    )
    universe = (CORPUS / "preds.universe").read_text()
    assert _verify_text(tmp_path, universe, program, "--algorithm", "sound") == 1
    out = capsys.readouterr().out
    assert "REJECTED (sound" in out
    assert "no wand instance held by pair ({x.f@1=0, y.f@1/2=0})" in out


# -- check-derivation ----------------------------------------------------------------


def test_check_shipped_handwritten_derivation(capsys):
    assert run_cli("check-derivation", CORPUS / "derivations" / "two_footprints_half_xb.json") == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out and "x.b" in out


def test_check_corrupted_derivation(tmp_path, capsys):
    doc = json.loads((CORPUS / "derivations" / "two_footprints_half_xb.json").read_text())
    # claim a footprint the outer state cannot supply
    doc["derivation"]["state"] = "{x.g @ 1 = 0}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("check-derivation", bad) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_check_rejects_a_tree_proved_for_one_case(tmp_path, capsys):
    # the tree serves only the x.f == y case; the package's own witness set
    # also holds x.f == z, which needs z.g as well
    u = load_universe(CORPUS / "pointers.universe")
    store = {"x": "x", "y": "y", "z": "z"}
    wand = parse_assertion_text("acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)")
    outer = parse_state_text("{x.f @ 1 = y, y.g @ 1 = 0, z.g @ 1 = 0}")
    pairs = init_witness_set(wand.lhs, u, True, store)
    ctx = Context.make(outer, [p for p in pairs if p.sigma_a.heap_value(FieldLoc("x", "f")) == "y"])
    _, tree = prove_rhs(ctx, (), wand.rhs, u, store)
    forged = tmp_path / "forged.json"
    forged.write_text(dumps_canonical(derivation_doc(u, store, wand, Configuration(wand.rhs, (), ctx), tree)))
    assert run_cli("check-derivation", forged) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_check_rejects_a_document_whose_script_fails(tmp_path, capsys):
    derivs = tmp_path / "d.json"
    assert run_cli("verify", CORPUS / "preds.wnd", "--emit-derivation", derivs) == 0
    doc = json.loads(derivs.read_text())[0]
    doc["script"] = "{ unfold Cell(x) }"  # the pairs hold x.f, not the instance
    derivs.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("check-derivation", derivs) == 1
    assert capsys.readouterr().out == (
        "derivation 0: REJECTED: script: unfold Cell: no full instance held by pair ({x.f@1=0})\n"
    )


ATOM = {"rule": "atom", "choices": []}


@pytest.mark.parametrize(
    "node, edit, line",
    [
        (
            ("child", "right"),
            {"rule": "star", "left": ATOM, "right": ATOM},
            "extract > star > right > star: implication needs an implication rule, got star",
        ),
        (
            ("child", "left"),
            {"rule": "star", "left": ATOM, "right": ATOM},
            "extract > star > left > star: atom assertion needs an atom rule, got star",
        ),
        (
            ("child", "left"),
            {"rule": "disjunction", "left_pairs": [], "left": ATOM, "right": ATOM},
            "extract > star > left > disjunction: disjunction rule applied to a non-disjunction",
        ),
    ],
    ids=["star-for-implication", "star-for-atom", "disjunction-for-atom"],
)
def test_check_rejects_a_rule_that_does_not_fit_its_assertion(tmp_path, capsys, node, edit, line):
    doc = json.loads((CORPUS / "derivations" / "two_footprints_half_xb.json").read_text())
    parent = doc["derivation"]
    for key in node[:-1]:
        parent = parent[key]
    parent[node[-1]] = edit
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("check-derivation", bad) == 1
    assert capsys.readouterr().out == f"derivation 0: REJECTED: {line}\n"


def test_check_rejects_a_partition_naming_a_pair_outside_the_witness_set(tmp_path, capsys):
    u = load_universe(CORPUS / "pointers.universe")
    store = {"x": "x", "y": "y", "z": "z"}
    wand = parse_assertion_text("acc(x.f) * (x.f == y || x.f == z) --* acc(y.g) || acc(z.g)")
    conf = initial_configuration(u, wand, store, parse_state_text("{y.g @ 1 = 0, z.g @ 1 = 0}"))
    stranger = parse_state_text("{x.f @ 1/2 = y}")  # the witness set holds x.f at 1 only
    tree = DDisjunction(((stranger, EMPTY),), DAtom.make({}), DAtom.make({}))
    forged = tmp_path / "forged.json"
    forged.write_text(dumps_canonical(derivation_doc(u, store, wand, conf, tree)))
    assert run_cli("check-derivation", forged) == 1
    assert capsys.readouterr().out == (
        "derivation 0: REJECTED: disjunction: partition names a pair that is not in the witness set\n"
    )


CELL_UNIVERSE = """universe v1
granularity 2
refs x
loc x.f: int {0, 1}
pred Cell(r) = acc(r.f)
"""

CELL_PROGRAM = """program v1
universe "cell.universe"

method m(x: Ref)
  requires acc(x.f)
{
  package acc(x.f, 1/2) --* Cell(x) {
    fold Cell(x)
  }
}
"""


def test_checked_footprints_are_the_reported_ones(tmp_path, capsys):
    (tmp_path / "cell.universe").write_text(CELL_UNIVERSE)
    (tmp_path / "cell.wnd").write_text(CELL_PROGRAM)
    names = ("basic", "combinable", "preds", "proof_of_false", "two_footprints")
    programs = [CORPUS / f"{n}.wnd" for n in names] + [tmp_path / "cell.wnd"]
    report, derivs = tmp_path / "r.json", tmp_path / "d.json"
    checked = []
    for program in programs:
        for algorithm in ("sound", "combinable"):
            run_cli("verify", program, "--algorithm", algorithm, "--json", report, "--emit-derivation", derivs)
            packages = [p for m in json.loads(report.read_text())["methods"] for p in m["packages"]]
            reported = [p["footprints"][0] for p in packages if p["derivation"]]
            if not reported:
                continue
            capsys.readouterr()
            assert run_cli("check-derivation", derivs) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [state_to_json(parse_state_text(x.split(", footprint ")[1])) for x in lines] == reported
            checked += reported
    assert len(checked) == 12
    assert {"mask": {"x.f": "1/2"}, "heap": {"x.f": 1}} in checked


def test_decode_errors_name_the_file(tmp_path, capsys):
    universe = tmp_path / "bad.universe"
    universe.write_bytes(b"universe v1\ngranularity 2\n\xff\n")
    program = tmp_path / "p.wnd"
    program.write_text('program v1\nuniverse "bad.universe"\nmethod m() {\n}\n')
    for args in (("verify", program), ("laws", universe)):
        assert run_cli(*args) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {universe}: 'utf-8' codec can't decode")


SHIPPED = json.loads((CORPUS / "derivations" / "two_footprints_half_xb.json").read_text())
HEADER = '"format": "wandpack-derivation-2", "universe": "universe v1\\ngranularity 2\\nrefs x"'
# the shipped document's tree: an extract of x.b, then a star whose left is an atom
TREE = SHIPPED["derivation"]
ATOM = TREE["child"]["left"]
UNUSED = [{"available": f"{{x.b @ 1 = {v}}}", "assembled": "{}", "choice": "{}"} for v in ("x", 7)]
UNUSED_ATOM = {**ATOM, "choices": ATOM["choices"] + UNUSED}


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"kind": "standard"}',
        "[1]",
        "{" + HEADER + ', "store": {}}',
        "{" + HEADER + ', "store": 5}',
        "{" + HEADER + ', "store": "ab"}',
        json.dumps({**SHIPPED, "format": "wandpack-derivation-1"}),
        # parse errors inside a document are reported with the document
        json.dumps({**SHIPPED, "outer": "{x.b @ 1/0 = false}"}),
        json.dumps({**SHIPPED, "universe": SHIPPED["universe"] + "loc y.f: int {0}\n"}),
        # states the document's universe cannot hold
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 7}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = 0, x.f @ 1 = 0}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = false}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 0, z.q @ 1 = 3}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 0, Nope(x) @ 1}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 0, wand[acc(q.z) --* acc(q.z)] @ 1}"}),
        # states in the derivation tree the document's universe cannot hold
        json.dumps({**SHIPPED, "derivation": {**TREE, "child": {**TREE["child"], "left": UNUSED_ATOM}}}),
        json.dumps({**SHIPPED, "derivation": {**TREE, "state": "{x.q @ 1/2 = 3}"}}),
        # stores, wands and scripts the package statement's static check rejects
        json.dumps({**SHIPPED, "store": {}}),
        json.dumps({**SHIPPED, "store": {"x": "q"}}),
        json.dumps({**SHIPPED, "wand": "acc(x.nope) --* acc(x.b)"}),
        json.dumps({**SHIPPED, "wand": "x.b --* acc(x.b)"}),
        json.dumps({**SHIPPED, "script": "{ fold }"}),
        json.dumps({**SHIPPED, "script": "{ inhale acc(x.f) }"}),
        json.dumps({**SHIPPED, "script": "{ fold Nope(x) }"}),
        json.dumps(
            {**SHIPPED, "universe": SHIPPED["universe"] + "pred Cell(r) = acc(r.f)\n", "script": "{ fold Cell(x, x) }"}
        ),
    ],
    ids=[
        "not-json", "no-format", "not-an-object", "missing-field", "bad-store", "store-string", "format-1",
        "zero-denominator", "undeclared-ref", "value-outside-domain", "int-at-a-bool-location",
        "bool-at-an-int-location", "undeclared-location",
        "undeclared-predicate-instance", "wand-over-undeclared-location", "choice-value-outside-domain",
        "extract-undeclared-location", "store-missing-variable",
        "store-undeclared-reference", "wand-ill-typed", "wand-not-self-framing", "script-parse-error",
        "script-method-statement", "script-undeclared-predicate", "script-wrong-arity",
    ],
)
def test_check_malformed_derivation_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli("check-derivation", bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(bad) in lines[0]
    if text != "{not json":
        assert "derivation 0: malformed document" in lines[0]


def test_check_empty_derivation_list_exit_0(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run_cli("check-derivation", empty) == 0
    assert capsys.readouterr().out == "no derivations\n"


def test_check_accepts_every_emitted_derivation_file(tmp_path, capsys):
    # every algorithm's --emit-derivation output is a document check-derivation
    # accepts, including the empty list a run without derivations writes
    empty = 0
    for program in sorted(CORPUS.glob("*.wnd")):
        for algorithm in ("sound", "combinable", "fia"):
            derivs = tmp_path / f"{program.stem}.{algorithm}.json"
            run_cli("verify", program, "--algorithm", algorithm, "--emit-derivation", derivs)
            capsys.readouterr()
            assert run_cli("check-derivation", derivs) == 0, derivs.name
            out = capsys.readouterr().out
            if json.loads(derivs.read_text()) == []:
                assert out == "no derivations\n"
                empty += 1
            else:
                assert out and all(": ACCEPTED, footprint " in line for line in out.splitlines())
    assert empty == 11


@pytest.mark.parametrize(
    "args",
    [
        ("verify", CORPUS),
        ("check-derivation", CORPUS),
        ("oracle", "combinable", "--universe", CORPUS, "--assertion", "acc(x.f)"),
        ("verify", "BINARY"),
        ("laws", "BINARY"),
    ],
    ids=["verify-directory", "check-directory", "oracle-directory", "verify-not-utf8", "laws-not-utf8"],
)
def test_unreadable_input_exit_2(tmp_path, capsys, args):
    binary = tmp_path / "binary.wnd"
    binary.write_bytes(b"program v1\n\xff\xfe\n")
    assert run_cli(*(binary if a == "BINARY" else a for a in args)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")



def test_parser_is_built_once_and_answers_alike_on_every_call(capsys):
    from wandpack import cli

    assert cli._parser() is cli._parser()
    seen = []
    for _ in range(2):
        for argv in (["--help"], ["oracle", "combinable", "--help"], ["verify"], ["laws", "--bogus", "x"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            seen.append((argv, e.value.code, capsys.readouterr()))
    assert seen[:4] == seen[4:]
    assert [code for _, code, _ in seen[:4]] == [0, 0, 2, 2]
    assert seen[0][2].out.startswith("usage: wandpack [-h] {verify,check-derivation,oracle,laws}")


# -- oracle ------------------------------------------------------------------------------


def test_oracle_footprint_queries(capsys):
    u = CORPUS / "mixed.universe"
    assert run_cli(
        "oracle", "footprint", "--universe", u,
        "--wand", "acc(x.f, 1/2) --* acc(x.g)", "--state", "{x.g @ 1 = 0}",
    ) == 0
    assert run_cli(
        "oracle", "footprint", "--universe", u,
        "--wand", "acc(x.f, 1/2) --* acc(x.g)",
        "--state", "{x.f @ 1/2 = 0, x.g @ 1/2 = 0}",
    ) == 1


@pytest.mark.parametrize(
    "state, message",
    [
        ("{x.f @ 1}", "owned location x.f has no heap value"),
        ("{z.q @ 1 = 5}", "mask entry for undeclared location z.q"),
        ("{x.f @ 1 = 7}", "value 7 outside domain of x.f"),
        # 0 == False and 1 == True in Python: the value's type is checked too
        ("{x.b @ 1 = 0}", "value 0 outside domain of x.b"),
        ("{x.f @ 1 = false}", "value false outside domain of x.f"),
        ("{x.f @ 0 = 0}", "is not stable"),
    ],
)
def test_oracle_footprint_rejects_a_state_off_the_universe(capsys, state, message):
    code = run_cli(
        "oracle", "footprint", "--universe", CORPUS / "mixed.universe",
        "--wand", "acc(x.f, 1/2) --* acc(x.g)", "--state", state,
    )
    assert code == 2
    out = capsys.readouterr()
    assert not out.out
    (line,) = out.err.splitlines()
    assert line.startswith("error: --state: ") and message in line


def test_oracle_footprint_rejects_a_state_naming_a_resource_twice(capsys):
    code = run_cli(
        "oracle", "footprint", "--universe", CORPUS / "mixed.universe",
        "--wand", "acc(x.f, 1/2) --* acc(x.g)", "--state", "{x.f @ 1 = 0, x.f @ 1/2 = 0}",
    )
    assert code == 2
    out = capsys.readouterr()
    assert not out.out
    assert out.err.splitlines() == ["error: --state: 1:15: duplicate resource x.f"]


def test_oracle_combinable_queries():
    u = CORPUS / "mixed.universe"
    assert run_cli("oracle", "combinable", "--universe", u, "--assertion", "acc(x.f)") == 0
    assert run_cli(
        "oracle", "combinable", "--universe", u, "--assertion", "acc(x.f) || acc(x.g)"
    ) == 1


def test_oracle_combinable_counterexample_is_the_readmes(capsys):
    assert run_cli(
        "oracle", "combinable", "--universe", CORPUS / "mixed.universe", "--assertion", "acc(x.f) || acc(x.g)"
    ) == 1
    out = capsys.readouterr().out
    assert out == "not combinable: p=1/2, q=1/2, state {x.f @ 3/4 = 0, x.g @ 1/2 = 0}\n"


def test_oracle_entail_queries():
    u = CORPUS / "mixed.universe"
    assert run_cli(
        "oracle", "entail", "--universe", u,
        "--lhs", "acc(x.f, 1/2) * acc(x.f, 1/2)", "--rhs", "acc(x.f)",
    ) == 0
    assert run_cli(
        "oracle", "entail", "--universe", u, "--lhs", "acc(x.f, 1/2)", "--rhs", "acc(x.f)"
    ) == 1


def test_oracle_minimal_query(capsys):
    u = CORPUS / "mixed.universe"
    code = run_cli(
        "oracle", "minimal", "--universe", u,
        "--wand", "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))",
        "--compatible-only",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "{x.f @ 1 = 0}" in out
    assert "{x.b @ 1/2 = false}" in out


@pytest.mark.parametrize("kind, code", [("standard", 0), ("combinable", 1)])
def test_oracle_footprint_kind_overrides_the_wand(capsys, kind, code):
    # {x.f @ 1 = 0} joins no left-hand-side state, so it is a standard
    # footprint by vacuity; restricted to a left-hand-side state it is empty
    assert run_cli(
        "oracle", "footprint", "--universe", CORPUS / "mixed.universe",
        "--wand", "acc(x.f, 1/2) --* acc(x.g)", "--state", "{x.f @ 1 = 0}", "--kind", kind,
    ) == code
    assert capsys.readouterr().out == ("footprint\n" if code == 0 else "not a footprint\n")


@pytest.mark.parametrize(
    "kind, footprints",
    [("standard", ["{x.f @ 1 = 0}", "{x.g @ 1 = 0}"]), ("combinable", ["{x.g @ 1 = 0}"])],
)
def test_oracle_minimal_kind_overrides_the_wand(capsys, kind, footprints):
    assert run_cli(
        "oracle", "minimal", "--universe", CORPUS / "mixed.universe",
        "--wand", "acc(x.f, 1/2) --*c acc(x.g)", "--kind", kind,
    ) == 0
    assert capsys.readouterr().out.splitlines() == footprints


@pytest.mark.parametrize(
    "query, message",
    [
        (("footprint", "--wand", "acc(q.f) --* acc(q.f)", "--state", "{}"), "--wand: unbound variable q"),
        (("minimal", "--wand", "acc(x.zz) --* true"), "--wand: unknown field zz"),
        (("footprint", "--wand", "Nope(x) --* true", "--state", "{}"), "--wand: undeclared predicate Nope"),
        (("combinable", "--assertion", "Cell(x, x)"), "--assertion: Cell expects 1 arguments"),
        (("entail", "--lhs", "acc(x.f)", "--rhs", "x.f"), "--rhs: pure assertion must be boolean"),
        (("entail", "--lhs", "Cell(1)", "--rhs", "true"), "--lhs: Cell arguments must be references"),
        (
            ("footprint", "--wand", "acc(x.f) --* acc(x.f)", "--state", "{x.f @ 1 = 0, x.f @ 1/2 = 0}"),
            "--state: 1:15: duplicate resource x.f",
        ),
        (("footprint", "--wand", "acc(x.f) --* ", "--state", "{}"), "--wand: 1:14: expected an expression"),
        (("entail", "--lhs", "acc(x.", "--rhs", "true"), "--lhs: 1:1: acc() takes a field access"),
        (("minimal", "--wand", "acc(x.f)"), "--wand: not a wand: acc(x.f)"),
    ],
    ids=[
        "unbound-variable", "unknown-field", "unknown-predicate", "arity", "not-boolean", "not-a-reference",
        "duplicate-resource", "truncated-wand", "truncated-acc", "not-a-wand",
    ],
)
def test_oracle_rejects_ill_typed_assertions_exit_2(capsys, query, message):
    assert run_cli("oracle", query[0], "--universe", CORPUS / "preds.universe", *query[1:]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


# -- laws ----------------------------------------------------------------------------------


def test_laws_exit_0(capsys):
    assert run_cli("laws", CORPUS / "laws.universe") == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 9


def test_laws_bad_file_exit_2():
    assert run_cli("laws", CORPUS / "proof_of_false.wnd") == 2


# each error is reported at the declaration it concerns: the granularity
# line, the loc line, or the second of two conflicting locs
@pytest.mark.parametrize(
    "body, message, line",
    [
        ("granularity 0\nrefs x\nloc x.f: int {0}", "granularity must be a positive integer", 2),
        ("granularity 2\nrefs x\nloc y.f: int {0}", "location y.f roots at undeclared reference", 4),
        ("granularity 2\nrefs x\nloc x.n: ref {x, y}", "location x.n domain names undeclared reference y", 4),
        ("granularity 2\nrefs x, y\nloc x.f: int {0}\nloc y.f: bool", "field f has inconsistent value types", 5),
    ],
    ids=["granularity-0", "undeclared-root", "undeclared-ref-value", "inconsistent-field"],
)
def test_laws_rejects_an_ill_formed_universe_exit_2(tmp_path, capsys, body, message, line):
    path = tmp_path / "bad.universe"
    path.write_text(f"universe v1\n{body}\n")
    assert run_cli("laws", path) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {line}:1: {message}\n"
