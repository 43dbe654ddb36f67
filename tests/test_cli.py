import json

import pytest

from wandpack.algorithms import prove_rhs
from wandpack.cli import load_universe, main
from wandpack.package_logic import Configuration, Context, init_witness_set
from wandpack.parser import parse_assertion_text, parse_state_text
from wandpack.serialization import derivation_doc, dumps_canonical, state_to_json
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
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 0, z.q @ 1 = 3}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 0, Nope(x) @ 1}"}),
        json.dumps({**SHIPPED, "outer": "{x.b @ 1 = false, x.f @ 1 = 0, wand[acc(q.z) --* acc(q.z)] @ 1}"}),
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
        "zero-denominator", "undeclared-ref", "value-outside-domain", "undeclared-location",
        "undeclared-predicate-instance", "wand-over-undeclared-location", "store-missing-variable",
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


def test_oracle_combinable_queries():
    u = CORPUS / "mixed.universe"
    assert run_cli("oracle", "combinable", "--universe", u, "--assertion", "acc(x.f)") == 0
    assert run_cli(
        "oracle", "combinable", "--universe", u, "--assertion", "acc(x.f) || acc(x.g)"
    ) == 1


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


# -- laws ----------------------------------------------------------------------------------


def test_laws_exit_0(capsys):
    assert run_cli("laws", CORPUS / "laws.universe") == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 9


def test_laws_bad_file_exit_2():
    assert run_cli("laws", CORPUS / "proof_of_false.wnd") == 2
