import json

import pytest

from wandpack.cli import main

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
    assert derivs and derivs[0]["format"] == "wandpack-derivation-1"
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


SHIPPED = json.loads((CORPUS / "derivations" / "two_footprints_half_xb.json").read_text())


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"kind": "standard"}',
        "[1]",
        '{"format": "wandpack-derivation-1", "universe": "universe v1\\ngranularity 2\\nrefs x", "store": {}}',
        '{"format": "wandpack-derivation-1", "universe": "universe v1\\ngranularity 2\\nrefs x", "store": 5}',
        '{"format": "wandpack-derivation-1", "universe": "universe v1\\ngranularity 2\\nrefs x", "store": "ab"}',
        '{"format": "wandpack-derivation-1", "universe": "universe v1\\ngranularity 2\\nrefs x", "store": {},'
        ' "wand": "acc(x.f) --* acc(x.f)", "config": {"pairs": [5]}}',
        # parse errors inside a document are reported with the document
        json.dumps({**SHIPPED, "config": {**SHIPPED["config"], "outer": "{x.b @ 1/0 = false}"}}),
        json.dumps({**SHIPPED, "universe": SHIPPED["universe"] + "loc y.f: int {0}\n"}),
        # states the document's universe cannot hold
        json.dumps({**SHIPPED, "config": {**SHIPPED["config"], "outer": "{x.b @ 1 = false, x.f @ 1 = 7}"}}),
        json.dumps({**SHIPPED, "config": {**SHIPPED["config"], "outer": "{x.b @ 1 = false, x.f @ 1 = 0, z.q @ 1 = 3}"}}),
        json.dumps({**SHIPPED, "config": {**SHIPPED["config"], "pairs": [{"available": "{x.g @ 1/2 = 5}", "assembled": "{}"}]}}),
    ],
    ids=[
        "not-json", "no-format", "not-an-object", "missing-field", "bad-store", "store-string",
        "pair-not-object", "zero-denominator", "undeclared-ref", "value-outside-domain",
        "undeclared-location", "pair-value-outside-domain",
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
