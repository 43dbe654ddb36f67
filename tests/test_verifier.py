import json

import pytest

from wandpack.cli import load_program
from wandpack.parser import parse_program_text, parse_universe_text
from wandpack.program import format_program
from wandpack.serialization import dumps_canonical
from wandpack.verifier import ProgramError, run

from conftest import CORPUS


def program(text, universe_text):
    p = parse_program_text(text)
    u = parse_universe_text(universe_text)
    return p.__class__(p.universe_ref, p.methods, u)


SINGLETON_U = """
universe v1
granularity 2
refs x
loc x.f: int {0}
loc x.g: int {0}
"""


# -- statement semantics --------------------------------------------------------


def test_inhale_then_assert():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f)
          assert acc(x.f)
        }
        """,
        SINGLETON_U,
    )
    assert run(p, "sound").verified


def test_assert_failure_reports_witness_world():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f, 1/2)
          assert acc(x.f)
        }
        """,
        SINGLETON_U,
    )
    report = run(p, "sound")
    assert not report.verified
    err = report.methods[0].statements[-1].error
    assert "assert failed" in err["message"]
    assert err["world"] is not None


def test_exhale_keeps_value_no_havoc():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f)
          exhale acc(x.f)
          assert perm(x.f) == none
          inhale acc(x.f, 1/2)
          assert x.f == 0
        }
        """,
        SINGLETON_U,
    )
    assert run(p, "sound").verified


def test_heap_write_requires_full_permission():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f, 1/2)
          x.f := 0
        }
        """,
        SINGLETON_U,
    )
    report = run(p, "sound")
    assert not report.verified
    assert "full permission" in report.methods[0].statements[-1].error["message"]


def test_inhale_false_drops_world_vacuous_assert():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f)
          inhale x.f == 0
          inhale !(x.f == 0)
          assert false
        }
        """,
        SINGLETON_U,
    )
    assert run(p, "sound").verified


def test_double_inhale_full_is_inconsistent():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f)
          inhale acc(x.f)
          assert false
        }
        """,
        SINGLETON_U,
    )
    assert run(p, "sound").verified


def test_world_set_stays_singleton_without_forks():
    # singleton value domains: no fresh-value forking, no disjunctive
    # inhales; the per-binding world count is 1 throughout
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f) * acc(x.g)
          exhale acc(x.g)
          assert acc(x.f)
        }
        """,
        SINGLETON_U,
    )
    report = run(p, "sound")
    assert report.verified
    # x ranges over {x, null}; only the x binding survives the inhale
    assert all(s.worlds == 1 for s in report.methods[0].statements)


def test_inhale_dependent_chain_forks_consistently():
    # inhaling acc(x.f) * acc(x.f.g) must fork x.f and then resolve the
    # second conjunct through each forked value
    p = program(
        """
        program v1
        method chain(x: Ref) {
          inhale acc(x.f) * acc(x.f.g)
          if (x.f == ref(y)) {
            assert acc(ref(y).g)
          } else {
            assert acc(ref(z).g)
          }
        }
        """,
        """
        universe v1
        granularity 2
        refs x, y, z
        loc x.f: ref {y, z}
        loc y.g: int {0}
        loc z.g: int {0}
        """,
    )
    assert run(p, "sound").verified


def test_if_partitions_worlds():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.b)
          if (x.b == true) {
            assert x.b == true
          } else {
            assert x.b == false
          }
        }
        """,
        """
        universe v1
        granularity 2
        refs x
        loc x.b: bool
        """,
    )
    assert run(p, "sound").verified


def test_var_decl_and_assign():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f)
          var v: int := x.f
          assert v == 0
          var r: ref := x
          r.f := 0
          assert r == x
        }
        """,
        SINGLETON_U,
    )
    assert run(p, "sound").verified


def test_branch_locals_go_out_of_scope_at_the_end_of_the_if():
    # each branch declares v with a type of its own; after the if no v is in
    # scope, so the two worlds that differ only in v are one world
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.b)
          if (x.b) {
            var v: int := 1
            x.b := false
          } else {
            var v: ref := x
          }
          assert x.b == false
        }
        """,
        """
        universe v1
        granularity 2
        refs x
        loc x.b: bool
        """,
    )
    report = run(p, "sound")
    assert report.verified
    assert [s.worlds for s in report.methods[0].statements] == [2, 1, 1]


LOCALS_PROGRAM = """program v1

method m(x: Ref)
{
  inhale acc(x.b) * acc(x.f)
  var t: bool := x.b && true || !x.b
  var v: int := x.b ==> x.f == 0 ? x.f : 0
  v := v
  assert t && v == 0
  t := x.b && false
  assert !t
  t := x.b ==> false
  assert t == !x.b
}
"""


def test_locals_and_boolean_operators_in_expressions():
    u = """
        universe v1
        granularity 2
        refs x
        loc x.b: bool
        loc x.f: int {0}
        """
    assert run(program(LOCALS_PROGRAM, u), "sound").verified
    # the printer writes declarations and assignments back as they were read
    assert format_program(parse_program_text(LOCALS_PROGRAM)) == LOCALS_PROGRAM
    failing = LOCALS_PROGRAM.replace("assert !t", "assert t")
    (method,) = run(program(failing, u), "sound").to_json()["methods"]
    assert method["statements"][-1]["error"]["message"] == "assert failed: t"
    assert method["statements"][-1]["pos"] == (11, 3)


def test_typecheck_rejects_bad_program():
    p = program(
        """
        program v1
        method m(x: Ref) {
          x := 3
        }
        """,
        SINGLETON_U,
    )
    with pytest.raises(ProgramError):
        run(p, "sound")


@pytest.mark.parametrize(
    "stmt", ["inhale Nope(x)", "assert Nope(x)", "package Nope(x) --* acc(x.f)", "apply Nope(x) --* acc(x.f)"]
)
def test_undeclared_predicate_is_a_positioned_program_error(stmt):
    p = program(
        f"""
        program v1
        method m(x: Ref) {{
          inhale acc(x.f)
          {stmt}
        }}
        """,
        SINGLETON_U,
    )
    with pytest.raises(ProgramError) as err:
        run(p, "sound")
    assert str(err.value) == "5:11: undeclared predicate Nope"


@pytest.mark.parametrize("stmt", ["apply (x.f == 0 --* acc(x.f))", "assert (x.f == 0 --* acc(x.f))"])
def test_script_wand_must_be_self_framing(stmt):
    # a script statement gets the program's static check, even on a branch
    # no pair reaches
    p = program(
        f"""
        program v1
        method m(x: Ref)
          requires acc(x.f)
        {{
          package acc(x.f) --* acc(x.f) {{
            if (false) {{
              {stmt}
            }}
          }}
        }}
        """,
        SINGLETON_U,
    )
    with pytest.raises(ProgramError, match="wand is not self-framing"):
        run(p, "sound")


def test_apply_without_instance_fails():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f)
          apply acc(x.f) --* acc(x.g)
        }
        """,
        SINGLETON_U,
    )
    report = run(p, "sound")
    assert not report.verified
    assert "no recorded instance" in report.methods[0].statements[-1].error["message"]


def test_inhale_exhale_wand_instance():
    # wand atoms in statement assertions are recorded-instance resources
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f) --* acc(x.g)
          assert acc(x.f) --* acc(x.g)
          exhale acc(x.f) --* acc(x.g)
          assert false ? acc(x.f) : true
        }
        """,
        SINGLETON_U,
    )
    report = run(p, "sound")
    assert report.verified


def test_package_then_apply_roundtrip():
    p = program(
        """
        program v1
        method m(x: Ref) {
          inhale acc(x.f) * acc(x.g)
          package acc(x.f) --* acc(x.f) * acc(x.g)
          assert perm(x.g) == none
          apply acc(x.f) --* acc(x.f) * acc(x.g)
          assert acc(x.f) * acc(x.g)
        }
        """,
        SINGLETON_U,
    )
    assert run(p, "sound").verified


# -- the flagship program ----------------------------------------------------------


def test_proof_of_false_fia_verifies():
    p = load_program(str(CORPUS / "proof_of_false.wnd"))
    report = run(p, "fia")
    assert report.verified


def test_proof_of_false_sound_rejects_at_introspection():
    p = load_program(str(CORPUS / "proof_of_false.wnd"))
    report = run(p, "sound")
    assert not report.verified
    failing = [s for s in report.methods[0].statements if s.status == "error"]
    assert failing and failing[0].kind == "assertstmt"
    assert "perm" in failing[0].error["message"]


def test_proof_of_false_fia_audit_flags_violation():
    p = load_program(str(CORPUS / "proof_of_false.wnd"))
    report = run(p, "fia", audit=True)
    assert report.audit_violations > 0
    assert not report.verified  # audit downgrades the verdict


def test_sound_and_combinable_audits_clean(corpus_dir):
    for name, alg in (("two_footprints.wnd", "sound"), ("preds.wnd", "sound"), ("combinable.wnd", "combinable")):
        p = load_program(str(corpus_dir / name))
        report = run(p, alg, audit=True)
        assert report.verified, name
        assert report.audit_violations == 0, name


# -- report determinism ----------------------------------------------------------------


def test_report_json_deterministic_across_runs(corpus_dir):
    p = load_program(str(corpus_dir / "proof_of_false.wnd"))
    docs = [dumps_canonical(run(p, "fia").to_json()) for _ in range(3)]
    assert docs[0] == docs[1] == docs[2]


def test_report_has_no_timing_field(corpus_dir):
    p = load_program(str(corpus_dir / "basic.wnd"))
    doc = run(p, "sound").to_json()
    assert "elapsed" not in json.dumps(doc)


def test_report_json_is_the_deep_conversion(corpus_dir):
    # to_json shares the JSON values the report holds instead of copying
    # them; it must still give what dataclasses.asdict gives
    from dataclasses import asdict

    for program in sorted(corpus_dir.glob("*.wnd")):
        for algorithm in ("sound", "combinable", "fia"):
            report = run(load_program(str(program)), algorithm, audit=True)
            assert report.to_json() == {"format": "wandpack-report-1", **asdict(report)}
