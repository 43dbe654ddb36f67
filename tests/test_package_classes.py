"""The verifier packages a statement once per class of worlds.

Worlds that agree on the store, the mask and the values of the fields the
wand and its proof script read package alike.  So ``verifier._package``
runs the packager once per class, and each world takes its class's
footprints and derivation tree with its own values substituted at the
unread locations, and post-states taken from its own state.  The
reference here packages every world on its full state, as the verifier
did before grouping: records, post-worlds, derivation documents and
errors must come out the same.
"""

import json
import random
from fractions import Fraction

import pytest

import wandpack.oracle as orc
import wandpack.states as st
import wandpack.verifier as verifier
from wandpack.algorithms import COMBINABLE, FIA, PACKAGERS, SOUND
from wandpack.assertions import Acc, Imp, OrA, PredA, Pure, Star, Wand, close_assertion, format_assertion, wand_key
from wandpack.cli import main
from wandpack.exprs import Eq, FieldAcc, Lit, Var
from wandpack.parser import format_state, parse_program_text, parse_universe_text
from wandpack.program import Apply, AssertStmt, Fold, If, Method, Package, Program, format_program
from wandpack.serialization import derivation_doc, dumps_canonical, state_to_json
from wandpack.states import State
from wandpack.universe import make_universe
from wandpack.verifier import ALGORITHMS, PackageRecord, VerificationError, World, run

from conftest import CORPUS
from gen import HALF, ONE, random_assertion, random_universe

X = Var("x")
# fields no generated wand or script names: the requires clause forks over them
UNNAMED = {("x", "p"): [0, 1], ("x", "q"): [False, True]}
# a field that only acc atoms name, in the right-hand side or a script
# assert: the package never reads its value, so its two values share a class
OPAQUE = {("x", "o"): [0, 1]}


def per_world_package(worlds, stmt, env):
    """The reference: ``PACKAGERS[alg]`` on each world's full state."""
    out, records = [], []
    for w in worlds:
        store = w.store()
        outcome = PACKAGERS[env.algorithm](w.state, stmt.wand, stmt.script, store, env.u)
        if not outcome.success:
            raise VerificationError(f"package failed: {outcome.diagnostic}", w, stmt.pos)
        key = wand_key(stmt.wand, store)
        if env.algorithm == FIA:
            fps, derivation = [fp for _, fp in outcome.case_footprints], None
        else:
            fps = [outcome.footprint]
            derivation = derivation_doc(
                env.u, store, stmt.wand, outcome.configuration, outcome.derivation, stmt.script
            )
        audit = None
        if env.audit:
            kind = COMBINABLE if stmt.wand.combinable else orc.STANDARD
            closed = close_assertion(stmt.wand, store)
            audit = [
                {"footprint": state_to_json(fp), "valid": orc.audit_footprint(fp, closed, kind, orc.plan(env.u), {})}
                for fp in fps
            ]
        fps_json = [state_to_json(fp) for fp in fps]
        records.append(PackageRecord(stmt.pos, env.algorithm, key.key, fps_json, derivation, audit))
        token = State.make({key: Fraction(1)}, {})
        # a package leaves the outer state less a footprint (pinned by
        # test_algorithms.test_post_state_is_the_outer_state_less_the_footprint)
        posts = [st.sub(w.state, fp) for fp in fps]
        out += [World(w.store_items, g) for post in posts if (g := st.add(post, token)) is not None]
    env.mreport.packages.extend(records)
    return verifier._merge([out])


def traced_run(monkeypatch, program, algorithm, audit, package):
    """Run with ``package`` as the package step; returns the report JSON,
    each package statement's post-worlds, and how many worlds, packager
    calls and merges the package statements saw.  A merge is a world given
    its class's outcome with its own unread values: every world but its
    class's first.  So a package statement that succeeds merges its worlds
    less its packager calls (two worlds with equal keys and equal heaps are
    one world), and one that fails counts no merge."""
    posts, seen = [], {"worlds": 0, "calls": 0, "merges": 0}
    packager = PACKAGERS[algorithm]

    def counted(*args):
        seen["calls"] += 1
        return packager(*args)

    def step(worlds, stmt, env):
        seen["worlds"] += len(worlds)
        calls = seen["calls"]
        out = package(worlds, stmt, env)
        seen["merges"] += len(worlds) - (seen["calls"] - calls)
        posts.append((stmt.pos, list(out)))
        return out

    with monkeypatch.context() as m:
        m.setitem(PACKAGERS, algorithm, counted)
        m.setattr(verifier, "_package", step)
        report = run(program, algorithm, audit=audit)
    return dumps_canonical(report.to_json()), posts, seen


# -- generated programs ------------------------------------------------------------


def _framed_guard(rng, u, framed):
    loc = rng.choice(sorted(framed))
    return Eq(FieldAcc(X, loc.field), Lit(rng.choice(list(u.domain(loc)))))


def _script_assertion(rng, u0, framed):
    """Mostly one permission the outer state holds, else a random assertion."""
    if rng.random() < 0.6:
        return Acc(X, rng.choice(u0.sorted_locations()).field, rng.choice([ONE, HALF]))
    return random_assertion(rng, u0, 1, framed)[0]


def random_package(rng, orng, u0, combinable, held=False):
    """A wand over ``u0`` and a proof script of one kind: none, assert,
    if, fold (when ``u0`` has a predicate) or apply, and how they name x.o,
    drawn from ``orng``.  With ``held``, the kind is apply and the wand's
    left-hand side holds the applied wand and that wand's left-hand side."""
    kind = "apply" if held else rng.choice(["none", "assert", "if", "apply"] + ["fold"] * 2 * bool(u0.predicates))
    lhs, framed = random_assertion(rng, u0, rng.choice([0, 1, 2]))
    rhs, _ = random_assertion(rng, u0, rng.choice([1, 2]), framed=framed)
    script = ()
    if kind == "assert":
        script = (AssertStmt(_script_assertion(rng, u0, framed)),)
    elif kind == "if":
        # a guard the left-hand side frames, or one on an unnamed field
        cond = _framed_guard(rng, u0, framed) if framed else Eq(FieldAcc(X, "p"), Lit(0))
        then = (AssertStmt(_script_assertion(rng, u0, framed)),)
        script = (If(cond, then, rng.choice([(), then])),)
    elif kind == "fold":
        name = rng.choice(sorted(u0.predicates))
        script = (Fold(name, (X,)),)
        # a right-hand side without the instance leaves the body's field to the script
        rhs = rng.choice([PredA(name, (X,)), Star(PredA(name, (X,)), rhs), rhs])
    elif kind == "apply":
        f1, f2 = (rng.choice(u0.sorted_locations()).field for _ in range(2))
        inner = Wand(Acc(X, f1), Acc(X, f2))
        if held:
            lhs = Star(Star(inner, Acc(X, f1)), lhs)
        elif rng.random() < 0.7:  # else the script takes x.f1 from the outer state, then finds no instance
            lhs = Star(inner, lhs)
        script = (Apply(inner),)
    # every package names x.o by an acc atom, so x.o is opaque unless a
    # guard or a pure atom reads it too
    if kind == "assert" and orng.random() < 0.5:
        script = (AssertStmt(Star(script[0].assertion, Acc(X, "o"))),)
    else:
        rhs = Star(rhs, Acc(X, "o"))
        read = Eq(FieldAcc(X, "o"), Lit(orng.choice([0, 1])))
        half = Acc(X, orng.choice(u0.sorted_locations()).field, HALF)
        rhs = orng.choice([rhs] * 3 + [Star(rhs, Imp(read, half)), Star(rhs, OrA(Pure(read), half))])
    return kind, Package(Wand(lhs, rhs, combinable), script)


def random_program(rng, orng, combinable, held=False):
    """A program whose requires clause forks over the unnamed and opaque
    fields and most of the wand's: a package, then an assert of the
    unnamed fields."""
    u0 = random_universe(rng, with_predicate=rng.random() < 0.5)
    locs = {(loc.ref, loc.field): u0.domain(loc) for loc in u0.sorted_locations()}
    u = make_universe(u0.refs, {**locs, **UNNAMED, **OPAQUE}, u0.granularity, u0.predicates)
    kind, pkg = random_package(rng, orng, u0, combinable, held)
    held = [Acc(X, loc.field, rng.choice([ONE, ONE, HALF])) for loc in u0.sorted_locations() if rng.random() < 0.9]
    held += [PredA(n, (X,)) for n in sorted(u0.predicates) if rng.random() < 0.3]
    held += [Acc(X, "p"), Acc(X, "q"), Acc(X, "o")]
    requires = held[0]
    for a in held[1:]:
        requires = Star(requires, a)
    body = (pkg, AssertStmt(Star(Acc(X, "p"), Acc(X, "q"))))
    text = format_program(Program("", (Method("m", ("x",), requires, body),)))
    p = parse_program_text(text)  # positions for the report
    return kind, Program("", p.methods, u)


def programs(algorithm):
    """60 programs, then 24 from a stream of their own whose scripts apply
    a wand their left-hand sides hold (``held``); their wands are of the
    algorithm's kind, mixed under fia."""

    def draw(stream, n, held):
        rng, orng = random.Random(stream), random.Random(f"{stream}:o")
        return [random_program(rng, orng, algorithm == COMBINABLE or (algorithm == FIA and i % 2), held)
                for i in range(n)]

    return draw(f"package-classes:{algorithm}", 60, False) + draw(f"package-classes:{algorithm}:held", 24, True)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_grouped_packaging_equals_per_world_packaging(monkeypatch, algorithm):
    worlds = calls = applied = 0
    succeeded, merged = set(), set()
    for i, (kind, p) in enumerate(programs(algorithm)):
        audit = i % 2 == 0
        got = traced_run(monkeypatch, p, algorithm, audit, verifier._package)
        want = traced_run(monkeypatch, p, algorithm, audit, per_world_package)
        assert got[:2] == want[:2], format_program(p)
        worlds += got[2]["worlds"]
        calls += got[2]["calls"]
        if json.loads(got[0])["methods"][0]["packages"]:
            succeeded.add(kind)
        if got[2]["merges"]:
            merged.add(kind)
            applied += kind == "apply"
    # the sweep groups worlds, packages succeed with scripts of every kind,
    # and worlds that differ only in opaque values share a class under each
    assert calls < worlds / 2
    assert succeeded == merged == {"none", "assert", "if", "apply", "fold"}
    # apply scripts package and merge worlds in 12 fia programs (1 of them
    # among the first 60), 22 sound and 15 combinable ones
    assert applied >= {FIA: 12, SOUND: 22, COMBINABLE: 15}[algorithm]


# -- a package that fails in some worlds ---------------------------------------------

PARTIAL_U = """
universe v1
granularity 2
refs x
loc x.f: int {0}
loc x.g: int {0, 1}
loc x.p: int {0, 1}
loc x.q: int {0, 1}
"""


def test_failure_names_first_failing_world_with_its_full_state():
    # x.p == 0 leaves x.g out of the worlds; x.p and x.q are outside the
    # wand's reach, so both x.p == 0 worlds form one failing class
    p = parse_program_text(
        """
        program v1
        method m(x: Ref)
          requires acc(x.p) * acc(x.q) * (x.p == 1 ==> acc(x.g))
        {
          package acc(x.f) --* acc(x.f) * acc(x.g)
        }
        """
    )
    p = Program("", p.methods, parse_universe_text(PARTIAL_U))
    report = run(p, "sound")
    (stmt,) = report.methods[0].statements
    assert (stmt.status, stmt.worlds) == ("error", 6)
    assert stmt.error == {
        "message": "package failed: prove: insufficient permission for acc(x.g); "
        "no way to satisfy it for pair ({x.f@0=0}, {x.f@1=0})",
        "world": {"store": {"x": "x"}, "state": "{x.p @ 1 = 0, x.q @ 1 = 0}"},
        "pos": [6, 11],
    }
    assert report.methods[0].packages == []


# -- the corpus ------------------------------------------------------------------------

FORKED = """
program v1
universe "{universe}"

method m(x: Ref)
  requires acc(x.f) * acc(x.g)
{{
  package acc(x.f, 1/2) {arrow} acc(x.f)
}}
"""


@pytest.mark.parametrize("algorithm", ["sound", "combinable"])
def test_corpus_documents_store_each_worlds_state(monkeypatch, tmp_path, capsys, algorithm):
    forked = tmp_path / "forked.wnd"
    arrow = "--*c" if algorithm == COMBINABLE else "--*"
    forked.write_text(FORKED.format(universe=CORPUS / "laws.universe", arrow=arrow))
    for path in sorted(CORPUS.glob("*.wnd")) + [forked]:
        packaged, audited, seen = [], [], {"calls": 0}
        packager, package, audit = PACKAGERS[algorithm], verifier._package, orc.audit_footprint

        def counted_audit(fp, closed, *args):
            audited.append((format_assertion(closed), dumps_canonical(state_to_json(fp))))
            return audit(fp, closed, *args)

        def counted_packager(*args):
            seen["calls"] += 1
            return packager(*args)

        def step(worlds, stmt, env):
            out = package(worlds, stmt, env)
            packaged.extend(worlds)
            return out

        out, report = tmp_path / f"{path.stem}.{algorithm}.json", tmp_path / "report.json"
        with monkeypatch.context() as m:
            m.setattr(orc, "audit_footprint", counted_audit)
            m.setitem(PACKAGERS, algorithm, counted_packager)
            m.setattr(verifier, "_package", step)
            main(["verify", str(path), "--algorithm", algorithm, "--audit", "--json", str(report),
                  "--emit-derivation", str(out)])
        docs = json.loads(out.read_text())
        assert [d["outer"] for d in docs] == [format_state(w.state) for w in packaged]
        # the oracle decides each distinct footprint the report lists, once
        listed = {
            (p["wand"], dumps_canonical(a["footprint"]))
            for mr in json.loads(report.read_text())["methods"]
            for p in mr["packages"]
            for a in p["audit"]
        }
        assert sorted(audited) == sorted(listed)
        capsys.readouterr()
        assert main(["check-derivation", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("ACCEPTED") == len(docs) and "REJECTED" not in printed
        if path == forked:
            # x.g's two values fall in one class: 5 worlds, 3 classes
            assert (len(packaged), seen["calls"], len(audited)) == (5, 3, 3)


# -- the package-scaling templates --------------------------------------------------

TEMPLATE_U = """
universe v1
granularity 2
refs x
loc x.a: int {0, 1}
loc x.b: int {0, 1}
loc x.c: int {0, 1}
"""

DISJUNCTIVE = "acc(x.a) * (x.a == 0 || x.a == 1) --* acc(x.a) * acc(x.b)"
COMBINABLE_W = "acc(x.a, 1/2) --*c acc(x.a, 1/2) * acc(x.b)"
PROOF_FALSE = (
    "acc(x.a) * (x.a == 0 || x.a == 1) --* acc(x.a) * (x.a == 0 ==> acc(x.b)) * (x.a == 1 ==> acc(x.c))"
)
# the three wands and bodies of the package-scaling benchmark, every field
# required: (own algorithm, body)
TEMPLATES = {
    "disjunctive": (
        "sound",
        f"package {DISJUNCTIVE}\n  apply {DISJUNCTIVE}\n  assert acc(x.a) * acc(x.b)",
    ),
    "combinable": (
        "combinable",
        f"package {COMBINABLE_W}\n  assert perm(x.b) == none\n  apply {COMBINABLE_W}\n"
        "  assert acc(x.a) * acc(x.b)",
    ),
    "proof-false": (
        "sound",
        f"package {PROOF_FALSE}\n"
        f"  assert ({PROOF_FALSE}) * acc(x.a) * (perm(x.b) == write || perm(x.c) == write)\n"
        "  if (perm(x.b) == write) { x.a := 0 } else { x.a := 1 }\n"
        f"  apply {PROOF_FALSE}\n"
        "  assert false",
    ),
}


def template_program(template: str) -> Program:
    """The template's body in a method that requires every field."""
    _, body = TEMPLATES[template]
    text = f"program v1\nmethod m(x: Ref)\n  requires acc(x.a) * acc(x.b) * acc(x.c)\n{{\n  {body}\n}}\n"
    return Program("", parse_program_text(text).methods, parse_universe_text(TEMPLATE_U))


@pytest.mark.parametrize(
    "template,algorithm",
    [(name, alg) for name, (own, _) in TEMPLATES.items() for alg in (own, FIA)],
)
def test_template_packages_once_per_value_of_the_lhs_field(monkeypatch, template, algorithm):
    # x.b and x.c are unread, so the 8 worlds form one class per value of
    # x.a, and every world but its class's first takes the class outcome
    # with its own values substituted; the report holds each world's
    # derivation document, which stores the world's own state as its outer
    # state
    p = template_program(template)
    got = traced_run(monkeypatch, p, algorithm, False, verifier._package)
    want = traced_run(monkeypatch, p, algorithm, False, per_world_package)
    assert got[:2] == want[:2]
    assert (got[2]["worlds"], got[2]["calls"], got[2]["merges"]) == (8, 2, 6)


@pytest.mark.parametrize("template", TEMPLATES)
def test_template_builds_one_derivation_document_per_class(monkeypatch, template):
    # a class's document is built once, from its first world's outcome;
    # every other world's is that one with its own outer state and values
    built, doc = [], verifier.derivation_doc

    def counted(*args):
        built.append(args)
        return doc(*args)

    monkeypatch.setattr(verifier, "derivation_doc", counted)
    report, _, seen = traced_run(monkeypatch, template_program(template), TEMPLATES[template][0], False,
                                 verifier._package)
    docs = [p["derivation"] for m in json.loads(report)["methods"] for p in m["packages"]]
    assert (seen["worlds"], seen["calls"], len(built)) == (8, 2, 2)
    assert len(docs) == 8 and len({d["outer"] for d in docs}) == 8


def test_script_condition_on_a_rhs_field_keeps_its_values_apart(monkeypatch):
    # the if condition reads x.b, so x.b is not opaque: one class per value
    # of x.a and x.b, and only x.b == 0 takes x.c into the footprint
    text = (
        "program v1\nmethod m(x: Ref)\n  requires acc(x.a) * acc(x.b) * acc(x.c)\n{\n"
        "  package acc(x.a) --* acc(x.a) * acc(x.b) {\n"
        "    assert acc(x.b)\n"
        "    if (x.b == 0) { assert acc(x.c) }\n"
        "  }\n}\n"
    )
    u = parse_universe_text(TEMPLATE_U.replace("x.c: int {0, 1}", "x.c: int {0}"))
    p = Program("", parse_program_text(text).methods, u)
    for algorithm in ("sound", FIA):
        got = traced_run(monkeypatch, p, algorithm, True, verifier._package)
        want = traced_run(monkeypatch, p, algorithm, True, per_world_package)
        assert got[:2] == want[:2]
        assert json.loads(got[0])["verified"]
        assert (got[2]["worlds"], got[2]["calls"], got[2]["merges"]) == (4, 4, 0)


def test_worlds_that_differ_in_an_unread_mask_fall_into_separate_classes(monkeypatch):
    # x.p and x.q are unread, so their values do not split a class, but the
    # class key holds the whole mask: the x.p == 0 worlds hold half of x.q,
    # so each value of x.a makes two classes
    text = (
        "program v1\nmethod m(x: Ref)\n  requires acc(x.a) * acc(x.p) * acc(x.q)\n{\n"
        "  if (x.p == 0) { exhale acc(x.q, 1/2) }\n"
        "  package acc(x.a) * (x.a == 0 || x.a == 1) --* acc(x.a)\n}\n"
    )
    u = parse_universe_text(TEMPLATE_U.replace("x.b", "x.p").replace("x.c", "x.q"))
    p = Program("", parse_program_text(text).methods, u)
    for algorithm in ("sound", FIA):
        got = traced_run(monkeypatch, p, algorithm, True, verifier._package)
        want = traced_run(monkeypatch, p, algorithm, True, per_world_package)
        assert got[:2] == want[:2]
        assert json.loads(got[0])["verified"]
        assert (got[2]["worlds"], got[2]["calls"], got[2]["merges"]) == (8, 4, 4)
