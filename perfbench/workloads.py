"""The three workloads: their operations, known answers and replay inputs.

An operation is ``build(first) -> call`` plus ``judge(result)``.  ``build``
parses the operation's inputs afresh, so wandpack's per-universe caches
start cold on every run of it, as they do for a new request; ``first``
marks the first run, whose result some workloads keep for their checks.
Only ``call(tracer) -> result`` is timed.  ``judge`` compares the result
with an answer known independently of the code under test.  ``ops`` is a
workload's *round*: a fixed, seeded list of distinct operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import inputs
import spans as tracing


@dataclass
class Op:
    kind: str
    build: Callable
    judge: Callable


STORE = {"x": "x"}


def _footprint_state(wp, doc: dict):
    """A report footprint ({"mask": {"x.f": "1"}, "heap": {...}}) as a State;
    the scaling universes hold field locations only."""
    U = wp.universe

    def loc(text):
        ref, field = text.split(".")
        return U.FieldLoc(ref, field)

    return wp.states.State.make(
        {loc(k): Fraction(v) for k, v in doc["mask"].items()},
        {loc(k): v for k, v in doc["heap"].items()},
    )


def _report_footprints(report) -> list:
    return [fp for m in report.methods for p in m.packages for fp in p.footprints]


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# -- package-scaling ---------------------------------------------------------------

def _outers(wp, spec):
    """Every world at a scaling program's package: the requires clause
    holds each required location in full, forked over both of its values."""
    S, U = wp.states, wp.universe
    locs = [U.FieldLoc("x", f) for f in spec.required]
    return [
        S.State.make({l: 1 for l in locs}, dict(zip(locs, values)))
        for values in product([0, 1], repeat=len(locs))
    ]


# hand-written: the locations each template's sound or combinable
# footprint must own (the roles a, b, c of inputs.TEMPLATES)
FOOTPRINT_ROLES = {"disjunctive": "b", "combinable": "b", "proof-false": "bc"}


class PackageScaling:
    name = "package-scaling"
    repeat_s = 0.3  # fia and 3-location runs take 20-100 ms, the rest up to 2 s

    def __init__(self, wp, seed: int):
        self.wp = wp
        self.specs = inputs.scaling_programs(seed)
        self.texts = [t for s in self.specs for t in (s.universe, s.program)]
        self.programs = [self._program(s) for s in self.specs]
        self.reports = {}  # operation index -> report of its first run
        self.ops = [self._op(i, spec) for i, spec in enumerate(self.specs)]

    def _program(self, spec):
        P = self.wp.parser
        u = P.parse_universe_text(spec.universe)
        p = P.parse_program_text(spec.program)
        return p.__class__(p.universe_ref, p.methods, u)

    def _op(self, i, spec):
        run = self.wp.verifier.run

        def build(first):
            program = self._program(spec)

            def call(tr):
                with tr.span("verifier.run", n=spec.nlocs):
                    report = run(program, spec.algorithm)
                if first:
                    self.reports[i] = report
                return report

            return call

        return Op(f"{spec.template}/{spec.algorithm}/n{spec.nlocs}/lhs-{spec.roles[0]}", build,
                  lambda report: report.verified == spec.expected_verified)

    def post_check(self, tr) -> int:
        """Outside the timed region: every sound or combinable footprint in
        the first round's reports owns exactly the template's locations and
        passes ``oracle.is_footprint``.  Returns the number of wrong programs."""
        O, A = self.wp.oracle, self.wp.parser
        wrong = 0
        for i, spec in enumerate(self.specs):
            report = self.reports.get(i)
            if spec.algorithm == "fia" or report is None:  # a raising run counts as failed already
                continue
            wand = A.parse_assertion_text(spec.wand)
            roles = dict(zip("abc", spec.roles))
            want = {f"x.{roles[r]}" for r in FOOTPRINT_ROLES[spec.template]}
            kind = O.COMBINABLE if wand.combinable else O.STANDARD
            plan = O.plan(self.programs[i].universe)
            fps = {_canon(fp): fp for fp in _report_footprints(report)}
            ok = bool(fps)
            for fp in fps.values():
                if set(fp["mask"]) != want:
                    ok = False
                    continue
                with tr.span("oracle.is_footprint"):
                    valid = O.is_footprint(_footprint_state(self.wp, fp), wand, kind, plan, STORE)
                ok = ok and valid
            wrong += not ok
        return wrong

    def replay(self, tr) -> int:
        """Staged replay of every package of the first round; returns the
        number of packages whose replay disagrees with the program."""
        mismatches = 0
        A = self.wp.parser
        for i, spec in enumerate(self.specs):
            u = self.programs[i].universe
            wand = A.parse_assertion_text(spec.wand)
            report = self.reports.get(i)
            replayed = set()
            for outer in _outers(self.wp, spec):
                tr.op_id = f"replay:{i}"
                if spec.algorithm == "fia":
                    out = tracing.replay_fia(self.wp, tr, u, wand, (), STORE, outer)
                    replayed |= {_canon(self.wp.serialization.state_to_json(fp)) for _, fp in out.case_footprints}
                    continue
                equal, fp = tracing.replay_package(self.wp, tr, u, wand, (), STORE, outer)
                mismatches += not equal
                if fp is not None:
                    replayed.add(_canon(self.wp.serialization.state_to_json(fp)))
            if report is not None:
                mismatches += replayed != {_canon(fp) for fp in _report_footprints(report)}
        return mismatches

    def universes(self):
        return [p.universe for p in self.programs]

    def assertions(self):
        A = self.wp.parser
        return [
            (p.universe, side)
            for spec, p in zip(self.specs, self.programs)
            for w in [A.parse_assertion_text(spec.wand)]
            for side in (w.lhs, w.rhs)
        ]


# -- theorem-sweep -------------------------------------------------------------------

class TheoremSweep:
    name = "theorem-sweep"
    repeat_s = 0.0  # 920 operations a round; the metrics rest on their number

    def __init__(self, wp, seed: int):
        self.wp = wp
        self.draws = inputs.theorem_draws(seed)
        self.texts = [t for d in self.draws for t in (d.universe, d.wand, d.outer)]
        self.parsed = [self._parse(d) for d in self.draws]
        self.ops = [Op(kind, self._builder(d, kind), _holds) for d in self.draws for kind in _kinds(d)]

    def _parse(self, d):
        P = self.wp.parser
        return d, P.parse_universe_text(d.universe), P.parse_assertion_text(d.wand), P.parse_state_text(d.outer)

    def _builder(self, d, kind):
        return lambda first: self._calls(*self._parse(d))[kind]

    def _calls(self, d, u, w, outer):
        wp = self.wp
        O, A, P, L = wp.oracle, wp.algorithms, wp.package_logic, wp.assertions
        std = L.Wand(w.lhs, w.rhs, False)
        res = L.Wand(w.lhs, w.rhs, True)
        kind = O.COMBINABLE if w.combinable else O.STANDARD
        packager = A.package_combinable if w.combinable else A.package_sound

        def package(tr):  # Theorem 1: a packaged footprint is a footprint
            plan = O.plan(u)
            with tr.span("algorithms.package", combinable=w.combinable):
                out = packager(outer, w, (), STORE, u)
            if not out.success:
                return True
            with tr.span("oracle.is_footprint"):
                return O.is_footprint(out.footprint, w, kind, plan, STORE)

        def minimal(tr):  # Theorem 2: every minimal footprint is derivable
            plan = O.plan(u)
            with tr.span("oracle.minimal_footprints"):
                fps = O.minimal_footprints(std, O.STANDARD, plan, STORE)
            for fp in fps:
                try:
                    with tr.span("package_logic.build_canonical_derivation"):
                        conf, deriv = P.build_canonical_derivation(u, std, fp, STORE)
                    with tr.span("package_logic.check_derivation"):
                        P.check_derivation(conf, deriv, u, STORE)
                except P.CheckFailure:
                    return False
            return True

        def entail(tr):  # the restricted wand entails the standard one
            with tr.span("oracle.check_entailment"):
                return O.check_entailment(res, std, O.plan(u), STORE)

        def combinable(tr):  # a combinable RHS makes the restricted wand combinable
            plan = O.plan(u)
            with tr.span("oracle.check_combinable"):
                rhs_ok, _ = O.check_combinable(std.rhs, plan, STORE)
            if not rhs_ok:
                return True
            with tr.span("oracle.check_combinable"):
                return O.check_combinable(res, plan, STORE)[0]

        def binary(tr):  # a binary LHS makes both footprint readings agree
            plan = O.plan(u)
            with tr.span("oracle.is_binary"):
                is_bin = O.is_binary(std.lhs, plan, STORE)
            if not is_bin:
                return True
            pool = O.EnumerationPlan(u, stable_only=True).states()
            for cand in pool[:: max(1, len(pool) // 12)]:
                with tr.span("oracle.is_footprint"):
                    a = O.is_footprint(cand, std, O.STANDARD, plan, STORE)
                with tr.span("oracle.is_footprint"):
                    b = O.is_footprint(cand, std, O.COMBINABLE, plan, STORE)
                if a != b:
                    return False
            return True

        return {"package-audit": package, "minimal-derive": minimal, "entail": entail,
                "combinable": combinable, "binary": binary}

    def post_check(self, tr) -> int:
        return 0

    def replay(self, tr) -> int:
        mismatches = 0
        for d, u, w, outer in self.parsed:
            if d.stream != "package":
                continue
            tr.op_id = f"replay:{d.index}"
            equal, _ = tracing.replay_package(self.wp, tr, u, w, (), STORE, outer)
            mismatches += not equal
        return mismatches

    def universes(self):
        return [u for _, u, _, _ in self.parsed]

    def assertions(self):
        return [(u, side) for _, u, w, _ in self.parsed for side in (w.lhs, w.rhs)]


def _kinds(d) -> list[str]:
    if d.stream == "package":
        return ["package-audit"]
    if d.stream == "minimal":
        return ["minimal-derive"]
    # Over 3 locations one entailment query ranges from 0.01 s to 0.6 s and
    # one combinability query from seconds to over a minute, longer than a
    # whole run; no throughput that includes them is steady from seed to
    # seed.  They run over 2 locations.
    if d.nlocs == 3:
        return ["binary"]
    return ["entail", "binary", "combinable"]


def _holds(verdict) -> bool:
    """Each theorem-sweep query returns whether its theorem held."""
    return verdict is True


# -- corpus-cli -------------------------------------------------------------------------

PROGRAMS = ("basic", "combinable", "preds", "proof_of_false", "two_footprints")
UNIVERSES = ("laws", "mixed", "pointers", "preds")

# Hand-written exit codes of `verify --audit` (0 verified, 1 rejected).  A
# `--*c` wand needs the combinable algorithm and a `--*` wand sound or fia;
# the per-case baseline fails its audit on proof_of_false and on
# two_footprints, where it takes x.f in one case and nothing in the other.
VERIFY_EXIT = {
    ("basic", "sound"): 0, ("basic", "fia"): 0, ("basic", "combinable"): 0,
    ("combinable", "sound"): 1, ("combinable", "fia"): 0, ("combinable", "combinable"): 0,
    ("preds", "sound"): 0, ("preds", "fia"): 0, ("preds", "combinable"): 1,
    ("proof_of_false", "sound"): 1, ("proof_of_false", "fia"): 1, ("proof_of_false", "combinable"): 1,
    ("two_footprints", "sound"): 0, ("two_footprints", "fia"): 1, ("two_footprints", "combinable"): 1,
}
# the verify runs whose packages succeed, so their emitted file holds derivations
EMITS = (("combinable", "combinable"), ("preds", "sound"), ("proof_of_false", "sound"), ("two_footprints", "sound"))

PTR_WAND = "acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)"
# (query, universe, further arguments, exit code, text the output must contain)
ORACLE_CALLS = (
    ("footprint", "pointers", ["--wand", PTR_WAND, "--state", "{y.g @ 1 = 0, z.g @ 1 = 0}"], 0, "footprint"),
    ("footprint", "pointers", ["--wand", PTR_WAND, "--state", "{y.g @ 1 = 0}"], 1, "not a footprint"),
    ("combinable", "mixed", ["--assertion", "acc(x.f, 1/2) --*c acc(x.g)"], 0, "combinable"),
    ("entail", "pointers", ["--lhs", "acc(y.g, 1/2) * acc(z.g)",
                            "--rhs", "acc(x.f) * (x.f == y || x.f == z) * acc(x.f.g, 1/2) --* acc(y.g)"], 0, "entails"),
    ("minimal", "mixed", ["--wand", "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))", "--compatible-only"],
     0, "{x.b @ 1/2 = false}"),
)


class CorpusCli:
    name = "corpus-cli"
    repeat_s = 0.1  # most calls take 5-20 ms; `laws` on laws.universe takes seconds

    def __init__(self, wp, seed: int, root: Path, work: Path):
        self.wp = wp
        self.corpus = root / "corpus"
        self.work = work
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        self.rng = random.Random(f"corpus-cli:{seed}")
        P = wp.parser
        files = [self.corpus / f"{n}.wnd" for n in PROGRAMS] + [self.corpus / f"{n}.universe" for n in UNIVERSES]
        self.texts = [f.read_text() for f in files]
        self.parsed_universes = {n: P.parse_universe_text((self.corpus / f"{n}.universe").read_text()) for n in UNIVERSES}
        self.parsed_programs = {n: P.parse_program_text((self.corpus / f"{n}.wnd").read_text()) for n in PROGRAMS}
        self.calls = self._calls()
        self.texts += [" ".join(argv) for argv, _, _ in self.calls]
        self.ops = [self._op(argv, code, text) for argv, code, text in self.calls]

    def _calls(self):
        """(argv, exit code, expected text); verifies precede the derivation
        checks that read their files, and the seed orders each group."""
        C, W = self.corpus, self.work
        verify = []
        for name, alg in VERIFY_EXIT:
            verify.append((["verify", str(C / f"{name}.wnd"), "--algorithm", alg, "--audit",
                            "--json", str(W / f"{name}.{alg}.report.json"),
                            "--emit-derivation", str(W / f"{name}.{alg}.derivations.json")],
                           VERIFY_EXIT[(name, alg)], None))
        # the flagship differential: without --audit the baseline proves false
        verify.append((["verify", str(C / "proof_of_false.wnd"), "--algorithm", "fia"], 0, "VERIFIED"))
        check = [(["check-derivation", str(W / f"{n}.{a}.derivations.json")], 0, "ACCEPTED") for n, a in EMITS]
        check.append((["check-derivation", str(C / "derivations" / "two_footprints_half_xb.json")], 0,
                       "footprint {x.b @ 1/2 = false}"))
        oracle = [(["oracle", query, "--universe", str(C / f"{u}.universe"), *args], code, text)
                  for query, u, args, code, text in ORACLE_CALLS]
        laws = [(["laws", str(C / f"{n}.universe")], 0, "9 axioms checked") for n in UNIVERSES]
        out = []
        for group in (verify, check, oracle, laws):
            self.rng.shuffle(group)
            out += group
        return out

    def _op(self, argv, code, text):
        main = self.wp.cli.main

        def call(tr):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                with tr.span("cli.main", command=argv[0]):
                    rc = main(argv)
            return rc, buf.getvalue()

        def judge(result):
            rc, out = result
            return rc == code and (text is None or text in out)

        return Op(f"{argv[0]}{'/' + argv[1] if argv[0] == 'oracle' else ''}", lambda first: call, judge)

    def post_check(self, tr) -> int:
        return 0

    def _packages(self):
        """Replay inputs from the first round's emitted derivations: each
        document names its universe, store, wand and starting outer state;
        the script comes from the package statement in the program."""
        Ser, L = self.wp.serialization, self.wp.assertions
        for name, alg in EMITS:
            docs = json.loads((self.work / f"{name}.{alg}.derivations.json").read_text())
            report = json.loads((self.work / f"{name}.{alg}.report.json").read_text())
            reported = {_canon(fp) for m in report["methods"] for p in m["packages"] for fp in p["footprints"]}
            scripts = {L.format_assertion(s.wand): s.script for s in self._package_stmts(name)}
            for doc in docs:
                u, store, wand, conf, _ = Ser.derivation_doc_parse(doc)
                yield name, u, store, wand, scripts[doc["wand"]], conf.context.outer, reported

    def replay(self, tr) -> int:
        Ser = self.wp.serialization
        mismatches = 0
        for i, (name, u, store, wand, script, outer, reported) in enumerate(self._packages()):
            tr.op_id = f"replay:{name}:{i}"
            equal, fp = tracing.replay_package(self.wp, tr, u, wand, script, store, outer)
            mismatches += not equal or fp is None or _canon(Ser.state_to_json(fp)) not in reported
        for name, u in self.parsed_universes.items():
            tr.op_id = f"laws:{name}"
            with tr.span("algebra.check_axioms"):
                self.wp.algebra.check_axioms(u)
        return mismatches

    def universes(self):
        return list(self.parsed_universes.values())

    def _package_stmts(self, name):
        return [s for m in self.parsed_programs[name].methods for s in m.body
                if isinstance(s, self.wp.program.Package)]

    def assertions(self):
        out = []
        for name in PROGRAMS:
            u = self.parsed_universes[self.parsed_programs[name].universe_ref.removesuffix(".universe")]
            for s in self._package_stmts(name):
                out += [(u, s.wand.lhs), (u, s.wand.rhs)]
        return out


# -- coverage pass of the traced run ---------------------------------------------------

def cover(wp, tr, corpus: Path, seed: int) -> tuple[list, int]:
    """Time once, on small fixed inputs, each layer call that the workload's
    operations and replay never made, so that every per-layer time is
    measured in every workload: the corpus-cli oracle and laws queries
    through the API, and the fia programs of package-scaling for
    `verifier.run` and `package_fia`.  Returns the span names timed here
    and the number of calls that raised or gave a wrong answer."""
    O, P, C = wp.oracle, wp.parser, wp.cli
    universes = {n: P.parse_universe_text((corpus / f"{n}.universe").read_text()) for n in ("mixed", "pointers")}
    plans = {n: O.plan(u) for n, u in universes.items()}
    stores = {n: C.identity_store(u) for n, u in universes.items()}
    ptr = P.parse_assertion_text(PTR_WAND)
    half = P.parse_assertion_text("acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))")
    fia = {}
    for spec in inputs.scaling_programs(seed):
        if spec.algorithm == "fia" and spec.template == "disjunctive":
            fia.setdefault(spec.nlocs, spec)

    def verify(spec):
        u = P.parse_universe_text(spec.universe)
        p = P.parse_program_text(spec.program)
        with tr.span("verifier.run", n=spec.nlocs):
            return wp.verifier.run(p.__class__(p.universe_ref, p.methods, u), "fia").verified

    def package_fia():
        spec = fia[3]
        u = P.parse_universe_text(spec.universe)
        with tr.span("algorithms.package_fia"):
            return wp.algorithms.package_fia(_outers(wp, spec)[0], P.parse_assertion_text(spec.wand), (), STORE, u).success

    def cli_main():
        argv = ["oracle", "combinable", "--universe", str(corpus / "mixed.universe"),
                "--assertion", "acc(x.f, 1/2) --*c acc(x.g)"]
        with contextlib.redirect_stdout(io.StringIO()), tr.span("cli.main", command="oracle"):
            return wp.cli.main(argv) == 0

    def span(name, fn):
        def timed():
            with tr.span(name):
                return fn()
        return timed

    # span name, attributes, call, expected result (hand-written)
    calls = [
        ("oracle.is_footprint", {}, span("oracle.is_footprint", lambda: O.is_footprint(
            P.parse_state_text("{y.g @ 1 = 0, z.g @ 1 = 0}"), ptr, O.STANDARD, plans["pointers"], stores["pointers"])), True),
        ("oracle.is_binary", {}, span("oracle.is_binary", lambda: O.is_binary(
            ptr.lhs, plans["pointers"], stores["pointers"])), True),
        ("oracle.check_combinable", {}, span("oracle.check_combinable", lambda: O.check_combinable(
            P.parse_assertion_text("acc(x.f, 1/2) --*c acc(x.g)"), plans["mixed"], stores["mixed"])[0]), True),
        ("oracle.check_entailment", {}, span("oracle.check_entailment", lambda: O.check_entailment(
            P.parse_assertion_text(ORACLE_CALLS[3][2][1]), P.parse_assertion_text(ORACLE_CALLS[3][2][3]),
            plans["pointers"], stores["pointers"])), True),
        ("oracle.minimal_footprints", {}, span("oracle.minimal_footprints", lambda: len(O.minimal_footprints(
            half, O.STANDARD, plans["mixed"], stores["mixed"], compatible_with_lhs=True)) > 0), True),
        ("algebra.check_axioms", {}, span("algebra.check_axioms", lambda: all(r.passed for r in wp.algebra.check_axioms(universes["mixed"]))), True),
        ("cli.main", {}, cli_main, True),
        ("algorithms.package_fia", {}, package_fia, True),
    ] + [("verifier.run", {"n": n}, lambda spec=spec: verify(spec), True) for n, spec in sorted(fia.items())]
    covered, bad = [], 0
    for name, attrs, call, want in calls:
        if tr.calls(name, **attrs):
            continue
        tr.op_id = f"cover:{name}"
        try:
            bad += call() != want
        except Exception:
            bad += 1
        covered.append(name + "".join(f".{k}{v}" for k, v in attrs.items()))
    return covered, bad


WORKLOADS = {"package-scaling": PackageScaling, "theorem-sweep": TheoremSweep, "corpus-cli": CorpusCli}
