"""Acceptance suite: one test per criterion, one printed verdict line each.

The randomized sweeps are seeded and deterministic; every tolerance is
stated inline (zero tolerance unless a criterion says otherwise).
"""

import json
import random
import time
from fractions import Fraction

import wandpack.oracle as orc
import wandpack.states as st
from wandpack.algebra import all_pass, check_axioms
from wandpack.algorithms import package_combinable, package_sound
from wandpack.assertions import Wand, format_assertion
from wandpack.cli import load_program, main
from wandpack.package_logic import build_canonical_derivation, check_derivation
from wandpack.parser import (
    parse_assertion_text as A,
    parse_state_text as S,
    parse_universe_text,
)
from wandpack.serialization import dumps_canonical
from wandpack.verifier import run

import gen
from conftest import CORPUS

HALF = Fraction(1, 2)


def _verdict(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


# -- 1: algebra laws --------------------------------------------------------------


def test_criterion_1_algebra_laws():
    u = parse_universe_text((CORPUS / "laws.universe").read_text())
    assert len(u.sorted_locations()) <= 4 and u.granularity == 2
    started = time.monotonic()
    reports = check_axioms(u)
    elapsed = time.monotonic() - started
    ok = all_pass(reports) and elapsed < 60.0
    _verdict("1 algebra-laws", ok, f"{len(reports)} axioms, {elapsed:.1f}s")


# -- 2: unsoundness reproduction ---------------------------------------------------


def test_criterion_2_unsoundness_reproduction():
    fia = main(["verify", str(CORPUS / "proof_of_false.wnd"), "--algorithm", "fia"])
    sound = main(["verify", str(CORPUS / "proof_of_false.wnd"), "--algorithm", "sound"])
    _verdict("2 unsoundness-repro", fia == 0 and sound == 1, f"exit codes fia={fia} sound={sound}")


# -- 3: the sound footprint, bit-identical ---------------------------------------------


def test_criterion_3_sound_footprint(tmp_path, u1, store1):
    rj = tmp_path / "report.json"
    dj = tmp_path / "derivs.json"
    main(
        ["verify", str(CORPUS / "proof_of_false.wnd"), "--algorithm", "sound",
         "--json", str(rj), "--emit-derivation", str(dj)]
    )
    report = json.loads(rj.read_text())
    fps = [
        json.dumps(fp, sort_keys=True, separators=(",", ":"))
        for m in report["methods"]
        for p in m["packages"]
        for fp in p["footprints"]
    ]
    expected = '{"heap":{"y.g":0,"z.g":0},"mask":{"y.g":"1","z.g":"1"}}'
    bit_identical = bool(fps) and all(fp == expected for fp in fps)

    wand = A("acc(x.f) * (x.f == y || x.f == z) --* acc(x.f) * acc(x.f.g)")
    target = S("{y.g @ 1 = 0, z.g @ 1 = 0}")
    oracle_ok = orc.is_footprint(target, wand, "standard", orc.plan(u1), store1)
    checker_ok = main(["check-derivation", str(dj)]) == 0
    _verdict(
        "3 sound-footprint",
        bit_identical and oracle_ok and checker_ok,
        f"{len(fps)} dumps, oracle={oracle_ok}, checker={checker_ok}",
    )


# -- 4: soundness audit over randomized cases ---------------------------------------------


def test_criterion_4_soundness_audit():
    rng = random.Random(20260808)
    started = time.monotonic()
    cases = 0
    successes = 0
    violations = []
    while cases < 500:
        u = gen.random_universe(rng, with_predicate=cases % 3 == 2)
        store = gen.identity_store(u)
        combinable = cases % 2 == 1
        wand = gen.random_wand(rng, u, combinable=combinable)
        outer = gen.random_outer(rng, u)
        packager = package_combinable if combinable else package_sound
        cases += 1
        out = packager(outer, wand, (), store, u)
        if not out.success:
            continue
        successes += 1
        kind = orc.COMBINABLE if combinable else orc.STANDARD
        if not orc.is_footprint(out.footprint, wand, kind, orc.plan(u), store):
            violations.append((format_assertion(wand), str(outer), str(out.footprint)))
    elapsed = time.monotonic() - started
    ok = cases >= 500 and successes > 50 and not violations and elapsed < 600.0
    _verdict(
        "4 theorem-1-audit",
        ok,
        f"{cases} cases, {successes} packages, {len(violations)} violations, {elapsed:.1f}s",
    )


# -- 5: completeness probe -------------------------------------------------------------------


def test_criterion_5_completeness_probe():
    rng = random.Random(20260809)
    wands = 0
    realized = 0
    failures = []
    while wands < 100:
        u = gen.random_universe(rng, with_predicate=wands % 4 == 3)
        store = gen.identity_store(u)
        wand = gen.random_wand(rng, u)
        wands += 1
        plan = orc.plan(u)
        for fp in orc.minimal_footprints(wand, orc.STANDARD, plan, store):
            try:
                conf, deriv = build_canonical_derivation(u, wand, fp, store)
                check_derivation(conf, deriv, u, store)
                realized += 1
            except Exception as e:  # any rejection is a criterion failure
                failures.append((format_assertion(wand), str(fp), str(e)))
    ok = wands >= 100 and realized > 100 and not failures
    _verdict(
        "5 theorem-2-probe",
        ok,
        f"{wands} wands, {realized} footprints realized, {len(failures)} failures",
    )


# -- 6: section-4 non-combinability set ---------------------------------------------------------


def test_criterion_6_non_combinability(u2, store2):
    plan = orc.plan(u2)
    w = A("acc(x.f, 1/2) --* acc(x.g)")
    wc = A("acc(x.f, 1/2) --*c acc(x.g)")
    sf, sg = S("{x.f @ 1 = 0}"), S("{x.g @ 1 = 0}")
    half_half = st.add(st.mult(HALF, sf), st.mult(HALF, sg))
    checks = {
        "sigma_f": orc.is_footprint(sf, w, "standard", plan, store2),
        "sigma_g": orc.is_footprint(sg, w, "standard", plan, store2),
        "half-half invalid": not orc.is_footprint(half_half, w, "standard", plan, store2),
        "sigma_f not Def.1": not orc.is_footprint(sf, wc, "combinable", plan, store2),
        "restricted wand combinable": orc.check_combinable(wc, plan, store2)[0],
    }
    _verdict("6 non-combinability", all(checks.values()), str(checks))


# -- 7: the subtler non-combinable wand ----------------------------------------------------------


def test_criterion_7_subtle_non_combinability(u1, store1):
    plan = orc.plan(u1)
    wprime = A("acc(x.f) * (x.f == y || x.f == z) * acc(x.f.g, 1/2) --* acc(y.g)")
    s1, s2 = S("{y.g @ 1 = 0}"), S("{y.g @ 1/2 = 0, z.g @ 1 = 0}")
    half_half = st.add(st.mult(HALF, s1), st.mult(HALF, s2))
    checks = {
        "acc(y.g) entails": orc.check_entailment(A("acc(y.g)"), wprime, plan, store1),
        "mixed entails": orc.check_entailment(A("acc(y.g, 1/2) * acc(z.g)"), wprime, plan, store1),
        "half-half invalid": not orc.is_footprint(half_half, wprime, "standard", plan, store1),
    }
    _verdict("7 subtle-non-combinability", all(checks.values()), str(checks))


# -- 8: combinable-wand theorem properties -------------------------------------------------------


def test_criterion_8_combinable_theorem():
    rng = random.Random(20260810)
    pairs = 0
    p1_checked = p3_checked = 0
    violations = []
    while pairs < 200:
        u = gen.random_universe(rng)
        store = gen.identity_store(u)
        binary_lhs = pairs % 3 == 0
        wand = gen.random_wand(rng, u, binary_lhs=binary_lhs)
        pairs += 1
        plan = orc.plan(u)
        wc = Wand(wand.lhs, wand.rhs, True)
        # property 2: the restricted wand entails the standard one
        if not orc.check_entailment(wc, wand, plan, store):
            violations.append(("property-2", format_assertion(wand)))
        # property 1: combinable RHS makes the restricted wand combinable
        if pairs % 4 == 0:
            rhs_comb, _ = orc.check_combinable(wand.rhs, plan, store)
            if rhs_comb:
                p1_checked += 1
                ok, cex = orc.check_combinable(wc, plan, store)
                if not ok:
                    violations.append(("property-1", format_assertion(wc), str(cex)))
        # property 3: binary LHS collapses the two readings
        if orc.is_binary(wand.lhs, plan, store):
            p3_checked += 1
            pool = orc.EnumerationPlan(u, stable_only=True).states()
            for cand in pool[:: max(1, len(pool) // 12)]:
                std = orc.is_footprint(cand, wand, orc.STANDARD, plan, store)
                com = orc.is_footprint(cand, wand, orc.COMBINABLE, plan, store)
                if std != com:
                    violations.append(("property-3", format_assertion(wand), str(cand)))
    ok = pairs >= 200 and p1_checked >= 10 and p3_checked >= 20 and not violations
    _verdict(
        "8 combinable-theorem",
        ok,
        f"{pairs} pairs, p1 checked {p1_checked}, p3 checked {p3_checked}, "
        f"{len(violations)} violations",
    )


# -- 9: footprint plurality ------------------------------------------------------------------------


def test_criterion_9_footprint_plurality(u2, store2):
    wand = A("acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))")
    plan = orc.plan(u2)
    fps = orc.minimal_footprints(wand, "standard", plan, store2, compatible_with_lhs=True)
    has_both = S("{x.f @ 1 = 0}") in fps and S("{x.b @ 1/2 = false}") in fps
    out = package_sound(S("{x.b @ 1 = false, x.f @ 1 = 0}"), wand, (), store2, u2)
    alg_picks_one = out.success and out.footprint in fps
    shipped = main(["check-derivation", str(CORPUS / "derivations" / "two_footprints_half_xb.json")]) == 0
    _verdict(
        "9 footprint-plurality",
        has_both and alg_picks_one and shipped,
        f"minimal={len(fps)}, algorithm={out.footprint}, shipped accepted={shipped}",
    )


# -- 10: determinism ---------------------------------------------------------------------------------


GOLDEN = (
    ("proof_of_false.wnd", "fia"),
    ("proof_of_false.wnd", "sound"),
    ("two_footprints.wnd", "sound"),
    ("preds.wnd", "sound"),
    ("combinable.wnd", "combinable"),
    ("basic.wnd", "sound"),
)


def test_criterion_10_determinism():
    mismatches = []
    for name, alg in GOLDEN:
        p = load_program(str(CORPUS / name))
        docs = [dumps_canonical(run(p, alg, audit=True).to_json()) for _ in range(3)]
        if not (docs[0] == docs[1] == docs[2]):
            mismatches.append(name)
    _verdict("10 determinism", not mismatches, f"{len(GOLDEN)} corpus runs x 3")
