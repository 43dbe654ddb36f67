"""Command-line front end.

Subcommands:
  verify            verify a program file under fia / sound / combinable
  check-derivation  rebuild a package from its derivation document and re-check it
  oracle            brute-force queries: footprint / combinable / entail / minimal
  laws              run the separation-algebra law suite on a universe

Exit codes: 0 verified/accepted/true, 1 rejected/false, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import algebra, oracle
from .algorithms import COMBINABLE, FIA, SOUND, recheck_package
from .assertions import AssertionError_, Wand, format_assertion, typecheck
from .exprs import ExprError
from .package_logic import CheckFailure
from .parser import (
    ParseError,
    parse_assertion_text,
    parse_program_text,
    parse_state_text,
    parse_universe_text,
)
from .serialization import (
    SerializationError,
    derivation_doc_read,
    dumps_canonical,
    state_to_text,
)
from .states import BudgetExceeded, StateError, is_stable, validate
from .universe import REF, Universe, UniverseError
from .verifier import ProgramError, run


class CliError(Exception):
    pass


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: {e}")


def load_universe(path: str) -> Universe:
    return parse_universe_text(_read(path))


def load_program(path: str):
    p = parse_program_text(_read(path))
    if not p.universe_ref:
        raise CliError(f"{path}: program declares no universe")
    u = parse_universe_text(_read(Path(path).parent / p.universe_ref))
    return p.__class__(p.universe_ref, p.methods, u)


def identity_store(u: Universe) -> dict:
    """Universe-level assertions may name references directly as variables."""
    return {r: r for r in u.refs}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="wandpack",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify a program file")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument("file")
    pv.add_argument("--algorithm", choices=[FIA, SOUND, COMBINABLE], default=SOUND)
    pv.add_argument("--emit-derivation", metavar="PATH")
    pv.add_argument("--json", metavar="PATH")
    pv.add_argument("--audit", action="store_true", help="re-check every packaged footprint with the oracle")

    pc = sub.add_parser("check-derivation", help="re-check a derivation document")
    pc.set_defaults(run=_cmd_check_derivation)
    pc.add_argument("file")

    po = sub.add_parser("oracle", help="brute-force semantic queries")
    po.set_defaults(run=_cmd_oracle)
    osub = po.add_subparsers(dest="query", required=True)
    of = osub.add_parser("footprint", help="is a state a footprint of a wand")
    of.add_argument("--universe", required=True)
    of.add_argument("--wand", required=True)
    of.add_argument("--state", required=True)
    of.add_argument("--kind", choices=[oracle.STANDARD, oracle.COMBINABLE])
    oc = osub.add_parser("combinable", help="is an assertion combinable")
    oc.add_argument("--universe", required=True)
    oc.add_argument("--assertion", required=True)
    oe = osub.add_parser("entail", help="does one assertion entail another")
    oe.add_argument("--universe", required=True)
    oe.add_argument("--lhs", required=True)
    oe.add_argument("--rhs", required=True)
    om = osub.add_parser("minimal", help="minimal footprints of a wand")
    om.add_argument("--universe", required=True)
    om.add_argument("--wand", required=True)
    om.add_argument("--kind", choices=[oracle.STANDARD, oracle.COMBINABLE])
    om.add_argument("--compatible-only", action="store_true")

    pl = sub.add_parser("laws", help="run the algebra law suite on a universe")
    pl.set_defaults(run=_cmd_laws)
    pl.add_argument("file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, UniverseError, CliError, ProgramError, BudgetExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _cmd_verify(args) -> int:
    program = load_program(args.file)
    started = time.monotonic()
    report = run(program, args.algorithm, audit=args.audit)
    elapsed = time.monotonic() - started
    doc = report.to_json()
    if args.json:
        Path(args.json).write_text(dumps_canonical(doc))
    if args.emit_derivation:
        derivs = [p["derivation"] for m in doc["methods"] for p in m["packages"] if p["derivation"]]
        Path(args.emit_derivation).write_text(dumps_canonical(derivs))
    for m in report.methods:
        for s in m.statements:
            mark = "ok" if s.status == "ok" else "ERROR"
            line = f"{m.name} {s.pos[0]}:{s.pos[1]} {s.kind}: {mark} ({s.worlds} worlds)"
            print(line)
            if s.error:
                print(f"  {s.error['message']}")
                if s.error.get("world"):
                    print(f"  in world: {s.error['world']['state']}")
    verdict = "VERIFIED" if report.verified else "REJECTED"
    print(f"{verdict} ({args.algorithm}, {elapsed:.2f}s)")
    if args.audit:
        print(f"audit violations: {report.audit_violations}")
    return 0 if report.verified else 1


def _cmd_check_derivation(args) -> int:
    try:
        payload = json.loads(_read(args.file))
    except ValueError as e:
        raise CliError(f"{args.file}: not JSON: {e}")
    docs = payload if isinstance(payload, list) else [payload]
    if not docs:
        print("no derivations")
    for i, doc in enumerate(docs):
        try:
            u, store, _, conf, deriv, script = derivation_doc_read(doc)
        except (SerializationError, ParseError, KeyError, TypeError, ValueError, AttributeError) as e:
            what = f"missing field {e}" if isinstance(e, KeyError) else str(e)
            raise CliError(f"{args.file}: derivation {i}: malformed document: {what}")
        try:
            fp = recheck_package(conf, script, deriv, u, store)
        except CheckFailure as e:
            print(f"derivation {i}: REJECTED: {e}")
            return 1
        print(f"derivation {i}: ACCEPTED, footprint {state_to_text(fp)}")
    return 0


def _cmd_oracle(args) -> int:
    u = load_universe(args.universe)
    store = identity_store(u)
    p = oracle.plan(u)
    if args.query in ("footprint", "minimal"):
        wand = _assertion(args, "wand", u)
        kind = args.kind or (oracle.COMBINABLE if wand.combinable else oracle.STANDARD)
    if args.query == "footprint":
        sigma = _footprint_state(args.state, u)
        ok = oracle.is_footprint(sigma, wand, kind, p, store)
        print("footprint" if ok else "not a footprint")
        return 0 if ok else 1
    if args.query == "combinable":
        a = _assertion(args, "assertion", u)
        ok, cex = oracle.check_combinable(a, p, store)
        if ok:
            print("combinable")
            return 0
        fp, fq, s = cex
        print(f"not combinable: p={fp}, q={fq}, state {state_to_text(s)}")
        return 1
    if args.query == "entail":
        a, b = _assertion(args, "lhs", u), _assertion(args, "rhs", u)
        ok = oracle.check_entailment(a, b, p, store)
        print("entails" if ok else "does not entail")
        return 0 if ok else 1
    if args.query == "minimal":
        fps = oracle.minimal_footprints(wand, kind, p, store, compatible_with_lhs=args.compatible_only)
        for s in fps:
            print(state_to_text(s))
        return 0 if fps else 1
    raise CliError(f"unknown oracle query {args.query!r}")


def _footprint_state(text: str, u: Universe):
    """A footprint candidate: a stable state over the universe."""
    try:
        sigma = parse_state_text(text)
        validate(sigma, u)
    except (ParseError, StateError) as e:
        raise CliError(f"--state: {e}")
    if not is_stable(sigma):
        raise CliError(f"--state: {state_to_text(sigma)} is not stable: it holds a value without permission")
    return sigma


def _assertion(args, name: str, u: Universe):
    """The assertion option ``--name`` gives, a wand for ``--wand``, typed
    over the universe with its references as variables, as a wand
    instance's text is typed by ``states.validate``."""
    try:
        a = parse_assertion_text(getattr(args, name))
    except ParseError as e:
        raise CliError(f"--{name}: {e}")
    if name == "wand" and not isinstance(a, Wand):
        raise CliError(f"--{name}: not a wand: {format_assertion(a)}")
    try:
        typecheck(a, u, dict.fromkeys(u.refs, REF))
    except (AssertionError_, ExprError, UniverseError) as e:
        raise CliError(f"--{name}: {e}")
    return a


def _cmd_laws(args) -> int:
    u = load_universe(args.file)
    started = time.monotonic()
    reports = algebra.check_axioms(u)
    elapsed = time.monotonic() - started
    for r in reports:
        mark = "pass" if r.passed else "FAIL"
        line = f"{r.axiom}: {mark}"
        if not r.passed:
            states = "; ".join(state_to_text(s) for s in r.counterexample or ())
            line += f" ({r.detail}; counterexample: {states})"
        print(line)
    print(f"{len(reports)} axioms checked in {elapsed:.2f}s")
    return 0 if algebra.all_pass(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
