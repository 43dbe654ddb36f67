"""Enumeration-based statement verifier over sets of worlds.

A world is a (store, state) pair.  Statements transform the world set:
inhale adds a demand (forking per demand choice and per fresh heap value),
exhale subtracts the leftmost covered demand, assert only checks, package
delegates to the selected algorithm, and apply trades a recorded wand
instance plus its left-hand side for the right-hand side, discarding
worlds the exchange makes inconsistent.  An empty world set verifies
everything — the path is unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import oracle as orc
from . import states as st
from .algorithms import COMBINABLE, FIA, PACKAGERS, SOUND, PackageOutcome
from .assertions import (
    Assertion,
    Wand,
    AssertionError_,
    atoms,
    close_assertion,
    demands,
    format_assertion,
    typecheck,
    wand_key,
    wf,
)
from .exprs import ExprError, Store, Unframed, eval_bool, eval_expr, format_expr, infer_type
from .program import (
    Apply,
    AssertStmt,
    Assign,
    Exhale,
    HeapWrite,
    If,
    Inhale,
    Method,
    Package,
    Program,
    Stmt,
    VarDecl,
)
from .serialization import derivation_doc, state_to_json, state_to_text
from .states import EMPTY, State, state_key
from .universe import BOOL, NULL, REF, FieldLoc, Universe, value_key

ALGORITHMS = (FIA, SOUND, COMBINABLE)


class ProgramError(Exception):
    """Static (type/shape) problem in a program, with a position."""

    def __init__(self, message: str, pos=(0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.message = message
        self.pos = pos


@dataclass(frozen=True)
class World:
    store_items: tuple[tuple[str, object], ...]
    state: State

    @staticmethod
    def make(store: Store, state: State) -> "World":
        return World(tuple(sorted(store.items())), state)

    def store(self) -> dict:
        return dict(self.store_items)

    def key(self) -> tuple:
        return (
            tuple((k, value_key(v)) for k, v in self.store_items),
            state_key(self.state),
        )

    def describe(self) -> str:
        binds = ", ".join(f"{k}={v}" for k, v in self.store_items)
        return f"[{binds}] {self.state}"


class VerificationError(Exception):
    def __init__(self, message: str, world: Optional[World], pos):
        self.message = message
        self.world = world
        self.pos = pos
        where = f"{pos[0]}:{pos[1]}: " if pos else ""
        suffix = f" (world {world.describe()})" if world is not None else ""
        super().__init__(f"{where}{message}{suffix}")


@dataclass
class PackageRecord:
    pos: tuple
    algorithm: str
    wand: str
    footprints: list[dict]
    derivation: Optional[dict] = None
    audit: Optional[list[dict]] = None


@dataclass
class StmtReport:
    pos: tuple
    kind: str
    status: str  # "ok" | "error"
    worlds: int
    error: Optional[dict] = None


@dataclass
class MethodReport:
    name: str
    verified: bool
    statements: list[StmtReport] = field(default_factory=list)
    packages: list[PackageRecord] = field(default_factory=list)


@dataclass
class Report:
    algorithm: str
    verified: bool
    methods: list[MethodReport] = field(default_factory=list)
    audit_violations: int = 0
    elapsed_seconds: float = 0.0  # human summary only, never serialized

    def to_json(self) -> dict:
        return {
            "format": "wandpack-report-1",
            "algorithm": self.algorithm,
            "verified": self.verified,
            "audit_violations": self.audit_violations,
            "methods": [
                {
                    "name": m.name,
                    "verified": m.verified,
                    "statements": [
                        {
                            "pos": list(s.pos),
                            "kind": s.kind,
                            "status": s.status,
                            "worlds": s.worlds,
                            "error": s.error,
                        }
                        for s in m.statements
                    ],
                    "packages": [
                        {
                            "pos": list(p.pos),
                            "algorithm": p.algorithm,
                            "wand": p.wand,
                            "footprints": p.footprints,
                            "derivation": p.derivation,
                            "audit": p.audit,
                        }
                        for p in m.packages
                    ],
                }
                for m in self.methods
            ],
        }


# -- static checks ------------------------------------------------------------------


def typecheck_program(p: Program) -> None:
    u: Universe = p.universe
    if u is None:
        raise ProgramError("program has no resolved universe")
    for m in p.methods:
        var_types = {}
        for prm in m.params:
            if prm in var_types:
                raise ProgramError(f"duplicate parameter {prm}", m.pos)
            var_types[prm] = REF
        if m.requires is not None:
            _check_assertion(m.requires, u, var_types, m.pos)
        _check_stmts(m.body, u, dict(var_types))


def _check_assertion(a: Assertion, u, var_types, pos) -> None:
    try:
        typecheck(a, u, var_types)
    except (AssertionError_, ExprError) as e:
        raise ProgramError(str(e), pos)
    # statement-level assertions may read whatever the world frames (an
    # unframed read is a verification error, not a type error), but every
    # wand must be self-framing for the package machinery to be sound
    for w in atoms(a):
        if isinstance(w, Wand) and not wf(w):
            raise ProgramError(f"wand is not self-framing: {format_assertion(w)}", pos)


def _check_expr(e, u, var_types, pos, want=None) -> str:
    try:
        t = infer_type(e, u, var_types)
    except ExprError as err:
        raise ProgramError(str(err), pos)
    if want is not None and t != want:
        raise ProgramError(f"expected {want}, got {t}: {format_expr(e)}", pos)
    return t


def _check_stmts(stmts: Sequence[Stmt], u, var_types: dict) -> None:
    for s in stmts:
        if isinstance(s, (Inhale, Exhale, AssertStmt)):
            _check_assertion(s.assertion, u, var_types, s.pos)
        elif isinstance(s, VarDecl):
            if s.name in var_types:
                raise ProgramError(f"variable {s.name} already declared", s.pos)
            t = _check_expr(s.init, u, var_types, s.pos)
            if t != s.type:
                raise ProgramError(f"initializer has type {t}, variable is {s.type}", s.pos)
            var_types[s.name] = s.type
        elif isinstance(s, Assign):
            if s.name not in var_types:
                raise ProgramError(f"assignment to undeclared variable {s.name}", s.pos)
            _check_expr(s.expr, u, var_types, s.pos, want=var_types[s.name])
        elif isinstance(s, HeapWrite):
            _check_expr(s.base, u, var_types, s.pos, want=REF)
            ft = u.field_type(s.field)
            if ft is None:
                raise ProgramError(f"unknown field {s.field}", s.pos)
            _check_expr(s.expr, u, var_types, s.pos, want=ft)
        elif isinstance(s, If):
            _check_expr(s.cond, u, var_types, s.pos, want=BOOL)
            _check_stmts(s.then, u, dict(var_types))
            _check_stmts(s.els, u, dict(var_types))
        elif isinstance(s, (Package, Apply)):
            _check_assertion(s.wand, u, var_types, s.pos)
            if isinstance(s, Package):
                _check_script(s.script, u, var_types)
        else:
            raise ProgramError(f"unknown statement {s!r}")


def _check_script(script, u, var_types) -> None:
    from .program import SApply, SAssert, SFold, SIf, SUnfold

    for s in script:
        if isinstance(s, SAssert):
            try:
                typecheck(s.assertion, u, var_types)
            except (AssertionError_, ExprError) as e:
                raise ProgramError(str(e), s.pos)
        elif isinstance(s, (SFold, SUnfold)):
            try:
                d = u.predicate(s.name)
            except Exception as e:
                raise ProgramError(str(e), s.pos)
            if len(d.params) != len(s.args):
                raise ProgramError(f"{s.name} expects {len(d.params)} arguments", s.pos)
            for x in s.args:
                _check_expr(x, u, var_types, s.pos, want=REF)
        elif isinstance(s, SApply):
            try:
                typecheck(s.wand, u, var_types)
            except (AssertionError_, ExprError) as e:
                raise ProgramError(str(e), s.pos)
        elif isinstance(s, SIf):
            _check_expr(s.cond, u, var_types, s.pos, want=BOOL)
            _check_script(s.then, u, var_types)
            _check_script(s.els, u, var_types)


# -- execution ----------------------------------------------------------------------


def _merge(world_lists) -> list[World]:
    seen = {}
    for ws in world_lists:
        for w in ws:
            seen[w.key()] = w
    return [seen[k] for k in sorted(seen)]


def run(
    program: Program,
    algorithm: str,
    audit: bool = False,
) -> Report:
    """Verify every method of the program under the chosen package algorithm."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    typecheck_program(program)
    u: Universe = program.universe
    report = Report(algorithm=algorithm, verified=True)
    for m in program.methods:
        mreport = MethodReport(name=m.name, verified=True)
        report.methods.append(mreport)
        try:
            worlds = _initial_worlds(m, u)
        except VerificationError as e:
            mreport.verified = False
            report.verified = False
            mreport.statements.append(
                StmtReport(m.pos, "requires", "error", 0, _error_json(e))
            )
            continue
        env = _Env(u, algorithm, audit, mreport)
        for stmt in m.body:
            kind = type(stmt).__name__.lower()
            try:
                worlds = _exec_stmt(stmt, worlds, env)
            except VerificationError as e:
                mreport.statements.append(StmtReport(stmt.pos, kind, "error", len(worlds), _error_json(e)))
                mreport.verified = False
                report.verified = False
                break
            mreport.statements.append(StmtReport(stmt.pos, kind, "ok", len(worlds)))
        report.audit_violations += sum(
            sum(1 for a in (p.audit or []) if not a["valid"]) for p in mreport.packages
        )
    if report.audit_violations:
        report.verified = False
    return report


def _error_json(e: VerificationError) -> dict:
    return {
        "message": e.message,
        "world": None if e.world is None else {
            "store": {k: v for k, v in e.world.store_items},
            "state": state_to_text(e.world.state),
        },
        "pos": list(e.pos) if e.pos else None,
    }


@dataclass
class _Env:
    u: Universe
    algorithm: str
    audit: bool
    mreport: MethodReport


def _initial_worlds(m: Method, u: Universe) -> list[World]:
    stores = [dict()]
    for prm in m.params:
        stores = [dict(s, **{prm: r}) for s in stores for r in u.ref_values()]
    worlds = [World.make(s, EMPTY) for s in stores]
    if m.requires is not None:
        worlds = _merge([_inhale(w, m.requires, u, m.pos) for w in worlds])
    return sorted(worlds, key=World.key)


def _world_demands(w: World, a: Assertion, u: Universe, pos, fresh: str = "fail") -> list[State]:
    try:
        return demands(u, a, w.state.heap_dict(), w.store(), mask=w.state.mask_dict(), fresh=fresh)
    except Unframed as e:
        raise VerificationError(f"unframed evaluation in {format_assertion(a)}: {e.description}", w, pos)


def _inhale(w: World, a: Assertion, u: Universe, pos) -> list[World]:
    out = []
    for d in _world_demands(w, a, u, pos, fresh="fork"):
        grown = st.add(w.state, d)
        if grown is not None:
            out.append(World(w.store_items, grown))
    return out


def _exec_stmt(stmt: Stmt, worlds: list[World], env: _Env) -> list[World]:
    u = env.u
    if isinstance(stmt, Inhale):
        return _merge([_inhale(w, stmt.assertion, u, stmt.pos) for w in worlds])
    if isinstance(stmt, AssertStmt):
        for w in worlds:
            ds = _world_demands(w, stmt.assertion, u, stmt.pos)
            if not any(st.geq(w.state, d) for d in ds):
                raise VerificationError(
                    f"assert failed: {format_assertion(stmt.assertion)}", w, stmt.pos
                )
        return worlds
    if isinstance(stmt, Exhale):
        out = []
        for w in worlds:
            ds = _world_demands(w, stmt.assertion, u, stmt.pos)
            chosen = next((d for d in ds if st.geq(w.state, d)), None)
            if chosen is None:
                raise VerificationError(
                    f"exhale failed: {format_assertion(stmt.assertion)}", w, stmt.pos
                )
            out.append(World(w.store_items, st.sub(w.state, chosen)))
        return _merge([out])
    if isinstance(stmt, VarDecl):
        return _merge([[_assign_var(w, stmt.name, stmt.init, u, stmt.pos)] for w in worlds])
    if isinstance(stmt, Assign):
        return _merge([[_assign_var(w, stmt.name, stmt.expr, u, stmt.pos)] for w in worlds])
    if isinstance(stmt, HeapWrite):
        return _merge([[_heap_write(w, stmt, u)] for w in worlds])
    if isinstance(stmt, If):
        then_worlds, else_worlds = [], []
        for w in worlds:
            try:
                cond = eval_bool(stmt.cond, w.state.heap_dict(), w.store(), w.state.mask_dict())
            except Unframed as e:
                raise VerificationError(f"unframed condition: {e.description}", w, stmt.pos)
            (then_worlds if cond else else_worlds).append(w)
        env_worlds = []
        sub_then = then_worlds
        for s in stmt.then:
            sub_then = _exec_stmt(s, sub_then, env)
        sub_else = else_worlds
        for s in stmt.els:
            sub_else = _exec_stmt(s, sub_else, env)
        return _merge([sub_then, sub_else])
    if isinstance(stmt, Package):
        results = [_package(w, stmt, env) for w in worlds]
        for _, record in results:
            env.mreport.packages.append(record)
        return _merge([ws for ws, _ in results])
    if isinstance(stmt, Apply):
        return _merge([_apply(w, stmt, env) for w in worlds])
    raise VerificationError(f"unknown statement {stmt!r}", None, getattr(stmt, "pos", (0, 0)))


def _assign_var(w: World, name: str, expr, u, pos) -> World:
    try:
        v = eval_expr(expr, w.state.heap_dict(), w.store(), w.state.mask_dict())
    except Unframed as e:
        raise VerificationError(f"unframed expression: {e.description}", w, pos)
    store = w.store()
    store[name] = v
    return World.make(store, w.state)


def _heap_write(w: World, stmt: HeapWrite, u: Universe) -> World:
    try:
        base = eval_expr(stmt.base, w.state.heap_dict(), w.store(), w.state.mask_dict())
        value = eval_expr(stmt.expr, w.state.heap_dict(), w.store(), w.state.mask_dict())
    except Unframed as e:
        raise VerificationError(f"unframed expression: {e.description}", w, stmt.pos)
    if not isinstance(base, str) or base == NULL:
        raise VerificationError("write through null or non-reference", w, stmt.pos)
    loc = FieldLoc(base, stmt.field)
    if not u.has_location(loc):
        raise VerificationError(f"write to undeclared location {loc}", w, stmt.pos)
    if w.state.mask_of(loc) != 1:
        raise VerificationError(f"write to {loc} requires full permission", w, stmt.pos)
    if value not in u.domain(loc):
        raise VerificationError(f"value {value!r} outside the domain of {loc}", w, stmt.pos)
    heap = w.state.heap_dict()
    heap[loc] = value
    return World(w.store_items, State.make(w.state.mask_dict(), heap))


def _package(w: World, stmt: Package, env: _Env) -> tuple[list[World], PackageRecord]:
    u = env.u
    store = w.store()
    packager = PACKAGERS[env.algorithm]
    outcome: PackageOutcome = packager(w.state, stmt.wand, stmt.script, store, u)
    if not outcome.success:
        raise VerificationError(f"package failed: {outcome.diagnostic}", w, stmt.pos)
    try:
        key = wand_key(stmt.wand, store)
    except AssertionError_ as e:
        raise VerificationError(str(e), w, stmt.pos)
    token = State.make({key: Fraction(1)}, {})
    record = PackageRecord(
        pos=stmt.pos,
        algorithm=env.algorithm,
        wand=key.key,
        footprints=[],
    )
    if env.algorithm == FIA:
        fps = [fp for _, fp in outcome.case_footprints]
        record.footprints = [state_to_json(fp) for _, fp in outcome.case_footprints]
    else:
        fps = [outcome.footprint]
        record.footprints = [state_to_json(outcome.footprint)]
        record.derivation = derivation_doc(u, store, stmt.wand, outcome.configuration, outcome.derivation)
    if env.audit:
        kind = COMBINABLE if stmt.wand.combinable else orc.STANDARD
        plan = orc.plan(u)
        closed = close_assertion(stmt.wand, store)
        record.audit = [
            {
                "footprint": state_to_json(fp),
                "valid": orc.audit_footprint(fp, closed, kind, plan, {}),
            }
            for fp in fps
        ]
    out = []
    for post in outcome.post_states:
        grown = st.add(post, token)
        if grown is not None:
            out.append(World(w.store_items, grown))
    return out, record


def _apply(w: World, stmt: Apply, env: _Env) -> list[World]:
    u = env.u
    store = w.store()
    try:
        key = wand_key(stmt.wand, store)
    except AssertionError_ as e:
        raise VerificationError(str(e), w, stmt.pos)
    token = State.make({key: Fraction(1)}, {})
    if not st.geq(w.state, token):
        raise VerificationError(
            f"apply failed: no recorded instance of {format_assertion(stmt.wand)}", w, stmt.pos
        )
    ds = _world_demands(w, stmt.wand.lhs, u, stmt.pos)
    chosen = next((d for d in ds if st.geq(w.state, d)), None)
    if chosen is None:
        raise VerificationError(
            f"apply failed: left-hand side of {format_assertion(stmt.wand)} does not hold",
            w,
            stmt.pos,
        )
    base = st.sub(st.sub(w.state, token), chosen)
    out = []
    shrunk = World(w.store_items, base)
    for d in _world_demands(shrunk, stmt.wand.rhs, u, stmt.pos, fresh="fork"):
        grown = st.add(base, d)
        if grown is not None:  # incompatible additions are inconsistent worlds
            out.append(World(w.store_items, grown))
    return out
