"""Enumeration-based statement verifier over sets of worlds.

A world is a (store, state) pair.  Statements transform the world set:
inhale adds a demand (forking per demand choice and per fresh heap value),
exhale subtracts the leftmost covered demand, assert only checks, package
delegates to the selected algorithm, and apply trades a recorded wand
instance plus its left-hand side for the right-hand side, discarding
worlds the exchange makes inconsistent.  An empty world set verifies
everything — the path is unreachable.

A package runs once per class of worlds that agree on what it reads: the
store, the mask, and the heap values of the fields the wand and its proof
script read.  Each world takes its class's footprints and derivation tree
with its own values at the unread locations, and its post-states from its
own state: the state less each footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import oracle as orc
from . import states as st
from .algorithms import COMBINABLE, FIA, PACKAGERS, SOUND, PackageOutcome
from .assertions import (
    Acc,
    Assertion,
    Imp,
    OrA,
    Star,
    Wand,
    AssertionError_,
    PredA,
    atoms,
    close_assertion,
    demands,
    format_assertion,
    grow,
    reach,
    typecheck,
    wand_key,
    wf,
)
from .exprs import ExprError, Store, Unframed, children, eval_bool, eval_expr, format_expr, infer_type
from .package_logic import Derivation
from .program import (
    Apply,
    AssertStmt,
    Assign,
    Exhale,
    Fold,
    HeapWrite,
    If,
    Inhale,
    Method,
    Package,
    Program,
    Stmt,
    Unfold,
    VarDecl,
)
from .serialization import derivation_doc, state_to_json, state_to_text
from .states import EMPTY, State
from .universe import BOOL, NULL, REF, FieldLoc, Universe, UniverseError, WandInst

ALGORITHMS = (FIA, SOUND, COMBINABLE)


class ProgramError(Exception):
    """Static (type/shape) problem in a program, with a position."""

    def __init__(self, message: str, pos=(0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.message = message
        self.pos = pos


class World(NamedTuple):
    """A store, as sorted (variable, value) entries, and a state.  Worlds
    sort as tuples: a variable's values share one type, as a location's do."""

    store_items: tuple[tuple[str, object], ...]
    state: State

    @staticmethod
    def make(store: Store, state: State) -> "World":
        return World(tuple(sorted(store.items())), state)

    def store(self) -> dict:
        return dict(self.store_items)

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

    def to_json(self) -> dict:
        return {"format": "wandpack-report-1", **_plain(self)}


def _plain(x):
    """Dataclasses as dicts and lists, sharing the JSON values the records
    already hold (``dataclasses.asdict`` would deep-copy each of them)."""
    if isinstance(x, list):
        return [_plain(v) for v in x]
    return {k: _plain(v) for k, v in vars(x).items()} if is_dataclass(x) else x


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
        check_stmts(m.body, u, dict(var_types))


def _check_assertion(a: Assertion, u, var_types, pos) -> None:
    try:
        typecheck(a, u, var_types)
    except (AssertionError_, ExprError, UniverseError) as e:
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


def check_stmts(stmts: Sequence[Stmt], u, var_types: dict) -> None:
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
            check_stmts(s.then, u, dict(var_types))
            check_stmts(s.els, u, dict(var_types))
        elif isinstance(s, (Package, Apply)):
            _check_assertion(s.wand, u, var_types, s.pos)
            if isinstance(s, Package):
                check_stmts(s.script, u, var_types)
        elif isinstance(s, (Fold, Unfold)):
            try:
                d = u.predicate(s.name)
            except UniverseError as e:
                raise ProgramError(str(e), s.pos)
            if len(d.params) != len(s.args):
                raise ProgramError(f"{s.name} expects {len(d.params)} arguments", s.pos)
            for x in s.args:
                _check_expr(x, u, var_types, s.pos, want=REF)
        else:
            raise ProgramError(f"unknown statement {s!r}")


# -- execution ----------------------------------------------------------------------


def _merge(world_lists) -> list[World]:
    return sorted({w for ws in world_lists for w in ws})


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
    return sorted(worlds)


def _inhale(w: World, a: Assertion, u: Universe, pos) -> list[World]:
    try:
        grown = grow(u, a, w.state, w.store(), w.state.mask_dict())
    except Unframed as e:
        raise VerificationError(f"unframed evaluation in {format_assertion(a)}: {e.description}", w, pos)
    return [World(w.store_items, s) for s in grown]


def _covered(w: World, a: Assertion, u: Universe, pos, failure: Callable[[], str]) -> State:
    """The first demand of ``a`` that ``w``'s state covers, or the
    statement's failure, ``failure()``, when it covers none."""
    try:
        ds = demands(u, a, w.state.heap_dict(), w.store(), w.state.mask_dict())
    except Unframed as e:
        raise VerificationError(f"unframed evaluation in {format_assertion(a)}: {e.description}", w, pos)
    chosen = next((d for d in ds if st.geq(w.state, d)), None)
    if chosen is None:
        raise VerificationError(failure(), w, pos)
    return chosen


def _exec_block(stmts: Sequence[Stmt], worlds: list[World], env: _Env) -> list[World]:
    for stmt in stmts:
        worlds = _exec_stmt(stmt, worlds, env)
    return worlds


def _exec_stmt(stmt: Stmt, worlds: list[World], env: _Env) -> list[World]:
    u = env.u
    if isinstance(stmt, Inhale):
        return _merge([_inhale(w, stmt.assertion, u, stmt.pos) for w in worlds])
    if isinstance(stmt, (AssertStmt, Exhale)):
        a = stmt.assertion
        what = "assert" if isinstance(stmt, AssertStmt) else "exhale"
        taken = [_covered(w, a, u, stmt.pos, lambda: f"{what} failed: {format_assertion(a)}") for w in worlds]
        if isinstance(stmt, AssertStmt):
            return worlds
        return _merge([[World(w.store_items, st.sub(w.state, d)) for w, d in zip(worlds, taken)]])
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
        out = _exec_block(stmt.then, then_worlds, env) + _exec_block(stmt.els, else_worlds, env)
        # a variable a branch declares goes out of scope at its end, as
        # ``check_stmts`` scopes it, so the worlds after the if share their
        # variables and each variable's values share one type
        scope = {k for k, _ in worlds[0].store_items} if worlds else ()
        return _merge([[World(tuple(e for e in w.store_items if e[0] in scope), w.state) for w in out]])
    if isinstance(stmt, Package):
        return _package(worlds, stmt, env)
    if isinstance(stmt, Apply):
        return _merge([_apply(w, stmt, env) for w in worlds])
    raise VerificationError(f"unknown statement {stmt!r}", None, getattr(stmt, "pos", (0, 0)))


def _assign_var(w: World, name: str, expr, u, pos) -> World:
    store = w.store()
    try:
        store[name] = eval_expr(expr, w.state.heap_dict(), store, w.state.mask_dict())
    except Unframed as e:
        raise VerificationError(f"unframed expression: {e.description}", w, pos)
    return World.make(store, w.state)


def _heap_write(w: World, stmt: HeapWrite, u: Universe) -> World:
    heap, store, mask = w.state.heap_dict(), w.store(), w.state.mask_dict()
    try:
        base = eval_expr(stmt.base, heap, store, mask)
        value = eval_expr(stmt.expr, heap, store, mask)
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
    heap[loc] = value
    return World(w.store_items, State.make(mask, heap))


def _package(worlds: list[World], stmt: Package, env: _Env) -> list[World]:
    """Package once per class of worlds that agree on what the package reads.

    A class's key is a world's store, its mask and its heap with the value
    of every unread field (``_read_fields``) left out.  Each class is
    packaged once, on the state of its first world in world order, which
    is the world a failure names; its wand instance is computed once too,
    since the store is part of the key.

    Why a class packages alike.  An unread field is named by no left-hand
    side, expression, predicate body, fold or unfold, or applied wand: at
    most by ``acc`` atoms of the right-hand side and of script ``assert``s.
    So the initial witness pairs hold no value at an unread location, no
    step evaluates one, and such a value enters a pair only by extraction
    from the one outer state (or as a demand's fallback read of it), or
    never.  Within one package, then, every state that holds a value at an
    unread location holds the outer state's value there, and every
    comparison, sort and compatibility test sees equal values at it.  A
    world whose state differs from its class's first only at unread
    locations therefore takes the same steps: the class's footprints and
    derivation tree with its own values substituted there
    (``_map_states``), and the class's initial configuration with its own
    state as the outer state.  The Extract rule alone takes from the outer
    state, so its post-states are its own state less each distinct
    footprint.  Each distinct footprint is audited by the oracle."""
    read = _read_fields(env.u, stmt)
    classes: dict[tuple, tuple[State, WandInst, PackageOutcome]] = {}
    audits: dict[tuple, bool] = {}
    out, records = [], []
    for w in worlds:
        # a variable's values share one type, and so do a location's, so
        # equal keys here are equal worlds, unread values aside
        blind = tuple((loc, v if loc.field in read else None) for loc, v in w.state.heap)
        cls = (w.store_items, w.state.mask, blind)
        if cls not in classes:
            outcome = PACKAGERS[env.algorithm](w.state, stmt.wand, stmt.script, w.store(), env.u)
            if not outcome.success:
                raise VerificationError(f"package failed: {outcome.diagnostic}", w, stmt.pos)
            classes[cls] = (w.state, _wand_inst(w, stmt), outcome)
        first, key, outcome = classes[cls]
        # equal keys list the same locations, so the heaps align entry by entry
        values = {loc: v for (loc, v), (_, v0) in zip(w.state.heap, first.heap) if v != v0}
        fps, record = _package_record(w, key, outcome, values, stmt, env, audits)
        records.append(record)
        token = State.make({key: Fraction(1)}, {})
        posts = (st.add(st.sub(w.state, fp), token) for fp in set(fps))
        out.extend(World(w.store_items, p) for p in posts if p is not None)
    env.mreport.packages.extend(records)  # a failing statement records no package
    return _merge([out])


def _read_fields(u: Universe, stmt: Package) -> frozenset:
    """The fields whose values a package statement reads: those its
    left-hand side, expressions, predicate bodies, folds and unfolds and
    applied wands name.  A field that only ``acc`` atoms of the right-hand
    side and of script ``assert``s name, or that nothing names, is unread."""
    reads = [stmt.wand.lhs, *_reads(stmt.wand.rhs)]
    _script_reads(stmt.script, reads)
    return frozenset(loc.field for loc in reach(u, *reads).locations)


def _script_reads(script: Sequence[Stmt], reads: list) -> None:
    """Add to ``reads`` what a proof script reads: the parts of its asserts
    that ``_reads`` keeps, its ``if`` conditions, its folded and unfolded
    instances and its applied wands."""
    for s in script:
        if isinstance(s, AssertStmt):
            reads.extend(_reads(s.assertion))
        elif isinstance(s, If):
            reads.append(s.cond)
            _script_reads(s.then, reads)
            _script_reads(s.els, reads)
        elif isinstance(s, (Fold, Unfold)):
            reads.append(PredA(s.name, s.args))
        elif isinstance(s, Apply):
            reads.append(s.wand)


def _reads(a: Assertion) -> list:
    """The parts of a right-hand side or script assertion that read the
    heap: everything except the fields its ``acc`` atoms name.  An ``acc``
    atom's receiver is read; a nested wand counts as read whole."""
    if isinstance(a, Acc):
        return [a.ref_expr]
    if not isinstance(a, (Star, OrA, Imp)):
        return [a]
    return [r for c in children(a) for r in _reads(c)]


def _substitute(s: State, values: dict) -> State:
    """``s`` with the heap values ``values`` gives at its locations."""
    if not any(loc in values for loc, _ in s.heap):
        return s
    return State(s.mask, tuple((loc, values.get(loc, v)) for loc, v in s.heap))


def _map_states(x, f: Callable[[State], State]):
    """``x`` with ``f`` applied to every state in it: through tuples and
    the fields of derivation nodes.  ``f`` must keep each state's
    locations, so the sorted orders of masks, heaps, pairs and choices
    still hold."""
    if isinstance(x, State):
        return f(x)
    if isinstance(x, tuple):
        return tuple(_map_states(v, f) for v in x)
    if isinstance(x, Derivation):
        return replace(x, **{k: _map_states(v, f) for k, v in vars(x).items()})
    return x


def _package_record(
    w: World, key: WandInst, outcome: PackageOutcome, values: dict, stmt: Package, env: _Env, audits: dict
) -> tuple[list[State], PackageRecord]:
    """``w``'s footprints and package record, from its class's outcome
    with ``w``'s own heap values ``values`` substituted.  ``audits`` holds
    the oracle's verdict on each (wand instance, footprint) decided so far."""

    def own(x):
        return _map_states(x, lambda s: _substitute(s, values)) if values else x

    u, store = env.u, w.store()
    record = PackageRecord(pos=stmt.pos, algorithm=env.algorithm, wand=key.key, footprints=[])
    if env.algorithm == FIA:
        fps = [own(fp) for _, fp in outcome.case_footprints]
    else:
        fps = [own(outcome.footprint)]
        conf = replace(outcome.configuration, context=replace(outcome.configuration.context, outer=w.state))
        record.derivation = derivation_doc(u, store, stmt.wand, conf, own(outcome.derivation), stmt.script)
    record.footprints = [state_to_json(fp) for fp in fps]
    if env.audit:
        kind = COMBINABLE if stmt.wand.combinable else orc.STANDARD
        closed = close_assertion(stmt.wand, store)
        for fp in fps:
            if (key, fp) not in audits:
                audits[key, fp] = orc.audit_footprint(fp, closed, kind, orc.plan(u), {})
        record.audit = [{"footprint": state_to_json(fp), "valid": audits[key, fp]} for fp in fps]
    return fps, record


def _wand_inst(w: World, stmt: Package | Apply) -> WandInst:
    """The instance of the statement's wand in ``w``'s store."""
    try:
        return wand_key(stmt.wand, w.store())
    except AssertionError_ as e:
        raise VerificationError(str(e), w, stmt.pos)


def _apply(w: World, stmt: Apply, env: _Env) -> list[World]:
    u = env.u
    token = State.make({_wand_inst(w, stmt): Fraction(1)}, {})
    if not st.geq(w.state, token):
        raise VerificationError(
            f"apply failed: no recorded instance of {format_assertion(stmt.wand)}", w, stmt.pos
        )
    chosen = _covered(
        w, stmt.wand.lhs, u, stmt.pos,
        lambda: f"apply failed: left-hand side of {format_assertion(stmt.wand)} does not hold",
    )
    # incompatible additions are inconsistent worlds, which inhale drops
    shrunk = World(w.store_items, st.sub(st.sub(w.state, token), chosen))
    return _inhale(shrunk, stmt.wand.rhs, u, stmt.pos)
