"""The three package algorithms and proof-script execution.

Every proof step (a right-hand-side atom, or a script ``assert``, ``fold``
or ``apply``) takes an option of ``package_logic.steps``: extract from the
outer state what the active pairs lack (the Extract rule), then give each
active pair a demand it covers.  A script statement takes the first
option; the right-hand side is proved by ``package_logic.prove``, which
backtracks to later options only where the first ones fail.  Its choices
go to the Atom rule (``apply_atom``), so the derivation found needs no
second check.

* ``package_sound`` — the witness-set algorithm for standard wands; every
  success yields one footprint plus a derivation the checker accepts.
* ``package_combinable`` — the same proof search run through the lifted
  logic: each pair is anchored at its left-hand-side state, and
  extraction distributes per-pair deltas.
* ``package_fia`` — the deliberately flawed baseline, kept for
  differential comparison: it runs each left-hand-side case alone through
  the same engine, as a one-pair witness set, and returns one footprint
  per case.

A package's post-state is what is left of the outer state once its
footprint is taken (``states.sub(outer, footprint)``): the Extract rule
is the only step that takes from the outer state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import states as st
from .assertions import (
    Assertion,
    PredA,
    Wand,
    demands,
    format_assertion,
    grow,
    instance_body,
    lhs_cases,
    wf,
)
from .exprs import Expr, Not, Store, Unframed
from .package_logic import (
    CheckFailure,
    Configuration,
    Context,
    Derivation,
    WitnessPair,
    active_pairs,
    check_derivation,
    extract_footprint,
    initial_configuration,
    prove,
    steps,
)
from .program import Apply, AssertStmt, Fold, If, Stmt, Unfold
from .states import EMPTY, State
from .universe import Universe

SOUND = "sound"
COMBINABLE = "combinable"
FIA = "fia"

# the prover applies the checker's rules, so it fails as the checker does;
# the old name stays for callers that catch it
PackageFailure = CheckFailure


@dataclass(frozen=True)
class PackageOutcome:
    diagnostic: Optional[str] = None  # why the package failed; None on success
    footprint: Optional[State] = None
    case_footprints: tuple[tuple[State, State], ...] = ()
    derivation: Optional[Derivation] = None
    configuration: Optional[Configuration] = None

    @property
    def success(self) -> bool:
        return self.diagnostic is None


# -- proveRHS ----------------------------------------------------------------------


def prove_rhs(
    ctx: Context,
    pc: tuple[Expr, ...],
    b: Assertion,
    u: Universe,
    store: Store,
    outer_heap: Optional[dict] = None,
) -> tuple[Context, Derivation]:
    """Backtracking proof search over the right-hand side (``prove``).

    Each atom extracts what the active pairs lack from the outer state and
    applies the Atom rule with a demand each pair covers, greedy choices
    first.  The combinable variant is selected by the anchors the
    context's pairs carry.  Raises CheckFailure with the offending atom
    and a witness pair when no option closes a shortfall.  Values missing
    from a pair are read from ``ctx.outer``, whose heap extraction keeps
    whole; ``outer_heap`` is ignored and kept for callers that pass it,
    such as the benchmark's staged replay.
    """
    return prove(ctx, pc, b, u, store)


# -- proof-script execution ----------------------------------------------------------


def run_script(
    ctx: Context,
    script: Sequence[Stmt],
    store: Store,
    u: Universe,
    outer_heap: Optional[dict] = None,
) -> tuple[Context, list[State], bool]:
    """Execute a proof script against a context.

    Returns the new context, the states extracted from the outer state (in
    order), and whether any statement reshaped available states in a way
    the core rules cannot express (fold/unfold/apply).  A package's
    derivation starts from the returned context, so the package algorithms
    read only that; the extractions and the flag serve callers that replay
    a package stage by stage.  Each statement takes its step's first
    option.  ``outer_heap`` is ignored, as in ``prove_rhs``, and kept for
    callers that pass it.
    """
    extracts: list[State] = []
    mutated = [False]
    ctx = _run_script(ctx, tuple(script), (), store, u, extracts, mutated)
    return ctx, extracts, mutated[0]


def _run_script(ctx, script, conds, store, u, extracts, mutated) -> Context:
    for stmt in script:
        if isinstance(stmt, If):
            ctx = _run_script(ctx, stmt.then, conds + (stmt.cond,), store, u, extracts, mutated)
            ctx = _run_script(ctx, stmt.els, conds + (Not(stmt.cond),), store, u, extracts, mutated)
            continue
        if isinstance(stmt, AssertStmt):
            ctx, _ = _cover(u, ctx, conds, stmt.assertion, store, extracts, "assert")
            continue
        if isinstance(stmt, Fold):
            ctx = _script_fold(ctx, stmt, conds, store, u, extracts)
        elif isinstance(stmt, Unfold):
            ctx = _script_unfold(ctx, stmt, conds, store, u)
        elif isinstance(stmt, Apply):
            ctx = _script_apply(ctx, stmt, conds, store, u, extracts)
        else:
            raise CheckFailure(f"unknown script statement {stmt!r}")
        mutated[0] = True
    return ctx


def _cover(u, ctx, conds, a, store, extracts, what) -> tuple[Context, dict]:
    """The first option of the step for ``a``, logging its extraction in ``extracts``."""
    option = next(steps(u, ctx, conds, a, store, what, ctx.outer.heap_dict()))
    if isinstance(option, CheckFailure):
        raise CheckFailure(option.message, option.path)  # fresh, as in ``prove``
    ctx, ex, choices = option
    if ex is not None:
        extracts.append(ex)
    return ctx, choices


def _map_active(ctx: Context, conds, store, step) -> Context:
    """Replace each active pair by the pairs ``step`` returns for it."""
    active = {(p.sigma_a, p.sigma_b) for p in active_pairs(ctx, conds, store)}
    new_pairs = [q for p in ctx.pairs for q in (step(p) if (p.sigma_a, p.sigma_b) in active else (p,))]
    return Context.make(ctx.outer, new_pairs, ctx.extracted)


def _instance_token(u, stmt, pair: WitnessPair, store, what: str) -> State:
    """The whole predicate instance ``stmt`` names, read on the pair's heap."""
    try:
        (token,) = demands(u, PredA(stmt.name, stmt.args), pair.sigma_a.heap_dict(), store)
    except Unframed as e:
        raise CheckFailure(f"{what} {stmt.name}: {e.description}")
    return token


def _forks(u, a: Assertion, base: State, pair: WitnessPair, store, what: str) -> list[WitnessPair]:
    """The pair with ``base`` grown by ``a`` once per fork (``grow``); no
    fork means the case is inconsistent and is dropped."""
    try:
        return [WitnessPair(s, pair.sigma_b, pair.anchor) for s in grow(u, a, base, store)]
    except Unframed as e:
        raise CheckFailure(f"{what}: {e.description}")


def _script_fold(ctx, stmt: Fold, conds, store, u, extracts) -> Context:
    body = instance_body(u, stmt.name, stmt.args)
    ctx, choices = _cover(u, ctx, conds, body, store, extracts, "fold")

    def fold(pair: WitnessPair) -> list[WitnessPair]:
        token = _instance_token(u, stmt, pair, store, "fold")
        grown = st.add(st.sub(pair.sigma_a, choices[(pair.sigma_a, pair.sigma_b)]), token)
        if grown is None:
            raise CheckFailure(f"fold {stmt.name}: instance already held in full")
        return [WitnessPair(grown, pair.sigma_b, pair.anchor)]

    return _map_active(ctx, conds, store, fold)


def _script_unfold(ctx, stmt: Unfold, conds, store, u) -> Context:
    body = instance_body(u, stmt.name, stmt.args)

    def unfold(pair: WitnessPair) -> list[WitnessPair]:
        token = _instance_token(u, stmt, pair, store, "unfold")
        if not st.geq(pair.sigma_a, token):
            raise CheckFailure(
                f"unfold {stmt.name}: no full instance held by pair ({pair.sigma_a})"
            )
        # body values may be undetermined (the instance came straight from
        # the LHS): fork the pair over the possible valuations
        return _forks(u, body, st.sub(pair.sigma_a, token), pair, store, f"unfold {stmt.name}")

    return _map_active(ctx, conds, store, unfold)


def _script_apply(ctx, stmt: Apply, conds, store, u, extracts) -> Context:
    w = stmt.wand
    (token,) = demands(u, w, {}, store)
    ctx, choices = _cover(u, ctx, conds, w.lhs, store, extracts, "apply (left-hand side)")

    def apply(pair: WitnessPair) -> list[WitnessPair]:
        if not st.geq(pair.sigma_a, token):
            raise CheckFailure(
                f"apply {format_assertion(w)}: no wand instance held by pair ({pair.sigma_a})"
            )
        base = st.sub(st.sub(pair.sigma_a, token), choices[(pair.sigma_a, pair.sigma_b)])
        return _forks(u, w.rhs, base, pair, store, f"apply {format_assertion(w)}")

    return _map_active(ctx, conds, store, apply)


# -- the package algorithms -----------------------------------------------------------


def recheck_package(
    conf: Configuration, script: Sequence[Stmt], d: Derivation, u: Universe, store: Store
) -> State:
    """Re-check a package derivation from the package's initial configuration:
    run the proof script, check the tree from the context the script leaves,
    and return the footprint.  Raises CheckFailure at the first failure.
    ``check-derivation`` runs this on the documents ``verify`` writes."""
    try:
        ctx, _, _ = run_script(conf.context, script, store, u)
    except CheckFailure as e:
        raise CheckFailure(e.message, ("script",))
    final = check_derivation(Configuration(conf.assertion, conf.pc, ctx), d, u, store)
    return extract_footprint(conf.context.outer, final.outer)


def _run(ctx: Context, wand: Wand, script, store: Store, u: Universe) -> tuple[Context, Derivation]:
    """Run the proof script, then prove the right-hand side from where it stops."""
    ctx, _, _ = run_script(ctx, script, store, u)
    return prove_rhs(ctx, (), wand.rhs, u, store)


def _package_witnessed(
    outer: State, wand: Wand, script: Sequence[Stmt], store: Store, u: Universe
) -> PackageOutcome:
    if not wf(wand):
        return PackageOutcome(diagnostic="wand is not well-formed (self-framing)")
    conf = initial_configuration(u, wand, store, outer)
    try:
        ctx, tree = _run(conf.context, wand, script, store, u)
    except CheckFailure as e:
        return PackageOutcome(diagnostic=e.message)
    return PackageOutcome(footprint=extract_footprint(outer, ctx.outer), derivation=tree, configuration=conf)


def package_sound(
    outer: State,
    wand: Wand,
    script: Sequence[Stmt] = (),
    store: Store = {},
    u: Universe = None,
) -> PackageOutcome:
    """Package a standard wand; the returned derivation re-validates."""
    if wand.combinable:
        return PackageOutcome(diagnostic="sound algorithm expects a standard wand")
    return _package_witnessed(outer, wand, script, store, u)


def package_combinable(
    outer: State,
    wand: Wand,
    script: Sequence[Stmt] = (),
    store: Store = {},
    u: Universe = None,
) -> PackageOutcome:
    """Package a combinable wand through the lifted logic."""
    if not wand.combinable:
        return PackageOutcome(diagnostic="combinable algorithm expects a --*c wand")
    return _package_witnessed(outer, wand, script, store, u)


def package_fia(
    outer: State,
    wand: Wand,
    script: Sequence[Stmt] = (),
    store: Store = {},
    u: Universe = None,
) -> PackageOutcome:
    """The unsound baseline: one footprint per left-hand-side case.

    Each case runs alone through the witness-set engine, as a one-pair
    context over the outer state, so its footprint only has to serve that
    case; the per-case footprints generally do not justify the wand for
    the other cases.  No derivation is emitted — in general none exists.
    """
    if not wf(wand):
        return PackageOutcome(diagnostic="wand is not well-formed (self-framing)")
    results: list[tuple[State, State]] = []
    for case in lhs_cases(u, wand.lhs, store):
        try:
            ctx, _ = _run(Context.make(outer, [WitnessPair(case, EMPTY)]), wand, script, store, u)
        except CheckFailure as e:
            return PackageOutcome(diagnostic=f"case {case}: {e.message}")
        taken = extract_footprint(outer, ctx.outer)
        if not ctx.pairs:
            return PackageOutcome(diagnostic=f"case {case}: case state cannot absorb {taken}")
        entry = (State.make(case.mask, case.heap + taken.heap), taken)
        if entry not in results:
            results.append(entry)
    return PackageOutcome(case_footprints=tuple(results))


PACKAGERS = {
    SOUND: package_sound,
    COMBINABLE: package_combinable,
    FIA: package_fia,
}
