"""The three package algorithms and proof-script execution.

* ``package_sound`` — the witness-set algorithm for standard wands; every
  success yields one footprint plus a derivation the checker accepts.
* ``package_combinable`` — the same proof search run through the lifted
  logic: each pair carries the restriction transformer anchored at its
  left-hand-side state, and extraction distributes per-pair deltas.
* ``package_fia`` — the deliberately flawed baseline, kept for
  differential comparison: it runs each left-hand-side case alone through
  the same engine, as a one-pair witness set, and returns one footprint
  and one post-state per case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import states as st
from .assertions import (
    FRESH_FORK,
    Assertion,
    Imp,
    Pure,
    Star,
    Wand,
    assertion_substitute,
    demands,
    format_assertion,
    lhs_cases,
    wand_key,
    wf,
)
from .exprs import Expr, Not, Store, Unframed, eval_bool, eval_expr
from .package_logic import (
    CheckFailure,
    Configuration,
    Context,
    DAtom,
    Derivation,
    DExtract,
    DImplication,
    DStar,
    WitnessPair,
    apply_extract,
    check_derivation,
    ctx_heap,
    extract_footprint,
    init_witness_set,
    pc_holds,
)
from .program import SApply, SAssert, SFold, SIf, SUnfold, ScriptStmt
from .states import EMPTY, State, state_key
from .universe import FieldLoc, PredInst, Universe

SOUND = "sound"
COMBINABLE = "combinable"
FIA = "fia"


class PackageFailure(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


@dataclass(frozen=True)
class PackageOutcome:
    status: str  # "success" | "failure"
    diagnostic: Optional[str] = None
    footprint: Optional[State] = None
    case_footprints: tuple[tuple[State, State], ...] = ()
    post_states: tuple[State, ...] = ()
    derivation: Optional[Derivation] = None
    configuration: Optional[Configuration] = None

    @property
    def success(self) -> bool:
        return self.status == "success"


# -- shared coverage / extraction machinery --------------------------------------


def _pair_demands(u, a, pair: WitnessPair, store, outer_heap) -> list[State]:
    try:
        return demands(u, a, ctx_heap(pair), store, fallback_heap=outer_heap)
    except Unframed as e:
        raise PackageFailure(
            f"unframed expression while reducing {format_assertion(a)}: {e.description}"
        )


def _known_demands(u, a, pair: WitnessPair, store, outer_heap, known: dict) -> list[State]:
    """The pair's demands of ``a``, reusing those ``_extract_to_cover``
    computed when the extraction left the pair unchanged."""
    ds = known.get((pair.sigma_a, pair.sigma_b))
    return ds if ds is not None else _pair_demands(u, a, pair, store, outer_heap)


def _first_covered(sigma_a: State, ds: Sequence[State]) -> Optional[State]:
    for d in ds:
        if st.geq(sigma_a, d):
            return d
    return None


def _least_shortfall(sigma_a: State, ds: Sequence[State]) -> dict:
    """The permission missing for the demand this pair should be steered
    toward: least missing permission first, leftmost on ties."""
    gaps = ({rid: amt - have for rid, amt in d.mask if (have := sigma_a.mask_of(rid)) < amt} for d in ds)
    return min(gaps, key=lambda gap: sum(gap.values()))


def _extract_to_cover(
    u: Universe,
    ctx: Context,
    active: Sequence[WitnessPair],
    a: Assertion,
    store: Store,
    outer_heap: dict,
    what: str,
) -> tuple[Context, Optional[State], dict]:
    """Ensure every active pair covers some demand of ``a``, extracting one
    minimal stable state from the outer state if needed.  Returns the new
    context, the extracted state (None when nothing was needed) and each
    active pair's demands keyed by its states; a pair the extraction grew
    has a new key, so its demands are computed again by whoever needs them."""
    needed: dict = {}
    values: dict = {}
    known: dict = {}
    witness: Optional[WitnessPair] = None
    for pair in active:
        ds = _pair_demands(u, a, pair, store, outer_heap)
        known[(pair.sigma_a, pair.sigma_b)] = ds
        if not ds:
            if isinstance(a, Pure):
                raise PackageFailure(
                    f"{what}: {format_assertion(a)} does not hold for pair "
                    f"({pair.sigma_a}, {pair.sigma_b})"
                )
            raise PackageFailure(
                f"{what}: insufficient permission for {format_assertion(a)}; no way "
                f"to satisfy it for pair ({pair.sigma_a}, {pair.sigma_b})"
            )
        if _first_covered(pair.sigma_a, ds) is not None:
            continue
        witness = witness or pair
        for rid, amt in _least_shortfall(pair.sigma_a, ds).items():
            if amt > needed.get(rid, Fraction(0)):
                needed[rid] = amt
            # the outer state's value is the only one extraction can take;
            # where it has none, the check below reports the missing permission
            if isinstance(rid, FieldLoc) and rid in outer_heap:
                values[rid] = outer_heap[rid]
    if not needed:
        return ctx, None, known
    sigma_w = State.make(needed, values)
    if not st.geq(ctx.outer, sigma_w):
        assert witness is not None
        raise PackageFailure(
            f"{what}: insufficient permission for {format_assertion(a)}; "
            f"outer state lacks {sigma_w} (witness pair {witness.sigma_a})"
        )
    try:
        return apply_extract(ctx, sigma_w), sigma_w, known
    except CheckFailure as e:
        raise PackageFailure(f"{what}: {e.message}")


def _active(ctx: Context, conds: tuple[Expr, ...], store: Store) -> list[WitnessPair]:
    out = []
    for pair in ctx.pairs:
        try:
            if all(eval_bool(g, ctx_heap(pair), store) for g in conds):
                out.append(pair)
        except Unframed as e:
            raise PackageFailure(f"unframed script condition: {e.description}")
    return out


# -- proveRHS ----------------------------------------------------------------------


def prove_rhs(
    ctx: Context,
    pc: tuple[Expr, ...],
    b: Assertion,
    u: Universe,
    store: Store,
    outer_heap: Optional[dict] = None,
) -> tuple[Context, Derivation]:
    """Left-to-right proof search over the right-hand side.

    Stars and implications recurse; atoms either transfer per-pair choices
    directly or extract a minimal missing state from the outer state
    first.  The combinable variant is selected by the transformers the
    context's pairs carry.  Raises PackageFailure with the offending atom
    and a witness pair when the outer state cannot close a shortfall.
    """
    heap = dict(outer_heap or ctx.outer.heap_dict())
    return _prove(ctx, pc, b, u, store, heap)


def _prove(ctx, pc, b, u, store, outer_heap) -> tuple[Context, Derivation]:
    if isinstance(b, Star):
        ctx1, d1 = _prove(ctx, pc, b.left, u, store, outer_heap)
        ctx2, d2 = _prove(ctx1, pc, b.right, u, store, outer_heap)
        return ctx2, DStar(d1, d2)
    if isinstance(b, Imp):
        ctx1, d = _prove(ctx, pc + (b.guard,), b.body, u, store, outer_heap)
        return ctx1, DImplication(d)
    # a semantic atom: Pure / Acc / Pred / Wand / Or
    try:
        active = [p for p in ctx.pairs if pc_holds(pc, p.sigma_a, store)]
    except CheckFailure as e:
        raise PackageFailure(e.message)
    ctx, extracted, known = _extract_to_cover(u, ctx, active, b, store, outer_heap, "prove")
    try:
        active = [p for p in ctx.pairs if pc_holds(pc, p.sigma_a, store)]
    except CheckFailure as e:
        raise PackageFailure(e.message)
    choices = {}
    new_pairs = []
    for pair in ctx.pairs:
        if pair not in active:
            new_pairs.append(pair)
            continue
        chosen = _first_covered(pair.sigma_a, _known_demands(u, b, pair, store, outer_heap, known))
        if chosen is None:
            raise PackageFailure(
                f"prove: {format_assertion(b)} still unsatisfied for pair "
                f"({pair.sigma_a}, {pair.sigma_b}) after extraction"
            )
        choices[(pair.sigma_a, pair.sigma_b)] = chosen
        moved = st.add(pair.sigma_b, chosen)
        assert moved is not None
        new_pairs.append(WitnessPair(st.sub(pair.sigma_a, chosen), moved, pair.transformer))
    node: Derivation = DAtom.make(choices)
    if extracted is not None:
        node = DExtract(extracted, node)
    return Context.make(ctx.outer, new_pairs, ctx.extracted), node


# -- proof-script execution ----------------------------------------------------------


def run_script(
    ctx: Context,
    script: Sequence[ScriptStmt],
    store: Store,
    u: Universe,
    outer_heap: Optional[dict] = None,
) -> tuple[Context, list[State], bool]:
    """Execute a proof script against a context.

    Returns the new context, the states extracted from the outer state (in
    order), and whether any statement reshaped available states in a way
    the core rules cannot express (fold/unfold/apply) — in that case an
    emitted derivation must start from the post-script configuration.
    """
    heap = dict(outer_heap or ctx.outer.heap_dict())
    extracts: list[State] = []
    mutated = [False]
    ctx = _run_script(ctx, tuple(script), (), store, u, heap, extracts, mutated)
    return ctx, extracts, mutated[0]


def _run_script(ctx, script, conds, store, u, outer_heap, extracts, mutated) -> Context:
    for stmt in script:
        if isinstance(stmt, SIf):
            ctx = _run_script(ctx, stmt.then, conds + (stmt.cond,), store, u, outer_heap, extracts, mutated)
            ctx = _run_script(ctx, stmt.els, conds + (Not(stmt.cond),), store, u, outer_heap, extracts, mutated)
            continue
        if isinstance(stmt, SAssert):
            ctx, known = _cover(u, ctx, conds, stmt.assertion, store, outer_heap, extracts, "assert")
            for pair in _active(ctx, conds, store):
                ds = _known_demands(u, stmt.assertion, pair, store, outer_heap, known)
                if _first_covered(pair.sigma_a, ds) is None:
                    raise PackageFailure(
                        f"assert {format_assertion(stmt.assertion)} fails for pair "
                        f"({pair.sigma_a}, {pair.sigma_b})"
                    )
            continue
        if isinstance(stmt, SFold):
            ctx = _script_fold(ctx, stmt, conds, store, u, outer_heap, extracts)
        elif isinstance(stmt, SUnfold):
            ctx = _script_unfold(ctx, stmt, conds, store, u)
        elif isinstance(stmt, SApply):
            ctx = _script_apply(ctx, stmt, conds, store, u, outer_heap, extracts)
        else:
            raise PackageFailure(f"unknown script statement {stmt!r}")
        mutated[0] = True
    return ctx


def _cover(u, ctx, conds, a, store, outer_heap, extracts, what) -> tuple[Context, dict]:
    """Extract what the active pairs lack to cover ``a``, logging the
    extraction; returns the new context and the demands already known."""
    ctx, ex, known = _extract_to_cover(u, ctx, _active(ctx, conds, store), a, store, outer_heap, what)
    if ex is not None:
        extracts.append(ex)
    return ctx, known


def _map_active(ctx: Context, conds, store, step) -> Context:
    """Replace each active pair by the pairs ``step`` returns for it."""
    active_keys = {p.key() for p in _active(ctx, conds, store)}
    new_pairs = []
    for pair in ctx.pairs:
        new_pairs.extend(step(pair) if pair.key() in active_keys else (pair,))
    return Context.make(ctx.outer, new_pairs, ctx.extracted)


def _instantiated_body(u: Universe, name: str, args) -> Assertion:
    d = u.predicate(name)
    if len(d.params) != len(args):
        raise PackageFailure(f"{name} expects {len(d.params)} arguments")
    return assertion_substitute(d.body, dict(zip(d.params, args)))


def _instance_token(stmt, pair: WitnessPair, store, what: str) -> State:
    try:
        vals = tuple(eval_expr(x, ctx_heap(pair), store) for x in stmt.args)
    except Unframed as e:
        raise PackageFailure(f"{what} {stmt.name}: {e.description}")
    return State.make({PredInst(stmt.name, vals): Fraction(1)}, {})


def _forks(u, a: Assertion, base: State, pair: WitnessPair, store, what: str) -> list[WitnessPair]:
    """The pair with ``base`` grown by each demand of ``a``, forking over
    values the pair leaves undetermined; no fork means the case is
    inconsistent and is dropped."""
    try:
        ds = demands(u, a, ctx_heap(WitnessPair(base, pair.sigma_b)), store, fresh=FRESH_FORK)
    except Unframed as e:
        raise PackageFailure(f"{what}: {e.description}")
    return [
        WitnessPair(grown, pair.sigma_b, pair.transformer)
        for d in ds
        if (grown := st.add(base, d)) is not None
    ]


def _script_fold(ctx, stmt: SFold, conds, store, u, outer_heap, extracts) -> Context:
    body = _instantiated_body(u, stmt.name, stmt.args)
    ctx, known = _cover(u, ctx, conds, body, store, outer_heap, extracts, "fold")

    def fold(pair: WitnessPair) -> list[WitnessPair]:
        chosen = _first_covered(pair.sigma_a, _known_demands(u, body, pair, store, outer_heap, known))
        if chosen is None:
            raise PackageFailure(f"fold {stmt.name}: body not available for pair ({pair.sigma_a})")
        token = _instance_token(stmt, pair, store, "fold")
        grown = st.add(st.sub(pair.sigma_a, chosen), token)
        if grown is None:
            raise PackageFailure(f"fold {stmt.name}: instance already held in full")
        return [WitnessPair(grown, pair.sigma_b, pair.transformer)]

    return _map_active(ctx, conds, store, fold)


def _script_unfold(ctx, stmt: SUnfold, conds, store, u) -> Context:
    body = _instantiated_body(u, stmt.name, stmt.args)

    def unfold(pair: WitnessPair) -> list[WitnessPair]:
        token = _instance_token(stmt, pair, store, "unfold")
        if not st.geq(pair.sigma_a, token):
            raise PackageFailure(
                f"unfold {stmt.name}: no full instance held by pair ({pair.sigma_a})"
            )
        # body values may be undetermined (the instance came straight from
        # the LHS): fork the pair over the possible valuations
        return _forks(u, body, st.sub(pair.sigma_a, token), pair, store, f"unfold {stmt.name}")

    return _map_active(ctx, conds, store, unfold)


def _script_apply(ctx, stmt: SApply, conds, store, u, outer_heap, extracts) -> Context:
    w = stmt.wand
    token = State.make({wand_key(w, store): Fraction(1)}, {})
    ctx, known = _cover(u, ctx, conds, w.lhs, store, outer_heap, extracts, "apply (left-hand side)")

    def apply(pair: WitnessPair) -> list[WitnessPair]:
        if not st.geq(pair.sigma_a, token):
            raise PackageFailure(
                f"apply {format_assertion(w)}: no wand instance held by pair ({pair.sigma_a})"
            )
        chosen = _first_covered(pair.sigma_a, _known_demands(u, w.lhs, pair, store, outer_heap, known))
        if chosen is None:
            raise PackageFailure(
                f"apply {format_assertion(w)}: left-hand side not available for pair ({pair.sigma_a})"
            )
        base = st.sub(st.sub(pair.sigma_a, token), chosen)
        return _forks(u, w.rhs, base, pair, store, f"apply {format_assertion(w)}")

    return _map_active(ctx, conds, store, apply)


# -- the package algorithms -----------------------------------------------------------


def _package_witnessed(
    outer: State,
    wand: Wand,
    script: Sequence[ScriptStmt],
    store: Store,
    u: Universe,
    combinable: bool,
) -> PackageOutcome:
    if not wf(wand):
        return PackageOutcome("failure", diagnostic="wand is not well-formed (self-framing)")
    pairs = init_witness_set(wand.lhs, u, True, store, combinable=combinable)
    conf0 = Configuration(wand.rhs, (), Context.make(outer, pairs))
    outer_heap = outer.heap_dict()
    try:
        ctx1, extracts, mutated = run_script(conf0.context, script, store, u, outer_heap)
        ctx2, tree = prove_rhs(ctx1, (), wand.rhs, u, store, outer_heap)
    except PackageFailure as e:
        return PackageOutcome("failure", diagnostic=e.message)
    footprint = extract_footprint(outer, ctx2.outer)
    conf, derivation = conf0, tree
    if mutated:
        conf = Configuration(wand.rhs, (), ctx1)
    else:
        for sigma in reversed(extracts):
            derivation = DExtract(sigma, derivation)
    check_derivation(conf, derivation, u, store)  # internal consistency guard
    return PackageOutcome(
        "success",
        footprint=footprint,
        post_states=(ctx2.outer,),
        derivation=derivation,
        configuration=conf,
    )


def package_sound(
    outer: State,
    wand: Wand,
    script: Sequence[ScriptStmt] = (),
    store: Store = {},
    u: Universe = None,
) -> PackageOutcome:
    """Package a standard wand; the returned derivation re-validates."""
    if wand.combinable:
        return PackageOutcome("failure", diagnostic="sound algorithm expects a standard wand")
    return _package_witnessed(outer, wand, script, store, u, combinable=False)


def package_combinable(
    outer: State,
    wand: Wand,
    script: Sequence[ScriptStmt] = (),
    store: Store = {},
    u: Universe = None,
) -> PackageOutcome:
    """Package a combinable wand through the lifted logic."""
    if not wand.combinable:
        return PackageOutcome("failure", diagnostic="combinable algorithm expects a --*c wand")
    return _package_witnessed(outer, wand, script, store, u, combinable=True)


def package_fia(
    outer: State,
    wand: Wand,
    script: Sequence[ScriptStmt] = (),
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
        return PackageOutcome("failure", diagnostic="wand is not well-formed (self-framing)")
    outer_heap = outer.heap_dict()
    results: list[tuple[State, State]] = []
    posts: list[State] = []
    for case in lhs_cases(u, wand.lhs, store):
        ctx = Context.make(outer, [WitnessPair(case, EMPTY)])
        try:
            ctx, _, _ = run_script(ctx, script, store, u, outer_heap)
            ctx, _ = prove_rhs(ctx, (), wand.rhs, u, store, outer_heap)
        except PackageFailure as e:
            return PackageOutcome("failure", diagnostic=f"case {case}: {e.message}")
        taken = extract_footprint(outer, ctx.outer)
        if not ctx.pairs:
            return PackageOutcome(
                "failure", diagnostic=f"case {case}: case state cannot absorb {taken}"
            )
        entry = (State.make(case.mask, case.heap + taken.heap), taken)
        if entry not in results:
            results.append(entry)
        if ctx.outer not in posts:
            posts.append(ctx.outer)
    return PackageOutcome(
        "success",
        case_footprints=tuple(results),
        post_states=tuple(sorted(posts, key=state_key)),
    )


PACKAGERS = {
    SOUND: package_sound,
    COMBINABLE: package_combinable,
    FIA: package_fia,
}
