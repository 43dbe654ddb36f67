"""The package logic: configurations, witness sets, a derivation checker, the proof search.

A derivation is an explicit tree of rule applications (implication, star,
atom, extract, disjunction) carrying all rule parameters, so it can be
re-validated after the fact.  ``check_derivation`` re-checks every premise
literally and either returns the final context or raises ``CheckFailure``
at the first violated premise.  A witness pair of a combinable wand
carries the left-hand-side state its footprint is restricted to (its
anchor), and the context tracks the footprint extracted so far, so one
checker serves both wand kinds.  The one proof search (``steps``,
``prove``) applies the same rule functions (``apply_extract``,
``apply_atom``), for the package algorithms and for the canonical
derivations of the completeness probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Mapping, Optional, Sequence, Union

from . import states as st
from .assertions import (
    Assertion,
    Imp,
    OrA,
    Pure,
    Star,
    contains_wand,
    demands,
    format_assertion,
    is_atom,
    minimal_lhs_states,
    reach,
)
from .exprs import Expr, Store, Unframed, eval_bool, format_expr
from .states import EMPTY, State, state_key
from .universe import FieldLoc, Universe


class CheckFailure(Exception):
    """A violated premise, with the rule path that led to it."""

    def __init__(self, message: str, path: Sequence[str] = ()):
        self.message = message
        self.path = tuple(path)
        where = " > ".join(self.path) if self.path else "root"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class WitnessPair:
    """Available and assembled state; for a combinable wand, also the
    left-hand-side state the footprint is restricted to (None otherwise).
    Every rule keeps the assembled heap inside the available one, so the
    available state's heap is the pair's heap."""

    sigma_a: State
    sigma_b: State
    anchor: Optional[State] = None

    def key(self) -> tuple:
        return (state_key(self.sigma_a), state_key(self.sigma_b))

    def full_key(self) -> tuple:
        return self.key() + (() if self.anchor is None else state_key(self.anchor),)


@dataclass(frozen=True)
class Context:
    """Outer state, witness set, and the footprint extracted so far."""

    outer: State
    pairs: tuple[WitnessPair, ...]
    extracted: State = EMPTY

    @staticmethod
    def make(outer: State, pairs, extracted: State = EMPTY) -> "Context":
        # deduplication must keep pairs whose anchors differ: they are
        # distinct cases even when their states coincide
        uniq = {p.full_key(): p for p in pairs}
        ordered = tuple(uniq[k] for k in sorted(uniq))
        return Context(outer, ordered, extracted)


PathCondition = tuple[Expr, ...]


@dataclass(frozen=True)
class Configuration:
    assertion: Assertion
    pc: PathCondition
    context: Context


# -- derivation trees --------------------------------------------------------------


@dataclass(frozen=True)
class DImplication:
    child: "Derivation"


@dataclass(frozen=True)
class DStar:
    left: "Derivation"
    right: "Derivation"


@dataclass(frozen=True)
class DAtom:
    # one choice per (sigma_a, sigma_b) pair; total over pairs satisfying pc
    choices: tuple[tuple[State, State, State], ...]

    @staticmethod
    def make(mapping: Mapping[tuple[State, State], State]) -> "DAtom":
        items = tuple(
            sorted(
                ((sa, sb, c) for (sa, sb), c in mapping.items()),
                key=lambda t: (state_key(t[0]), state_key(t[1])),
            )
        )
        return DAtom(items)


@dataclass(frozen=True)
class DExtract:
    sigma_w: State
    child: "Derivation"


@dataclass(frozen=True)
class DDisjunction:
    left_pairs: tuple[tuple[State, State], ...]  # pairs proving the left branch
    left: "Derivation"
    right: "Derivation"


Derivation = Union[DImplication, DStar, DAtom, DExtract, DDisjunction]


def rule_tag(d: Derivation) -> str:
    return {
        DImplication: "implication",
        DStar: "star",
        DAtom: "atom",
        DExtract: "extract",
        DDisjunction: "disjunction",
    }[type(d)]


# -- helpers -------------------------------------------------------------------------


def pc_holds(pc: PathCondition, sigma_a: State, store: Store, path=()) -> bool:
    """Path conditions read the pair's available state: its heap and the store."""
    heap = sigma_a.heap_dict()
    for conj in pc:
        try:
            if not eval_bool(conj, heap, store):
                return False
        except Unframed as e:
            raise CheckFailure(
                f"path condition {format_expr(conj)} unframed on {sigma_a}: {e.description}",
                path,
            )
    return True


def init_witness_set(
    a: Assertion,
    u: Universe,
    minimal: bool,
    store: Store,
    combinable: bool = False,
) -> tuple[WitnessPair, ...]:
    """Initial pairs (sigma_a, e), one per order-minimal stable state
    satisfying the LHS — sound because the assertion fragment is
    intuitionistic.  ``minimal`` is ignored and kept for callers that pass
    it, such as the benchmark's staged replay.

    The states are built from the LHS's demands, so the cost follows the
    assertion, not the universe; the LHS must be self-framing, as every
    package entry point checks.  States are enumerated only for an LHS
    holding a wand atom (demands read a wand as a token, satisfaction
    reads it semantically); every minimal state of such an LHS lies
    inside the sub-universe it reaches, so only that is enumerated.  For
    the lifted (combinable) form each pair is anchored at the satisfying
    state itself.
    """
    if not contains_wand(a):
        sats = minimal_lhs_states(u, a, store)
    else:
        from .assertions import lhs_states

        sats = st.minimal_elements(lhs_states(reach(u, a), a, store))
    pairs = [WitnessPair(s, EMPTY, s if combinable else None) for s in sats]
    return Context.make(EMPTY, pairs).pairs


def initial_configuration(u: Universe, wand, store: Store, outer: State) -> Configuration:
    """Where every package derivation starts: the right-hand side to prove,
    no path condition, and the outer state beside the witness set of the
    left-hand side's minimal states."""
    pairs = init_witness_set(wand.lhs, u, True, store, combinable=wand.combinable)
    return Configuration(wand.rhs, (), Context.make(outer, pairs))


def extract_footprint(initial: State, final: State) -> State:
    """Whatever was removed from the initial outer state: the footprint.

    The subtraction keeps the full heap; restricting it to the positive
    permission support yields the stable footprint state.
    """
    diff = st.sub(initial, final)
    mask = diff.mask_dict()
    heap = {loc: v for loc, v in diff.heap if mask.get(loc, 0) > 0}
    return State.make(mask, heap)


def grow_pairs(pairs, extracted: State, sigma_w: State, path=()) -> list[WitnessPair]:
    """Grow each pair's available state by its delta of sigma_w, dropping
    the pairs that cannot absorb it: the wand cannot be applied in their
    case."""
    out = []
    for pair in pairs:
        delta = pair_delta(pair, extracted, sigma_w, path)
        combined = st.add(pair.sigma_a, pair.sigma_b)
        if combined is None or not st.compatible(combined, delta):
            continue
        out.append(WitnessPair(st.add(pair.sigma_a, delta), pair.sigma_b, pair.anchor))
    return out


def pair_delta(pair: WitnessPair, extracted: State, sigma_w: State, path=()) -> State:
    """What this pair receives when sigma_w is extracted.

    Without an anchor this is sigma_w itself; in the lifted logic it is
    R(sigma_f (+) sigma_w) minus R(sigma_f), the next slice of the
    footprint restricted to the anchor.
    """
    if pair.anchor is None:
        return sigma_w
    whole = st.add(extracted, sigma_w)
    if whole is None:
        raise CheckFailure("extracted footprint is internally incompatible", path)
    t_new = st.restrict(pair.anchor, whole)
    t_old = st.restrict(pair.anchor, extracted)
    if not st.geq(t_new, t_old):
        raise CheckFailure("transformer is not monotone on this extraction", path)
    return st.sub(t_new, t_old)


# -- the checker -----------------------------------------------------------------------


def check_derivation(conf: Configuration, d: Derivation, u: Universe, store: Store) -> Context:
    """Re-validate every premise of the derivation; returns the final context.

    Raises CheckFailure at the first violated premise, naming the rule
    path and the offending pair.
    """
    return _check(conf.assertion, conf.pc, conf.context, d, u, store, ())


def _check(b: Assertion, pc, ctx: Context, d: Derivation, u, store, path) -> Context:
    here = path + (rule_tag(d),)
    if isinstance(d, DExtract):
        return _check(b, pc, apply_extract(ctx, d.sigma_w, here), d.child, u, store, here)
    if isinstance(b, Star):
        if not isinstance(d, DStar):
            raise CheckFailure(f"star assertion needs a star rule, got {rule_tag(d)}", here)
        mid = _check(b.left, pc, ctx, d.left, u, store, here + ("left",))
        return _check(b.right, pc, mid, d.right, u, store, here + ("right",))
    if isinstance(b, Imp):
        if not isinstance(d, DImplication):
            raise CheckFailure(f"implication needs an implication rule, got {rule_tag(d)}", here)
        return _check(b.body, pc + (b.guard,), ctx, d.child, u, store, here)
    if not is_atom(b):
        raise CheckFailure(f"no rule for assertion {format_assertion(b)}", here)
    if isinstance(d, DDisjunction):
        if not isinstance(b, OrA):
            raise CheckFailure("disjunction rule applied to a non-disjunction", here)
        return _check_disjunction(b, pc, ctx, d, u, store, here)
    if not isinstance(d, DAtom):
        raise CheckFailure(f"atom assertion needs an atom rule, got {rule_tag(d)}", here)
    return apply_atom(b, pc, ctx, d, u, store, here)


def apply_extract(ctx: Context, sigma_w: State, path=()) -> Context:
    """One application of the Extract rule: move sigma_w out of the outer
    state and into each pair's available state (restricted to its anchor),
    dropping pairs whose accumulated state cannot absorb it."""
    if not st.is_stable(sigma_w):
        raise CheckFailure(f"extracted state {sigma_w} is not stable", path)
    if not st.geq(ctx.outer, sigma_w):
        raise CheckFailure(f"outer state does not contain {sigma_w}", path)
    new_outer = st.sub(ctx.outer, sigma_w)
    new_pairs = grow_pairs(ctx.pairs, ctx.extracted, sigma_w, path)
    new_extracted = st.add(ctx.extracted, sigma_w)
    if new_extracted is None:
        raise CheckFailure("cumulative footprint became inconsistent", path)
    return Context.make(new_outer, new_pairs, new_extracted)


def apply_atom(b: Assertion, pc, ctx: Context, d: DAtom, u, store, path=()) -> Context:
    """One application of the Atom rule: move each active pair's choice
    from its available to its assembled state, after checking that the
    choice is available and satisfies ``b``."""
    table = {(sa, sb): c for sa, sb, c in reversed(d.choices)}  # the first choice per pair wins
    new_pairs = []
    for pair in ctx.pairs:
        if not pc_holds(pc, pair.sigma_a, store, path):
            new_pairs.append(pair)
            continue
        choice = table.get((pair.sigma_a, pair.sigma_b))
        if choice is None:
            raise CheckFailure(f"no choice supplied for pair ({pair.sigma_a}, {pair.sigma_b})", path)
        if not st.geq(pair.sigma_a, choice):
            raise CheckFailure(
                f"choice {choice} is not contained in the available state {pair.sigma_a}", path
            )
        try:
            ok = any(st.geq(choice, dm) for dm in demands(u, b, pair.sigma_a.heap_dict(), store))
        except Unframed as e:
            raise CheckFailure(f"atom {format_assertion(b)} unframed: {e.description}", path)
        if not ok:
            raise CheckFailure(
                f"choice {choice} does not satisfy {format_assertion(b)} "
                f"for pair ({pair.sigma_a}, {pair.sigma_b})",
                path,
            )
        moved_a = st.sub(pair.sigma_a, choice)
        moved_b = st.add(pair.sigma_b, choice)
        if moved_b is None:
            raise CheckFailure("transferred choice clashes with the assembled state", path)
        new_pairs.append(WitnessPair(moved_a, moved_b, pair.anchor))
    return Context.make(ctx.outer, new_pairs, ctx.extracted)


def _check_disjunction(b: OrA, pc, ctx: Context, d: DDisjunction, u, store, path) -> Context:
    """The five-step disjunction procedure over a partition of the pairs."""
    left_keys = {(state_key(sa), state_key(sb)) for sa, sb in d.left_pairs}
    known = {p.key() for p in ctx.pairs}
    for k in left_keys:
        if k not in known:
            raise CheckFailure("partition names a pair that is not in the witness set", path)
    sl = [p for p in ctx.pairs if p.key() in left_keys]
    sr = [p for p in ctx.pairs if p.key() not in left_keys]
    ctx_l = _check(b.left, pc, Context.make(ctx.outer, sl, ctx.extracted), d.left, u, store, path + ("left",))
    f1 = extract_footprint(ctx.outer, ctx_l.outer)
    # each branch absorbs the partial footprint extracted for its sibling
    sr1 = sr if f1 == EMPTY else grow_pairs(sr, ctx.extracted, f1, path)
    ctx_r = _check(
        b.right, pc, Context.make(ctx_l.outer, sr1, ctx_l.extracted), d.right, u, store, path + ("right",)
    )
    f2 = extract_footprint(ctx_l.outer, ctx_r.outer)
    sl2 = ctx_l.pairs if f2 == EMPTY else grow_pairs(ctx_l.pairs, ctx_l.extracted, f2, path)
    return Context.make(ctx_r.outer, list(sl2) + list(ctx_r.pairs), ctx_r.extracted)


# -- the proof search ----------------------------------------------------------------

SEARCH_NODES = 1000  # options one proof search may try before it gives up


def active_pairs(ctx: Context, conds: PathCondition, store: Store) -> list[WitnessPair]:
    """The pairs whose available state satisfies the path condition."""
    return [p for p in ctx.pairs if pc_holds(conds, p.sigma_a, store)]


def _pair_demands(u, a, pair: WitnessPair, store, outer_heap) -> list[State]:
    try:
        return demands(u, a, pair.sigma_a.heap_dict(), store, fallback_heap=outer_heap)
    except Unframed as e:
        shown = format_assertion(a)
        raise CheckFailure(f"unframed expression while reducing {shown}: {e.description}")


def _gap(sigma_a: State, d: State) -> dict:
    return {rid: amt - have for rid, amt in d.mask if (have := sigma_a.mask_of(rid)) < amt}


def steps(
    u: Universe, ctx: Context, conds: PathCondition, a: Assertion, store: Store, what: str, heap: dict
):
    """The options for one proof step of ``a`` over the pairs active under
    ``conds``, best first.  An option that fails, or a step that has none,
    is yielded as its CheckFailure; a combination of targets that repeats
    an extraction already offered is yielded as None, so that the search
    counts every combination it looks at against its bound.  ``heap`` is
    ``ctx.outer``'s heap as a dict: extraction keeps the outer heap whole,
    so one search computes it once.

    Each active pair aims at a target demand: its covered demands first,
    then its uncovered ones by least shortfall (leftmost on ties).  An
    option extracts from the outer state the largest shortfall any pair
    has for its target (the Extract rule), then gives every active pair
    one demand it covers.  So the first option extracts each pair's least
    shortfall and chooses each pair's first covered demand; the others
    are built only when the search asks for them.  An option is the new
    context, the extracted state (None when nothing was extracted) and the
    choices keyed by each active pair's (available, assembled) states.
    """
    covered, targets = {}, []
    try:
        active = active_pairs(ctx, conds, store)
        for pair in active:
            ds = _pair_demands(u, a, pair, store, heap)
            if not ds:
                shown = format_assertion(a)
                why = (
                    f"{shown} does not hold"
                    if isinstance(a, Pure)
                    else f"insufficient permission for {shown}; no way to satisfy it"
                )
                raise CheckFailure(f"{what}: {why} for pair ({pair.sigma_a}, {pair.sigma_b})")
            held = [st.geq(pair.sigma_a, d) for d in ds]
            covered[pair.sigma_a, pair.sigma_b] = [d for d, h in zip(ds, held) if h]
            gaps = [_gap(pair.sigma_a, d) for d, h in zip(ds, held) if not h]
            gaps.sort(key=lambda g: sum(g.values()))
            targets.append([{}] * any(held) + gaps)
    except CheckFailure as e:
        yield e.with_traceback(None)
        return
    seen = set()
    for aims in product(*targets):
        needed = {}
        for gap in aims:
            for rid, amt in gap.items():
                needed[rid] = max(amt, needed.get(rid, amt))
        if (shape := frozenset(needed.items())) in seen:
            yield None  # an extraction already offered, yielded so the search counts it
            continue
        seen.add(shape)
        grown, sigma_w, after = ctx, None, covered
        if needed:  # then some pair aims at a gap
            witness = next(p for p, gap in zip(active, aims) if gap or not covered[p.sigma_a, p.sigma_b])
            # the outer state's value is the only one extraction can take; where
            # it has none, the containment check reports the missing permission
            values = {r: heap[r] for r in needed if isinstance(r, FieldLoc) and r in heap}
            sigma_w = State.make(needed, values)
            if not st.geq(ctx.outer, sigma_w):
                yield CheckFailure(
                    f"{what}: insufficient permission for {format_assertion(a)}; "
                    f"outer state lacks {sigma_w} (witness pair {witness.sigma_a})"
                )
                continue
            try:
                grown, after = apply_extract(ctx, sigma_w), {}
            except CheckFailure as e:
                yield CheckFailure(f"{what}: {e.message}")
                continue
            try:
                for p in active_pairs(grown, conds, store):
                    key = (p.sigma_a, p.sigma_b)
                    # a pair the extraction grew has new states, so its demands are new
                    after[key] = covered.get(key) or [
                        d for d in _pair_demands(u, a, p, store, heap) if st.geq(p.sigma_a, d)
                    ]
                    if not after[key]:
                        raise CheckFailure(
                            f"{what}: {format_assertion(a)} still unsatisfied for pair "
                            f"({p.sigma_a}, {p.sigma_b}) after extraction"
                        )
            except CheckFailure as e:
                yield e.with_traceback(None)
                continue
        for combo in product(*after.values()):
            yield grown, sigma_w, dict(zip(after, combo))


def prove(
    ctx: Context, pc: PathCondition, b: Assertion, u: Universe, store: Store
) -> tuple[Context, Derivation]:
    """Depth-first proof search over the right-hand side ``b``.

    Stars run left to right and implications add their guard to the path
    condition.  An atom tries the options of its step in order, and a
    later atom's failure backtracks to the next one.  So the greedy path
    comes first, and alternatives are built only when it fails, up to
    SEARCH_NODES options in all.  When nothing succeeds the search
    raises the first failure it met: the greedy path's.
    """
    heap = ctx.outer.heap_dict()
    found = _search(ctx, pc, b, u, store, heap, [SEARCH_NODES], lambda c, d: (c, d))
    if isinstance(found, CheckFailure):
        # a fresh exception: raising the local one would tie its traceback
        # and this frame into a cycle that only the garbage collector frees
        raise CheckFailure(found.message, found.path)
    return found


def _search(ctx, pc, b, u, store, heap, budget: list, k):
    """Prove ``b`` and pass the context and tree to the continuation ``k``:
    returns what ``k`` returns for the first option that succeeds, else the
    first failure met.  Failures are returned, not raised, so that the
    failure kept for later holds no frame of the search."""
    if isinstance(b, Star):
        def right(c1, d1):
            return _search(c1, pc, b.right, u, store, heap, budget, lambda c2, d2: k(c2, DStar(d1, d2)))

        return _search(ctx, pc, b.left, u, store, heap, budget, right)
    if isinstance(b, Imp):
        guarded = pc + (b.guard,)
        return _search(ctx, guarded, b.body, u, store, heap, budget, lambda c, d: k(c, DImplication(d)))
    first = None
    for n, option in enumerate(steps(u, ctx, pc, b, store, "prove", heap)):
        if n and budget[0] <= 0:
            break
        budget[0] -= 1
        if option is None:
            continue
        if not isinstance(option, CheckFailure):
            ctx1, sigma_w, choices = option
            node = DAtom.make(choices)
            tree = node if sigma_w is None else DExtract(sigma_w, node)
            option = k(apply_atom(b, pc, ctx1, node, u, store), tree)
            if not isinstance(option, CheckFailure):
                return option
        first = first or option
    return first


# -- canonical derivations ------------------------------------------------------------


def build_canonical_derivation(
    u: Universe,
    wand,
    sigma_w: State,
    store: Store,
) -> tuple[Configuration, Derivation]:
    """The completeness-probe derivation: extract the whole footprint at
    the root, then run the prover's search, which the emptied outer state
    leaves nothing more to extract.  Without extraction the pairs never
    interact, so each is searched alone and the trees are merged.
    Checker acceptance of this tree realizes the footprint."""
    conf = initial_configuration(u, wand, store, sigma_w)
    ctx = apply_extract(conf.context, sigma_w)
    alone = [Context.make(ctx.outer, [p], ctx.extracted) for p in ctx.pairs] or [ctx]
    trees = [prove(c, (), wand.rhs, u, store)[1] for c in alone]
    return conf, DExtract(sigma_w, reduce(_merge, trees))


def _merge(d1: Derivation, d2: Derivation) -> Derivation:
    """Two extraction-free trees of one right-hand side as one.  Pairs that meet
    in one state face the same atoms from there, so either's choice serves both."""
    if isinstance(d1, DStar):
        return DStar(_merge(d1.left, d2.left), _merge(d1.right, d2.right))
    if isinstance(d1, DImplication):
        return DImplication(_merge(d1.child, d2.child))
    return DAtom.make({(sa, sb): c for sa, sb, c in d1.choices + d2.choices})
