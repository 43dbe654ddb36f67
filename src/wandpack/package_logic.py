"""The package logic: configurations, witness sets, and a derivation checker.

A derivation is an explicit tree of rule applications (implication, star,
atom, extract, disjunction) carrying all rule parameters, so it can be
re-validated after the fact.  ``check_derivation`` re-checks every premise
literally and either returns the final context or raises ``CheckFailure``
at the first violated premise.  Each witness pair carries a monotonic
transformer (the identity, or the restriction that combinable-wand
packaging builds on), and the context tracks the footprint extracted so
far, so one checker serves both wand kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from . import states as st
from .assertions import (
    Assertion,
    Imp,
    OrA,
    Star,
    contains_wand,
    demands,
    format_assertion,
    is_atom,
    minimal_lhs_states,
)
from .exprs import Expr, Store, Unframed, eval_bool, format_expr
from .states import EMPTY, State, state_key
from .universe import Universe


class CheckFailure(Exception):
    """A violated premise, with the rule path that led to it."""

    def __init__(self, message: str, path: Sequence[str] = ()):
        self.message = message
        self.path = tuple(path)
        where = " > ".join(self.path) if self.path else "root"
        super().__init__(f"{where}: {message}")


# -- transformers ----------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    def __call__(self, s: State) -> State:
        return s

    def describe(self) -> str:
        return "identity"


@dataclass(frozen=True)
class CombinableR:
    """The per-pair footprint transform anchored at an LHS state."""

    anchor: State

    def __call__(self, s: State) -> State:
        return st.restrict(self.anchor, s)

    def describe(self) -> str:
        return f"restrict@{self.anchor}"


Transformer = Union[Identity, CombinableR]


@dataclass(frozen=True)
class WitnessPair:
    sigma_a: State
    sigma_b: State
    transformer: Transformer = Identity()

    def key(self) -> tuple:
        return (state_key(self.sigma_a), state_key(self.sigma_b))

    def full_key(self) -> tuple:
        anchor = (
            state_key(self.transformer.anchor)
            if isinstance(self.transformer, CombinableR)
            else ()
        )
        return self.key() + (anchor,)


@dataclass(frozen=True)
class Context:
    """Outer state, witness set, and the footprint extracted so far."""

    outer: State
    pairs: tuple[WitnessPair, ...]
    extracted: State = EMPTY

    @staticmethod
    def make(outer: State, pairs, extracted: State = EMPTY) -> "Context":
        # deduplication must keep pairs whose transformers differ: they are
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

    def choice_for(self, sigma_a: State, sigma_b: State) -> Optional[State]:
        for sa, sb, c in self.choices:
            if sa == sigma_a and sb == sigma_b:
                return c
        return None


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


def ctx_heap(pair: WitnessPair) -> dict:
    """Expression evaluation context inside packaging: the combined heap.

    Heap values are duplicable, so sigma_a (+) sigma_b is always defined
    for invariant-respecting pairs.
    """
    combined = st.add(pair.sigma_a, pair.sigma_b)
    if combined is None:
        raise CheckFailure(f"witness pair is internally incompatible: {pair.sigma_a} / {pair.sigma_b}")
    return combined.heap_dict()


def atom_satisfied_by(
    u: Universe, choice: State, atom: Assertion, heap: Mapping, store: Store
) -> bool:
    ds = demands(u, atom, heap, store)
    return any(st.geq(choice, d) for d in ds)


def init_witness_set(
    a: Assertion,
    u: Universe,
    minimal: bool,
    store: Store,
    combinable: bool = False,
) -> tuple[WitnessPair, ...]:
    """Initial pairs (sigma_a, e), one per stable state satisfying the LHS.

    With ``minimal`` only the order-minimal satisfying states are kept —
    sound because the assertion fragment is intuitionistic.  They are
    built from the LHS's demands, so the cost follows the assertion, not
    the universe; the LHS must be self-framing, as every package entry
    point checks.  The universe is enumerated only for all satisfying
    states (``minimal=False``) and for an LHS holding a wand atom
    (demands read a wand as a token, satisfaction reads it
    semantically).  For the lifted (combinable) form each pair carries
    its restriction transformer anchored at the satisfying state itself.
    """
    if minimal and not contains_wand(a):
        sats = minimal_lhs_states(u, a, store)
    else:
        from .assertions import lhs_states

        sats = lhs_states(u, a, store)
        if minimal:
            sats = st.minimal_elements(sats)
    pairs = []
    for s in sats:
        t: Transformer = CombinableR(s) if combinable else Identity()
        pairs.append(WitnessPair(s, EMPTY, t))
    return Context.make(EMPTY, pairs).pairs


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
        out.append(WitnessPair(st.add(pair.sigma_a, delta), pair.sigma_b, pair.transformer))
    return out


def pair_delta(pair: WitnessPair, extracted: State, sigma_w: State, path=()) -> State:
    """What this pair receives when sigma_w is extracted.

    With an identity transformer this is sigma_w itself; in the lifted
    logic it is t(sigma_f (+) sigma_w) minus t(sigma_f), the next slice of
    the transformed footprint.
    """
    if isinstance(pair.transformer, Identity):
        return sigma_w
    whole = st.add(extracted, sigma_w)
    if whole is None:
        raise CheckFailure("extracted footprint is internally incompatible", path)
    t_new = pair.transformer(whole)
    t_old = pair.transformer(extracted)
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
        return _check_extract(b, pc, ctx, d, u, store, here)
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
    return _check_atom(b, pc, ctx, d, u, store, here)


def apply_extract(ctx: Context, sigma_w: State, path=()) -> Context:
    """One application of the Extract rule: move sigma_w out of the outer
    state and into each pair's available state (through its transformer),
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


def _check_extract(b, pc, ctx: Context, d: DExtract, u, store, path) -> Context:
    return _check(b, pc, apply_extract(ctx, d.sigma_w, path), d.child, u, store, path)


def _check_atom(b, pc, ctx: Context, d: DAtom, u, store, path) -> Context:
    new_pairs = []
    for pair in ctx.pairs:
        if not pc_holds(pc, pair.sigma_a, store, path):
            new_pairs.append(pair)
            continue
        choice = d.choice_for(pair.sigma_a, pair.sigma_b)
        if choice is None:
            raise CheckFailure(f"no choice supplied for pair ({pair.sigma_a}, {pair.sigma_b})", path)
        if not st.geq(pair.sigma_a, choice):
            raise CheckFailure(
                f"choice {choice} is not contained in the available state {pair.sigma_a}", path
            )
        try:
            heap = ctx_heap(pair)
            ok = atom_satisfied_by(u, choice, b, heap, store)
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
        new_pairs.append(WitnessPair(moved_a, moved_b, pair.transformer))
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


# -- canonical derivations ------------------------------------------------------------


def _linearize(b: Assertion, guards: tuple[Expr, ...] = ()) -> list[tuple[tuple[Expr, ...], Assertion]]:
    if isinstance(b, Star):
        return _linearize(b.left, guards) + _linearize(b.right, guards)
    if isinstance(b, Imp):
        return _linearize(b.body, guards + (b.guard,))
    return [(guards, b)]


def _solve_pair(u, sigma_a: State, heap, atoms, store) -> Optional[list[Optional[State]]]:
    """Depth-first per-pair choice assignment covering every active atom."""

    def go(i: int, remaining: State, acc: list[Optional[State]]):
        if i == len(atoms):
            return acc
        guards, atom = atoms[i]
        try:
            active = all(eval_bool(g, heap, store) for g in guards)
        except Unframed:
            return None
        if not active:
            return go(i + 1, remaining, acc + [None])
        try:
            ds = demands(u, atom, heap, store)
        except Unframed:
            return None
        for dchoice in ds:
            if st.geq(remaining, dchoice):
                res = go(i + 1, st.sub(remaining, dchoice), acc + [dchoice])
                if res is not None:
                    return res
        return None

    return go(0, sigma_a, [])


def build_canonical_derivation(
    u: Universe,
    wand,
    sigma_w: State,
    store: Store,
) -> tuple[Configuration, Derivation]:
    """The completeness-probe derivation: extract the whole footprint at
    the root, then reduce the right-hand side with per-pair greedy (DFS)
    atom choices.  Checker acceptance of this tree realizes the footprint."""
    pairs0 = init_witness_set(wand.lhs, u, True, store, combinable=wand.combinable)
    conf = Configuration(wand.rhs, (), Context.make(sigma_w, pairs0))
    # simulate the extraction to know each pair's final available state
    grown = grow_pairs(pairs0, EMPTY, sigma_w)
    atoms = _linearize(wand.rhs)
    per_pair: dict[tuple, list[Optional[State]]] = {}
    for pair in grown:
        heap = ctx_heap(pair)
        sol = _solve_pair(u, pair.sigma_a, heap, atoms, store)
        if sol is None:
            raise CheckFailure(
                f"no canonical choice sequence for pair ({pair.sigma_a}, {pair.sigma_b})"
            )
        per_pair[pair.full_key()] = sol

    # Assemble the tree by replaying the checker's pair evolution so atom
    # choices are keyed by the pair values at the moment the atom fires.
    index = [0]
    cursor: dict[tuple, tuple[State, State]] = {p.full_key(): (p.sigma_a, p.sigma_b) for p in grown}

    def build(b: Assertion) -> Derivation:
        if isinstance(b, Star):
            return DStar(build(b.left), build(b.right))
        if isinstance(b, Imp):
            return DImplication(build(b.body))
        i = index[0]
        index[0] += 1
        choices = {}
        for k0 in list(cursor):
            sol = per_pair[k0][i]
            if sol is None:
                continue
            sa, sb = cursor[k0]
            choices[(sa, sb)] = sol
            cursor[k0] = (st.sub(sa, sol), st.add(sb, sol))
        return DAtom.make(choices)

    tree = build(wand.rhs)
    return conf, DExtract(sigma_w, tree)
