"""States and the separation-algebra operations over them.

A state pairs a permission mask (resource id -> fraction in [0,1]) with a
partial heap (field location -> value).  Addition is defined when the heaps
agree on their common domain and no per-resource permission sum exceeds 1;
the core of a state keeps the heap and zeroes the mask.  Heap values held
at zero permission are valid (the state is merely unstable) — cores and
verifier worlds rely on this.

Normal form: a state is the tuple (mask, heap).  Its mask is a tuple of
(resource id, positive ``Fraction``) entries and its heap a tuple of
(location, value) entries, both sorted by resource id, with no repeated
id.  An id is its own sort key (see ``universe``), so a sort needs no key
function and, since ids in one mask or heap are distinct, never compares
two amounts or values.  States sort as tuples too, by mask and then by
heap; the values one location holds share a type, so states, witness
pairs and worlds over one universe need no key function either, and only
a pool that mixes universes needs ``state_key``.  ``State.make`` is the
public constructor and establishes this from any input.  The algebra
below receives normal states only, so it builds its results with the
plain ``State(mask, heap)`` constructor, keeping entry order where it can
(scaling, filtering, subtraction) and sorting once where it cannot (the
keys an addition brings in).  Nothing outside this module builds a
``State`` that way.

Amounts stay ``Fraction``, but the kernel decides bounds and order on
their numerators and denominators: ``a/b <= c/d`` as ``a*d <= c*b`` and
``a/b + c/d > 1`` as ``a*d + c*b > b*d`` (denominators are positive),
which skips the generic dispatch of ``Fraction`` comparison.  ``add``
forms a sum the same way and builds its ``Fraction`` from the numerator
and denominator, skipping ``Fraction`` addition.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .exprs import ExprError
from .universe import (
    REF,
    FieldLoc,
    PredInst,
    ResourceId,
    Universe,
    UniverseError,
    Value,
    format_value,
    value_type,
    WandInst,
)

ZERO = Fraction(0)


class StateError(Exception):
    """Contract violation on a state operation (e.g. sub on non-geq inputs)."""


class State(NamedTuple):
    """Immutable (mask, heap) pair, normalized and hashable.

    Zero mask entries are dropped on construction; mask and heap are kept
    as sorted tuples so equal states compare and hash equal.
    """

    mask: tuple[tuple[ResourceId, Fraction], ...]
    heap: tuple[tuple[FieldLoc, Value], ...]

    @staticmethod
    def make(
        mask: Mapping[ResourceId, Fraction] | Iterable[tuple[ResourceId, Fraction]] = (),
        heap: Mapping[FieldLoc, Value] | Iterable[tuple[FieldLoc, Value]] = (),
    ) -> "State":
        if isinstance(mask, (dict, Mapping)):  # dict first: the ABC's check is slow
            mask = mask.items()
        m = {}
        for rid, amt in mask:
            if type(amt) is not Fraction:
                amt = Fraction(amt)
            n = amt.numerator
            if n < 0 or n > amt.denominator:
                raise StateError(f"permission {amt} for {rid} outside [0, 1]")
            if n:
                m[rid] = amt
        h = heap if isinstance(heap, dict) else dict(heap)
        return State(tuple(sorted(m.items())), tuple(sorted(h.items())))

    # -- accessors ----------------------------------------------------------

    def mask_of(self, rid: ResourceId) -> Fraction:
        for r, a in self.mask:
            if r == rid:
                return a
        return ZERO

    def heap_value(self, loc: FieldLoc) -> Optional[Value]:
        for l, v in self.heap:
            if l == loc:
                return v
        return None

    def mask_dict(self) -> dict[ResourceId, Fraction]:
        return dict(self.mask)

    def heap_dict(self) -> dict[FieldLoc, Value]:
        return dict(self.heap)

    def __str__(self) -> str:
        parts = [f"{rid}@{amt}" + (f"={format_value(self.heap_value(rid))}"
                                   if isinstance(rid, FieldLoc) and self.heap_value(rid) is not None
                                   else "")
                 for rid, amt in self.mask]
        owned = {rid for rid, _ in self.mask}
        parts += [f"{loc}@0={format_value(v)}" for loc, v in self.heap if loc not in owned]
        return "{" + ", ".join(parts) + "}"


EMPTY = State.make()


def state_key(s: State) -> tuple:
    """The order of states extended to pools that mix universes, where
    one location may hold values of two types: each value is tagged with
    its type, as a predicate instance's arguments are."""
    return (s.mask, tuple([(l, (value_type(v), v)) for l, v in s.heap]))


def validate(s: State, u: Universe) -> None:
    """Check a state against its universe: every resource is a declared
    location, a declared predicate instance or a closed wand over declared
    references and fields, and every heap value lies in its domain."""
    declared = set(u.predicate_instances())
    for rid, amt in s.mask:
        if isinstance(rid, FieldLoc):
            if not u.has_location(rid):
                raise StateError(f"mask entry for undeclared location {rid}")
            if amt > 0 and s.heap_value(rid) is None:
                raise StateError(f"owned location {rid} has no heap value")
        elif isinstance(rid, PredInst) and rid not in declared:
            raise StateError(f"undeclared predicate instance {rid}")
        elif isinstance(rid, WandInst):
            _validate_wand(rid, u)
    for loc, v in s.heap:
        if not u.has_location(loc):
            raise StateError(f"heap entry for undeclared location {loc}")
        dom = u.domain(loc)
        if v not in dom or value_type(v) != value_type(dom[0]):
            raise StateError(f"value {format_value(v)} outside domain of {loc}")


def _validate_wand(rid: WandInst, u: Universe) -> None:
    from .assertions import AssertionError_, Wand, typecheck  # both import this module
    from .parser import ParseError, parse_assertion_text

    try:
        w = parse_assertion_text(rid.key)
        if not isinstance(w, Wand):
            raise StateError("not a wand")
        typecheck(w, u, dict.fromkeys(u.refs, REF))
    except (StateError, ParseError, AssertionError_, ExprError, UniverseError) as e:
        raise StateError(f"{rid} is not a closed wand over the universe: {e}") from None


# -- separation algebra ------------------------------------------------------


def add(a: State, b: State) -> Optional[State]:
    """Partial addition: None (undefined) when the states are incompatible.
    Two amounts of one resource sum as a/b + c/d = (a*d + c*b)/(b*d)."""
    heap = _merged_heap(a.heap, b.heap)
    if heap is None:
        return None
    if not b.mask:
        return State(a.mask, heap)
    if not a.mask:
        return State(b.mask, heap)
    m = dict(a.mask)
    grew = False
    for rid, amt in b.mask:
        have = m.get(rid)
        if have is None:
            m[rid] = amt
            grew = True
            continue
        hd, ad = have.denominator, amt.denominator
        num, den = have.numerator * ad + amt.numerator * hd, hd * ad
        if num > den:
            return None
        m[rid] = Fraction(num, den)
    # a's keys keep their order; only keys b brings in need a sort
    mask = tuple(sorted(m.items())) if grew else tuple(m.items())
    return State(mask, heap)


def _merged_heap(ah: tuple, bh: tuple) -> Optional[tuple]:
    """The union of two sorted heaps, or None where they disagree."""
    if not bh:
        return ah
    if not ah:
        return bh
    h = dict(ah)
    grew = False
    for loc, v in bh:
        have = h.get(loc)
        if have is None:
            h[loc] = v
            grew = True
        elif have != v:
            return None
    if not grew:
        return ah
    if len(h) == len(bh):
        return bh
    return tuple(sorted(h.items()))


def compatible(a: State, b: State) -> bool:
    return add(a, b) is not None


def addable(a_heap: dict, a_mask: dict, b: State, restricted: bool) -> bool:
    """Exactly when ``add(a, b)`` is defined, or, when ``restricted``,
    ``add(a, restrict(a, b))``, for the state a whose heap and mask are
    given as dicts: a test that builds no state.

    Plain: the heaps agree where both hold a value, and no amount sums
    above 1.  Restricted: the test of ``exists_compatible_scaled``, over
    the dicts; when it holds the capped amounts fit, and otherwise
    ``restrict`` returns b unchanged, which either disagrees with a's
    heap or exceeds 1 where a is full.
    """
    for loc, v in b.heap:
        if a_heap.get(loc, v) != v:
            return False
    if restricted:
        for rid, _ in b.mask:
            have = a_mask.get(rid)
            if have is not None and have.numerator >= have.denominator:
                return False
        return True
    for rid, amt in b.mask:
        have = a_mask.get(rid)
        if have is not None:
            hd, ad = have.denominator, amt.denominator
            if have.numerator * ad + amt.numerator * hd > hd * ad:
                return False
    return True


def core(a: State) -> State:
    return State((), a.heap)


def is_pure(a: State) -> bool:
    return not a.mask


def is_stable(a: State) -> bool:
    """Heap values exactly where field permission is positive.

    Predicate and wand resources carry no heap entry, so only field
    locations are constrained.
    """
    owned = {rid for rid, _ in a.mask if isinstance(rid, FieldLoc)}
    held = {loc for loc, _ in a.heap}
    return owned == held


def geq(a: State, b: State) -> bool:
    """a >= b in the induced order: some r exists with a = b (+) r."""
    return geq_dicts(a.heap_dict(), a.mask_dict(), b)


def geq_dicts(a_heap: dict, a_mask: dict, b: State) -> bool:
    """``geq(a, b)`` for the state a whose heap and mask are given as dicts.
    A missing mask entry holds 0, below every amount of a normal mask."""
    for rid, amt in b.mask:
        have = a_mask.get(rid)
        if have is None or have.numerator * amt.denominator < amt.numerator * have.denominator:
            return False
    return all(a_heap.get(loc) == v for loc, v in b.heap)


def sub(a: State, b: State) -> State:
    """The largest r with a = b (+) r: mask difference, a's heap in full.

    Keeping the whole heap (not just the remaining support) is what makes
    the result maximal — the pure part is duplicable.
    """
    if not geq(a, b):
        raise StateError("sub requires the first state to be >= the second")
    bm = b.mask_dict()
    mask = []
    for rid, amt in a.mask:
        if rid in bm:
            amt -= bm[rid]
            if not amt:
                continue
        mask.append((rid, amt))
    return State(tuple(mask), a.heap)


# -- fractional-permission extras ---------------------------------------------


def mult(alpha: Fraction, s: State) -> Optional[State]:
    """alpha (*) s: scale every permission; undefined if any amount exceeds 1."""
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    if alpha.numerator <= 0:
        raise StateError("scaling factor must be positive")
    mask = []
    for rid, amt in s.mask:
        scaled = alpha * amt
        if scaled.numerator > scaled.denominator:
            return None
        mask.append((rid, scaled))
    return State(tuple(mask), s.heap)


def exists_compatible_scaled(sigma_a: State, sigma_w: State) -> bool:
    """Is some scaled copy of sigma_w compatible with sigma_a?

    Closed form instead of quantifying over infinitely many alpha: heaps
    are alpha-invariant, and for a small enough alpha the mask sums shrink
    below 1 wherever sigma_a is not already full.  So: heaps must agree,
    and every resource sigma_w owns must be strictly below 1 in sigma_a.
    """
    return addable(sigma_a.heap_dict(), sigma_a.mask_dict(), sigma_w, restricted=True)


def restrict(sigma_a: State, sigma_w: State) -> State:
    """The combinable-wand transform: cap sigma_w so all its scaled copies
    stay compatible with sigma_a, or return it unchanged when no scaled
    copy is compatible at all.

    The cap min(pi_w, 1 - pi_a) is applied uniformly to every resource id,
    predicate and wand instances included.
    """
    if not exists_compatible_scaled(sigma_a, sigma_w):
        return sigma_w
    return capped(sigma_a.mask_dict(), sigma_w)


def capped(a_mask: dict, sigma_w: State) -> State:
    """``restrict(a, sigma_w)`` for the state a whose mask ``a_mask`` is,
    once ``addable(..., restricted=True)`` has passed: each amount capped
    at min(pi_w, 1 - pi_a).  Every cap is positive, since a holds less
    than 1 of each resource sigma_w owns."""
    mask = tuple((rid, min(amt, 1 - a_mask.get(rid, ZERO))) for rid, amt in sigma_w.mask)
    return State(mask, sigma_w.heap)


def bin_mask(s: State) -> State:
    """Binary restriction: keep full-permission entries, zero the rest."""
    return State(tuple(e for e in s.mask if e[1] == 1), s.heap)


# -- enumeration --------------------------------------------------------------


class BudgetExceeded(Exception):
    def __init__(self, count: int, budget: int):
        super().__init__(f"universe has {count} states, over the budget of {budget}")
        self.count = count
        self.budget = budget


def count_states(u: Universe, stable_only: bool = False) -> int:
    """The product of the lengths of ``resource_options``, in closed form so
    that a budget refusal costs nothing even at a huge granularity."""
    g = u.granularity
    n = 1
    for loc in u.sorted_locations():
        d = len(u.domain(loc))
        n *= 1 + g * d if stable_only else 1 + (g + 1) * d
    for _ in u.predicate_instances():
        n *= g + 1
    return n


def resource_options(u: Universe, stable_only: bool = False) -> list[list[tuple]]:
    """Each resource's options on the granularity lattice, as (mask entry,
    heap entry) pairs with None where absent: for a location, none, a value
    at zero permission (unless ``stable_only``), or a value at each
    positive amount; for a predicate instance, none or each positive
    amount.  Locations come sorted and predicate instances follow them in
    id order, so the entries of every state come out sorted."""
    amounts = u.fraction_lattice()[1:]
    out = []
    for loc in u.sorted_locations():
        dom = u.domain(loc)
        zero = [] if stable_only else [(None, (loc, v)) for v in dom]
        out.append([(None, None)] + zero + [((loc, p), (loc, v)) for p in amounts for v in dom])
    out += [[(None, None)] + [((pid, p), None) for p in amounts] for pid in u.predicate_instances()]
    return out


# at most about this many entries in any one numpy temporary of a pass over
# many states: the law suite's n² passes and the combinability sweep
BLOCK_ENTRIES = 1 << 16


class Codec:
    """The integer codes of a universe's states, shared by the law suite and
    the oracle's combinability sweep: one column per resource, in
    ``resource_options`` order; an amount as its numerator over the
    granularity; a heap value as 1 + its index in the location's domain,
    and 0 where there is none (predicate columns never hold one)."""

    def __init__(self, u: Universe):
        self.universe = u
        self.g = u.granularity
        self.locs = u.sorted_locations()
        self.rids = [*self.locs, *u.predicate_instances()]
        self._domains = [u.domain(loc) for loc in self.locs]
        self._column = {rid: i for i, rid in enumerate(self.rids)}
        self._values = [{v: i + 1 for i, v in enumerate(dom)} for dom in self._domains]

    def amount(self, amt: Fraction) -> int:
        """``amt`` as a numerator over the granularity."""
        q, r = divmod(self.g, amt.denominator)
        if r:
            raise StateError(f"permission {amt} is off the lattice of granularity {self.g}")
        return amt.numerator * q

    def value(self, loc: FieldLoc, v: Value) -> int:
        return self._values[self._column[loc]][v]

    def options(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each resource's ``resource_options`` as an array of numerators and
        an array of value codes, one entry per option."""
        return [
            (
                np.array([0 if m is None else self.amount(m[1]) for m, _ in opts], dtype=np.int64),
                np.array([0 if h is None else self.value(*h) for _, h in opts], dtype=np.int64),
            )
            for opts in resource_options(self.universe)
        ]

    def encode(self, states: Sequence[State]) -> tuple[np.ndarray, np.ndarray]:
        """N and V: the numerators and value codes of lattice ``states`` over
        this universe, one row per state and one column per resource."""
        N = np.zeros((len(states), len(self.rids)), dtype=np.int64)
        V = np.zeros_like(N)
        for i, s in enumerate(states):
            for rid, amt in s.mask:
                N[i, self._column[rid]] = self.amount(amt)
            for loc, v in s.heap:
                V[i, self._column[loc]] = self.value(loc, v)
        return N, V

    def decode(self, nums: Sequence[int], den: int, vals: Sequence[int]) -> State:
        """The state holding nums[i]/den of column i's resource, exactly, and
        the value coded vals[i] there: ``encode``'s inverse at den = g.
        Each numerator must lie in [0, den]."""
        return State(
            tuple((rid, Fraction(n, den)) for rid, n in zip(self.rids, nums) if n),
            tuple((loc, dom[c - 1]) for loc, dom, c in zip(self.locs, self._domains, vals) if c),
        )


def enumerate_states(
    u: Universe,
    stable_only: bool = False,
    budget: int = 10**6,
) -> Iterator[State]:
    """All valid states of the universe on the granularity lattice: the
    product of ``resource_options``, the last resource varying fastest."""
    n = count_states(u, stable_only)
    if n > budget:
        raise BudgetExceeded(n, budget)
    for combo in itertools.product(*resource_options(u, stable_only)):
        yield State(
            tuple([m for m, _ in combo if m is not None]),
            tuple([h for _, h in combo if h is not None]),
        )


def antichain(states: Sequence[State]) -> list[State]:
    """The states that dominate no other state, each once, in order of
    first occurrence.  A state can dominate another only when the other
    has no more mask entries and the same heap or a shorter one, so only
    such pairs reach the ``geq`` test: fork demands, which differ in heap
    values alone, never do."""
    if len(states) < 2:
        return list(states)
    distinct = list(dict.fromkeys(states))
    out: list[State] = []
    for s in distinct:
        sh, sm = s.heap_dict(), s.mask_dict()
        if not any(
            t is not s
            and len(t.mask) <= len(sm)
            and (t.heap == s.heap or len(t.heap) < len(sh))
            and geq_dicts(sh, sm, t)
            for t in distinct
        ):
            out.append(s)
    return out


def minimal_elements(states: Iterable[State]) -> list[State]:
    """The >=-antichain of minimal states, in deterministic order."""
    return sorted(antichain(list(states)))
