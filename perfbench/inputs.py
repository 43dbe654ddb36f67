"""Seeded input generators for the benchmark workloads.

Every input is produced as text (universe, program, assertion and state
literals), so the same seed gives byte-identical inputs on any commit and
the digest below identifies them.  Nothing here imports the package under
test: set-up parses these texts with wandpack's own parser.

The theorem-sweep generator follows the acceptance suite's generator
(2-3 locations rooted at one reference, granularity 2, sometimes a
one-location predicate, well-formed wands) but is written independently,
so edits to the tests cannot shift benchmark inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

FIELDS = ("f", "g", "h")


def digest(texts) -> str:
    """Short SHA-256 over the generated input texts, in order."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- theorem-sweep -------------------------------------------------------------


@dataclass(frozen=True)
class Draw:
    """One random universe with a wand over it and an outer state."""

    stream: str  # "package", "minimal" or "pair": the acceptance criterion it mirrors
    index: int
    nlocs: int
    universe: str
    wand: str  # standard or combinable, per the draw's role
    outer: str


def _universe(rng: random.Random, nlocs: int, wide: int, with_predicate: bool):
    """``wide`` of the locations get a two-value domain (bool or int {0, 1},
    equally likely), the rest int {0}.  In the acceptance generator each
    location is two-valued with probability 2/3."""
    fields = FIELDS[:nlocs]
    two = set(rng.sample(fields, wide))
    domains = {}
    lines = ["universe v1", "granularity 2", "refs x"]
    for f in fields:
        if f in two and rng.random() < 0.5:
            domains[f] = ["false", "true"]
            lines.append(f"loc x.{f}: bool")
        else:
            domains[f] = ["0", "1"] if f in two else ["0"]
            lines.append(f"loc x.{f}: int {{{', '.join(domains[f])}}}")
    pred = None
    if with_predicate:
        pred = rng.choice(fields)
        lines.append(f"pred Cell(r) = acc(r.{pred})")
    return "\n".join(lines) + "\n", fields, domains, pred


def _balanced(weights: list[int]) -> list[int]:
    """A cycle holding class k ``weights[k]`` times, ordered so that every
    prefix is as close to the proportions as whole counts allow."""
    total = sum(weights)
    seen = [0] * len(weights)
    out = []
    for t in range(1, total + 1):
        k = max(range(len(weights)), key=lambda k: (t * weights[k] / total - seen[k], -k))
        seen[k] += 1
        out.append(k)
    return out


# Number of two-valued locations, Binomial(n, 2/3) as exact cycles.
WIDE = {2: _balanced([1, 4, 4]), 3: _balanced([1, 6, 12, 8])}


def _assertion(rng, fields, domains, pred, depth, framed=frozenset(), binary=False):
    """Returns (text, fields framed by it); well-formed by construction:
    a field is read only after an accessibility atom to its left frames it."""
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        if pred is not None and rng.random() < 0.25:
            whole = binary or rng.random() < 0.7
            return ("Cell(x)" if whole else "acc(Cell(x), 1/2)"), frozenset()
        f = rng.choice(fields)
        whole = binary or rng.random() < 0.6
        return (f"acc(x.{f})" if whole else f"acc(x.{f}, 1/2)"), frozenset({f})
    if roll < 0.6 and framed:
        f = rng.choice(sorted(framed))
        return f"x.{f} == {rng.choice(domains[f])}", frozenset()
    if roll < 0.8:
        left, f1 = _assertion(rng, fields, domains, pred, depth - 1, framed, binary)
        right, f2 = _assertion(rng, fields, domains, pred, depth - 1, framed | f1, binary)
        return f"({left} * {right})", f1 | f2
    if roll < 0.9 and framed:
        f = rng.choice(sorted(framed))
        guard = f"x.{f} == {rng.choice(domains[f])}"
        body, _ = _assertion(rng, fields, domains, pred, depth - 1, framed, binary)
        return f"({guard} ==> {body})", frozenset()
    left, f1 = _assertion(rng, fields, domains, pred, depth - 1, framed, binary)
    right, f2 = _assertion(rng, fields, domains, pred, depth - 1, framed, binary)
    return f"({left} || {right})", f1 & f2


def _outer(rng, fields, domains, pred) -> str:
    """A stable state biased toward rich states, so packages have material."""
    parts = []
    for f in fields:
        p = rng.choice(["1", "1", "1", "1/2", None])
        if p is not None:
            parts.append(f"x.{f} @ {p} = {rng.choice(domains[f])}")
    if pred is not None:
        p = rng.choice([None, None, "1", "1/2"])
        if p is not None:
            parts.append(f"Cell(x) @ {p}")
    return "{" + ", ".join(parts) + "}"


# Draws per stream and round.  The streams mirror acceptance criteria 4
# (package, then audit), 5 (minimal footprints, then derivations) and 8
# (properties of the restricted wand), with their predicate and
# binary-LHS cadence.  The package stream is the largest, as criterion 4
# is in the suite; its queries are short, so the median latency rests on
# many samples.  Universe size drives the cost, so it is stratified:
# every third draw has 3 locations (the generator's probability) and the
# number of two-valued domains follows the generator's distribution in
# fixed cycles.  Each round then holds the same mix of sizes and its cost
# does not swing with the seed; the wands, the domain kinds and the outer
# states stay random.  A predicate instance triples the state count, and
# over 3 locations one minimal-footprint query with a predicate ranges
# from 0.01 s to over 1 s; a handful of those set the pace of a whole
# round.  So predicates come only with 2 locations.
STREAMS = {"package": 300, "minimal": 60, "pair": 240}


def theorem_draws(seed: int) -> list[Draw]:
    rng = random.Random(f"theorem-sweep:{seed}")
    draws = []
    for stream, count in STREAMS.items():
        seen = {2: 0, 3: 0}
        for i in range(count):
            nlocs = 3 if (i // 3) % 3 == 1 else 2
            wide = WIDE[nlocs][seen[nlocs] % len(WIDE[nlocs])]
            seen[nlocs] += 1
            cadence = {"package": i % 3 == 2, "minimal": i % 4 == 3, "pair": False}[stream]
            pred = cadence and nlocs == 2
            combinable = stream == "package" and i % 2 == 1
            binary = stream == "pair" and i % 3 == 0
            utext, fields, domains, p = _universe(rng, nlocs, wide, pred)
            lhs, framed = _assertion(rng, fields, domains, p, rng.choice([0, 1, 2]), binary=binary)
            rhs, _ = _assertion(rng, fields, domains, p, rng.choice([1, 2]), framed=framed)
            op = "--*c" if combinable else "--*"
            outer = _outer(rng, fields, domains, p)
            draws.append(Draw(stream, i, nlocs, utext, f"{lhs} {op} {rhs}", outer))
    return draws


# -- package-scaling -------------------------------------------------------------

# Each template maps its name to (algorithm, wand, body); ``{a}``, ``{b}``, ``{c}``
# name three distinct locations and ``{v}`` / ``{w}`` the two values of
# x.{a}.  The verdicts are known by hand:
#   disjunctive  -- the RHS needs x.{b} in both LHS cases; every algorithm
#                   extracts it and the apply/assert go through.
#   combinable   -- half of x.{a} in, half of x.{a} plus x.{b} out; the
#                   restricted footprint is x.{b} and the program verifies.
#   proof-false  -- the RHS needs x.{b} in one LHS case and x.{c} in the
#                   other.  The sound algorithm extracts both, so the
#                   introspecting assert fails (REJECTED); the per-case
#                   baseline takes one per case, forks the world, and the
#                   apply then makes every world inconsistent, so
#                   `assert false` holds (VERIFIED).
TEMPLATES = {
    "disjunctive": (
        "sound",
        "acc(x.{a}) * (x.{a} == {v} || x.{a} == {w}) --* acc(x.{a}) * acc(x.{b})",
        "  package {W}\n  apply {W}\n  assert acc(x.{a}) * acc(x.{b})\n",
    ),
    "combinable": (
        "combinable",
        "acc(x.{a}, 1/2) --*c acc(x.{a}, 1/2) * acc(x.{b})",
        "  package {W}\n  assert perm(x.{b}) == none\n  apply {W}\n  assert acc(x.{a}) * acc(x.{b})\n",
    ),
    "proof-false": (
        "sound",
        "acc(x.{a}) * (x.{a} == {v} || x.{a} == {w}) --* "
        "acc(x.{a}) * (x.{a} == {v} ==> acc(x.{b})) * (x.{a} == {w} ==> acc(x.{c}))",
        "  package {W}\n"
        "  assert ({W}) * acc(x.{a}) * (perm(x.{b}) == write || perm(x.{c}) == write)\n"
        "  if (perm(x.{b}) == write) {{ x.{a} := {v} }} else {{ x.{a} := {w} }}\n"
        "  apply {W}\n"
        "  assert false\n",
    ),
}

EXPECTED_VERIFIED = {
    ("disjunctive", "sound"): True,
    ("disjunctive", "fia"): True,
    ("combinable", "combinable"): True,
    ("combinable", "fia"): True,
    ("proof-false", "sound"): False,
    ("proof-false", "fia"): True,
}

# Strata: (locations, locations the requires clause covers, LHS location).
# The roles are fixed too: b and c are the first two locations other than
# a.  Where they fall in the state order moves a program's cost by up to
# 1.6x, and a round has only 24 programs, so the seed chooses only the
# value order, the order of the requires clause and the order of
# operations; a round then costs the same on every seed.  Cost depends on where the LHS location
# falls in the state order: one stratum puts it last, where the minimal-set
# scan of witness-set initialisation is slowest.
SIZES = ((3, 3, "first"), (4, 4, "first"), (5, 3, "first"), (4, 3, "last"))


@dataclass(frozen=True)
class ScalingProgram:
    template: str
    algorithm: str  # the template's own algorithm, or "fia"
    nlocs: int
    universe: str
    program: str
    wand: str
    required: tuple[str, ...]  # location fields the requires clause covers
    roles: tuple[str, str, str]  # the fields playing a, b and c

    @property
    def expected_verified(self) -> bool:
        return EXPECTED_VERIFIED[(self.template, self.algorithm)]


def scaling_programs(seed: int) -> list[ScalingProgram]:
    rng = random.Random(f"package-scaling:{seed}")
    out = []
    for n, k, lhs in SIZES:
        fields = [f"f{i}" for i in range(n)]
        utext = "universe v1\ngranularity 2\nrefs x\n" + "".join(
            f"loc x.{f}: int {{0, 1}}\n" for f in fields
        )
        for name, (alg, wand_t, body_t) in TEMPLATES.items():
            a = fields[0] if lhs == "first" else fields[-1]
            b, c = [f for f in fields if f != a][:2]
            v, w = rng.sample(["0", "1"], 2)
            others = [f for f in fields if f not in (a, b, c)]
            required = [a, b, c] + rng.sample(others, k - 3)
            rng.shuffle(required)
            wand = wand_t.format(a=a, b=b, c=c, v=v, w=w)
            body = body_t.format(W=wand, a=a, b=b, c=c, v=v, w=w)
            requires = " * ".join(f"acc(x.{f})" for f in required)
            ptext = f"program v1\nmethod main(x: Ref)\n  requires {requires}\n{{\n{body}}}\n"
            for algorithm in (alg, "fia"):
                out.append(ScalingProgram(name, algorithm, n, utext, ptext, wand, tuple(required), (a, b, c)))
    rng.shuffle(out)
    return out
