"""Microbenchmarks of the state algebra and of assertion evaluation.

They run on the left-hand-side pools the staged replay built from the
workload's own inputs, not on synthetic singletons, and report the median
of a few repeats in microseconds per call.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

PAIRS = 2000
REPEATS = 3
POOL = 400


def _per_call_us(fn, items) -> float:
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for it in items:
            fn(*it)
        runs.append(time.perf_counter() - t0)
    runs.sort()
    return runs[len(runs) // 2] / max(1, len(items)) * 1e6


def run(wp, seed: int, pools: list, universes: list, assertions: list) -> dict:
    """``pools``: (universe, states) captured by the replay; ``universes``:
    the workload's universes; ``assertions``: (universe, assertion) pairs,
    each evaluated on captured states of its own universe."""
    S, L, text = wp.states, wp.assertions, wp.parser.format_universe
    rng = random.Random(f"micro:{seed}")
    by_universe = {}
    for u, states in pools:
        by_universe.setdefault(text(u), set()).update(states)
    by_universe = {k: sorted(v, key=S.state_key) for k, v in by_universe.items()}
    pool = sorted({s for states in by_universe.values() for s in states}, key=S.state_key)
    if len(pool) > POOL:
        pool = pool[:: len(pool) // POOL + 1]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS)]
    half = Fraction(1, 2)
    out = {
        "states.make_us": _per_call_us(S.State.make, [(s.mask, s.heap) for s in pool]),
        "states.add_us": _per_call_us(S.add, pairs),
        "states.geq_us": _per_call_us(S.geq, pairs),
        "states.mult_us": _per_call_us(S.mult, [(half, s) for s in pool]),
        "states.restrict_us": _per_call_us(S.restrict, pairs),
    }

    distinct = list({text(u): u for u in universes}.values())[:12]
    t0 = time.perf_counter()
    n = sum(1 for u in distinct for _ in S.enumerate_states(u, stable_only=True))
    out["states.enumerate_us_per_state"] = (time.perf_counter() - t0) / max(1, n) * 1e6

    store = {"x": "x", "y": "y", "z": "z"}
    usable = [(u, a, by_universe.get(text(u)) or pool) for u, a in assertions if not L.contains_wand(a)]
    triples = []
    for _ in range(PAIRS if usable else 0):
        u, a, states = rng.choice(usable)
        triples.append((u, rng.choice(states), a))
    out["assertions.sat_us"] = _per_call_us(lambda u, s, a: L.sat(u, s, a, store), triples)

    def demands(u, s, a):
        try:
            L.demands(u, a, s.heap_dict(), store)
        except wp.exprs.Unframed:
            pass

    out["assertions.demands_us"] = _per_call_us(demands, triples)
    return out
