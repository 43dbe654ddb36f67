"""Spans, leaf counters and the staged package replay for the traced run.

Spans are recorded from the benchmark's own files, around the calls it
makes into wandpack's public functions.  They are kept in memory and
written out once, at the end of the run; self times are derived from them
afterwards (a span's duration minus the part its children cover).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """The untraced path: spans cost one method call and record nothing."""

    def span(self, name, **attrs):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id, attrs]
        self.counts = defaultdict(int)
        self.op_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op_id, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self) -> dict:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return dict(out)

    def calls(self, name, **match):
        """Durations of the spans with this name whose attributes match."""
        return [
            end - start
            for n, start, end, _, _, attrs in self.spans
            if n == name and all(attrs.get(k) == v for k, v in match.items())
        ]

    def mean(self, name, **match) -> float:
        d = self.calls(name, **match)
        return sum(d) / len(d) if d else 0.0

    def busy(self, name) -> float:
        return sum(self.calls(name))

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "op": op,
                "attrs": {k: v for k, v in attrs.items() if isinstance(v, (int, float, str, bool))},
            }
            for name, start, end, parent, op, attrs in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


@contextlib.contextmanager
def leaf_probes(wp, tr: Tracer, pools: list):
    """Time the two leaves of witness-set initialisation wherever wandpack
    reaches them: ``assertions.lhs_states`` (busy time, pools built, states
    enumerated for them, cache hits) and ``states.minimal_elements``.

    Both are looked up through their module at call time, so replacing the
    module attribute for the duration of the replay sees every call; the
    originals are restored on exit.  Satisfying pools are appended to
    ``pools`` as (universe, pool) for the microbenchmarks.
    """
    A, S = wp.assertions, wp.states
    orig_lhs, orig_min = A.lhs_states, S.minimal_elements
    cache = getattr(A, "_LHS_CACHE", None)

    def lhs_states(u, a, store, budget=10**6):
        before = len(cache) if cache is not None else None
        with tr.span("assertions.lhs_states"):
            out = orig_lhs(u, a, store, budget)
        if cache is not None and len(cache) == before:
            tr.count("assertions.lhs_cache_hits")
        else:
            tr.count("states.enumerated", S.count_states(u, stable_only=True))
            tr.count("assertions.lhs_pool_states", len(out))
            pools.append((u, out))
        return out

    def minimal_elements(states):
        with tr.span("states.minimal_elements"):
            return orig_min(states)

    A.lhs_states, S.minimal_elements = lhs_states, minimal_elements
    try:
        yield
    finally:
        A.lhs_states, S.minimal_elements = orig_lhs, orig_min


def _extract_nodes(wp, d) -> int:
    P = wp.package_logic
    if isinstance(d, P.DExtract):
        return 1 + _extract_nodes(wp, d.child)
    if isinstance(d, (P.DStar, P.DDisjunction)):
        return _extract_nodes(wp, d.left) + _extract_nodes(wp, d.right)
    if isinstance(d, P.DImplication):
        return _extract_nodes(wp, d.child)
    return 0


def replay_package(wp, tr: Tracer, u, wand, script, store, outer) -> tuple[bool, object]:
    """Replay one sound or combinable package as its public stages.

    Stages: init_witness_set, run_script, prove_rhs, check_derivation,
    derivation_doc / dumps_canonical (and the parse back), then the
    oracle audit.  Returns (equal, footprint): ``equal`` says whether the
    replay reached the same outcome and footprint as the one-call
    ``package_sound`` / ``package_combinable``, which runs first, and
    whether the derivation survives the checker and the JSON round trip.
    """
    A, L, P = wp.algorithms, wp.assertions, wp.package_logic
    Ser, O = wp.serialization, wp.oracle
    packager = A.package_combinable if wand.combinable else A.package_sound
    with tr.span("algorithms.package", combinable=wand.combinable):
        expected = packager(outer, wand, script, store, u)
    tr.count("replay.packages")
    if not L.wf(wand):
        tr.count("algorithms.package_failures")
        return not expected.success, None
    with tr.span("package_logic.init_witness_set"):
        pairs = P.init_witness_set(wand.lhs, u, True, store, combinable=wand.combinable)
    tr.count("package_logic.witness_pairs", len(pairs))
    conf0 = P.Configuration(wand.rhs, (), P.Context.make(outer, pairs))
    outer_heap = outer.heap_dict()
    try:
        with tr.span("algorithms.run_script"):
            ctx1, extracts, mutated = A.run_script(conf0.context, script, store, u, outer_heap)
        with tr.span("algorithms.prove_rhs"):
            ctx2, tree = A.prove_rhs(ctx1, (), wand.rhs, u, store, outer_heap)
    except A.PackageFailure:
        tr.count("algorithms.package_failures")
        return not expected.success, None
    footprint = P.extract_footprint(outer, ctx2.outer)
    tr.count("algorithms.extract_steps", len(extracts) + _extract_nodes(wp, tree))
    if mutated:
        conf, derivation = P.Configuration(wand.rhs, (), ctx1), tree
    else:
        conf, derivation = conf0, tree
        for sigma in reversed(extracts):
            derivation = P.DExtract(sigma, derivation)
    with tr.span("package_logic.check_derivation"):
        final = P.check_derivation(conf, derivation, u, store)
    checked = P.extract_footprint(conf.context.outer, final.outer)
    with tr.span("serialization.derivation_doc"):
        doc = Ser.derivation_doc(u, store, wand, conf, derivation)
    with tr.span("serialization.dumps_canonical"):
        text = Ser.dumps_canonical(doc)
    with tr.span("serialization.derivation_doc_parse"):
        parsed = Ser.derivation_doc_parse(json.loads(text))
    kind = O.COMBINABLE if wand.combinable else O.STANDARD
    with tr.span("oracle.audit_footprint"):
        audited = O.audit_footprint(footprint, L.close_assertion(wand, store), kind, O.plan(u), {})
    # The audit reads predicate tokens through their bodies, which the
    # package logic does not; a disagreement is a finding about the
    # program, counted and reported, not a failed replay.
    tr.count("oracle.audit_violations", not audited)
    equal = (
        expected.success
        and expected.footprint == footprint
        and (mutated or checked == footprint)
        and parsed[4] == derivation
    )
    return equal, footprint


def replay_fia(wp, tr: Tracer, u, wand, script, store, outer):
    with tr.span("algorithms.package_fia"):
        out = wp.algorithms.package_fia(outer, wand, script, store, u)
    tr.count("replay.packages")
    if not out.success:
        tr.count("algorithms.package_failures")
    return out

