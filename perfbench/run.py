"""wandpack benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload package-scaling --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; wandpack is imported from its ``src/``.
Set-up imports wandpack, generates the seeded inputs and parses them; it
is repeated and its median reported.  The timed loop then runs rounds of
the workload's operations, each run on freshly parsed inputs, until
``--seconds`` have passed.  An operation's latency is the median of its
runs; throughput, median and tail come from those.  All times are in
reference seconds, corrected for the machine's speed (see speed.py).
Every result is compared with an answer known independently of the code
under test.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans around each call into wandpack, then
replays the packages of the first round stage by stage, times the layer
calls the workload never made on small fixed inputs, and runs the
state/assertion microbenchmarks; it prints the per-layer metrics.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import inputs
import micro
import workloads
from spans import NullTracer, Tracer, leaf_probes
from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_REPEATS = 15
MAX_REPEATS = 8
MODULES = (
    "states", "universe", "exprs", "assertions", "package_logic", "algorithms",
    "oracle", "verifier", "parser", "serialization", "cli", "algebra", "program",
)


def load_wandpack() -> SimpleNamespace:
    """Import wandpack afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "wandpack" or m.startswith("wandpack.")]:
        del sys.modules[name]
    wp = importlib.import_module("wandpack")
    if Path(wp.__file__).resolve().parent != SRC / "wandpack":
        raise SystemExit(f"error: imported wandpack from {wp.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"wandpack.{m}") for m in MODULES})


def setup(name: str, seed: int):
    """Import, generate and parse; returns (workload, whole interval, parse
    interval) as ``time.perf_counter()`` pairs."""
    t0 = time.perf_counter()
    wp = load_wandpack()
    t1 = time.perf_counter()
    cls = workloads.WORKLOADS[name]
    if name == "corpus-cli":
        wl = cls(wp, seed, ROOT, WORK / name)
    else:
        wl = cls(wp, seed)
    t2 = time.perf_counter()
    return wl, (t0, t2), (t1, t2)


class Tally:
    def __init__(self):
        self.intervals = {}  # operation index in the round -> its (start, end) times
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.errors = []
        self.rss_mb = 0.0


def measure(wl, seconds: float, tr, tally: Tally, first_round: int = 0) -> None:
    """Run the whole first round, then further rounds until ``seconds``
    have passed since the start; a later round may stop part-way.

    The first round runs each operation once, so it is the same work on
    every run and peak memory is read at its end.  Later rounds run the
    shortest operations first, and each operation runs again, on freshly
    parsed inputs, until it has taken the workload's ``repeat_s`` seconds
    or run MAX_REPEATS times."""
    start = time.perf_counter()
    order = list(range(len(wl.ops)))
    index = first_round
    while True:
        for n in order:
            if index > first_round and time.perf_counter() - start >= seconds:
                return
            op = wl.ops[n]
            spent = 0.0
            for rep in range(1 if index == first_round else MAX_REPEATS):
                if rep and spent >= wl.repeat_s:
                    break
                call = op.build(first=index == 0 and rep == 0)
                if isinstance(tr, Tracer):
                    tr.op_id = f"{index}:{n}:{rep}"
                tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = call(tr)
                except Exception as e:  # an exception is a failed operation, not a crash
                    tally.failed += 1
                    tally.errors.append(f"{op.kind}: {type(e).__name__}: {e}")
                    break
                t1 = time.perf_counter()
                spent += t1 - t0
                tally.intervals.setdefault(n, []).append((t0, t1))
                if not op.judge(result):
                    tally.wrong += 1
                    tally.errors.append(f"{op.kind}: wrong verdict")
        if index == first_round:
            tally.rss_mb = peak_rss_mb()
            first = {n: b - a for n, [(a, b)] in tally.intervals.items()}
            order.sort(key=lambda n: first.get(n, math.inf))
        index += 1
        tally.rounds += 1
        if time.perf_counter() - start >= seconds:
            return


def typical(tally: Tally, clock: SpeedClock) -> list[float]:
    """Each operation's latency: the median of its runs, in reference
    seconds (see speed.py)."""
    return [statistics.median(clock.reference_seconds(a, b) for a, b in xs) for xs in tally.intervals.values()]


def tail(latencies: list) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten operations beyond
    it, its latency, and the number of operations beyond it."""
    pct = max(50, math.floor(100 * (1 - 10 / len(latencies))))
    xs = sorted(latencies)
    q = statistics.quantiles(xs, n=100, method="inclusive")[pct - 1] if len(xs) > 1 else xs[0]
    return pct, q, sum(1 for x in xs if x > q)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wandpack" / "__init__.py").is_file():
        print(f"error: no wandpack sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, so dict and set layouts repeat from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(10000)
    return trace_run(args) if args.trace else run(args)


def run(args) -> int:
    setups = []
    with SpeedClock() as clock:
        for _ in range(SETUP_REPEATS):
            wl, whole, _ = setup(args.workload, args.seed)
            setups.append(whole)
        print(f"workload {args.workload} seed {args.seed}: {len(wl.ops)} operations per round, "
              f"inputs digest {inputs.digest(wl.texts)}")
        tally = Tally()
        measure(wl, args.seconds, NullTracer(), tally)
    wrong = wl.post_check(NullTracer())
    tally.wrong += wrong
    if wrong:
        tally.errors.append(f"post-run footprint check: {wrong} wrong")
    for e in tally.errors[:20]:
        print(f"  ! {e}")
    if not tally.intervals:
        print("error: every operation failed", file=sys.stderr)
        return 1
    latencies = typical(tally, clock)
    pct, tail_s, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(clock.reference_seconds(*iv) for iv in setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (tally.rss_mb, "MB"),
    }
    shown = dict(metrics)
    shown["wrong_verdicts"] = (tally.wrong, "count")
    shown["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    for k, (v, unit) in shown.items():
        print(f"{k:>16} {v:14.6g} {unit}")
    runs = sum(len(xs) for xs in tally.intervals.values())
    print(f"{'':>16} op_tail_ms is p{pct}: {beyond} of {len(latencies)} operations beyond it, each the "
          f"median of {runs / len(latencies):.1f} runs on average over {tally.rounds} whole rounds; "
          f"failed_ratio base {tally.attempted} attempted; machine at {clock.speed():.2f}x the "
          f"reference probe time")
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def trace_run(args) -> int:
    """Half the time untraced, half traced, then the staged replay and the
    microbenchmarks."""
    parses = []
    with SpeedClock() as clock:
        for _ in range(SETUP_REPEATS):
            wl, _, parse = setup(args.workload, args.seed)
            parses.append(parse)
        wp = wl.wp
        print(f"workload {args.workload} seed {args.seed}: {len(wl.ops)} operations per round, "
              f"inputs digest {inputs.digest(wl.texts)}")
        tally = Tally()
        measure(wl, args.seconds / 2, NullTracer(), tally)
        tr = Tracer()
        traced = Tally()
        measure(wl, args.seconds / 2, tr, traced, first_round=tally.rounds + 1)
    wrong = tally.wrong + traced.wrong + wl.post_check(tr)
    failed = tally.failed + traced.failed
    attempted = tally.attempted + traced.attempted
    for e in (tally.errors + traced.errors)[:20]:
        print(f"  ! {e}")
    if not tally.intervals or not traced.intervals:
        print("error: every operation failed", file=sys.stderr)
        return 1
    untraced_ops_per_s = len(tally.intervals) / sum(typical(tally, clock))
    traced_ops_per_s = len(traced.intervals) / sum(typical(traced, clock))

    pools = []
    with leaf_probes(wp, tr, pools):
        mismatches = wl.replay(tr)
    covered, bad = workloads.cover(wp, tr, ROOT / "corpus", args.seed)
    failed += mismatches + bad
    attempted += int(tr.counts["replay.packages"]) + len(covered)
    if mismatches:
        print(f"  ! staged replay: {mismatches} mismatches")
    if bad:
        print(f"  ! coverage pass: {bad} calls raised or answered wrongly")
    parses = [clock.reference_seconds(*iv) for iv in parses]
    metrics = layer_metrics(wl, tr, parses, traced_ops_per_s - untraced_ops_per_s, mismatches)
    metrics.update((k, (v, "us")) for k, v in micro.run(wp, args.seed, pools, wl.universes(), wl.assertions()).items())
    WORK.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{args.workload}-{args.seed}.json"
    tr.dump(spans)
    print(f"{'span':>40} {'calls':>7} {'incl s':>10} {'self s':>10}   ({spans.name})")
    for name, (calls, incl, own) in sorted(tr.self_times().items(), key=lambda kv: -kv[1][2]):
        print(f"{name:>40} {calls:7d} {incl:10.4f} {own:10.4f}")
    for k, (v, unit) in metrics.items():
        print(f"{k:>40} {v:14.6g} {unit}")
    print(f"{'':>40} untraced {untraced_ops_per_s:.4g} ops/s, traced {traced_ops_per_s:.4g} ops/s")
    print(f"{'':>40} timed on fixed inputs, as the workload does not call them: {', '.join(covered) or 'none'}")
    print(json.dumps({
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(wl, tr: Tracer, parses, overhead, mismatches) -> dict:
    c = tr.counts
    packages = max(1, c["replay.packages"])
    enumerated = c["states.enumerated"]
    m = {
        "states.enumerated": (enumerated, "count"),
        "states.minimal_elements_s": (tr.busy("states.minimal_elements") / packages, "s"),
        "assertions.lhs_states_s": (tr.busy("assertions.lhs_states") / packages, "s"),
        "assertions.lhs_pool_states": (c["assertions.lhs_pool_states"], "count"),
        "assertions.lhs_cache_hits": (c["assertions.lhs_cache_hits"], "count"),
        "package_logic.init_witness_set_s": (tr.mean("package_logic.init_witness_set"), "s"),
        "package_logic.witness_pairs": (c["package_logic.witness_pairs"], "count"),
        "package_logic.witness_yield": (c["package_logic.witness_pairs"] / enumerated if enumerated else 1.0, "ratio"),
        "package_logic.check_derivation_s": (tr.mean("package_logic.check_derivation"), "s"),
        "algorithms.run_script_s": (tr.mean("algorithms.run_script"), "s"),
        "algorithms.prove_rhs_s": (tr.mean("algorithms.prove_rhs"), "s"),
        "algorithms.extract_steps": (c["algorithms.extract_steps"], "count"),
        "algorithms.package_fia_s": (tr.mean("algorithms.package_fia"), "s"),
        "algorithms.package_failures": (c["algorithms.package_failures"], "count"),
        "oracle.check_combinable_s": (tr.mean("oracle.check_combinable"), "s"),
        "oracle.check_entailment_s": (tr.mean("oracle.check_entailment"), "s"),
        "oracle.minimal_footprints_s": (tr.mean("oracle.minimal_footprints"), "s"),
        "oracle.is_binary_s": (tr.mean("oracle.is_binary"), "s"),
        "oracle.is_footprint_s": (tr.mean("oracle.is_footprint"), "s"),
        "oracle.audit_footprint_s": (tr.mean("oracle.audit_footprint"), "s"),
        "oracle.audit_violations": (c["oracle.audit_violations"], "count"),
        "verifier.run_ms.n3": (tr.mean("verifier.run", n=3) * 1e3, "ms"),
        "verifier.run_ms.n4": (tr.mean("verifier.run", n=4) * 1e3, "ms"),
        "verifier.run_ms.n5": (tr.mean("verifier.run", n=5) * 1e3, "ms"),
        "verifier.worlds": (_worlds(wl), "count"),
        "parser.parse_s": (statistics.median(parses), "s"),
        "serialization.derivation_doc_s": (tr.mean("serialization.derivation_doc"), "s"),
        "serialization.dumps_canonical_s": (tr.mean("serialization.dumps_canonical"), "s"),
        "serialization.derivation_doc_parse_s": (tr.mean("serialization.derivation_doc_parse"), "s"),
        "cli.main_s": (tr.mean("cli.main"), "s"),
        "algebra.check_axioms_s": (tr.mean("algebra.check_axioms"), "s"),
        "trace.overhead_ops_per_s": (overhead, "1/s"),
        "replay.packages": (c["replay.packages"], "count"),
        "replay.mismatches": (mismatches, "count"),
    }
    return m


def _worlds(wl) -> int:
    """Worlds at every statement of the first round's verifier reports."""
    reports = getattr(wl, "reports", {})
    return sum(s.worlds for r in reports.values() for m in r.methods for s in m.statements)


if __name__ == "__main__":
    sys.exit(main())
