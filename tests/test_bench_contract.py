"""The benchmark's traced run reaches wandpack through module attributes.

``perfbench/spans.py`` times the leaves of witness-set initialisation by
replacing ``assertions.lhs_states`` and ``states.minimal_elements`` on
their modules for the length of a replay.  A caller that binds either
name at import time bypasses the probe; the traced benchmark then records
no satisfying pools and its microbenchmarks have nothing to sample.  This
test replays one corpus package through the benchmark's own code, which
it imports unchanged.
"""

from types import ModuleType, SimpleNamespace

from wandpack import algorithms, assertions, oracle, package_logic, serialization, states
from wandpack.cli import load_program
from wandpack.parser import parse_state_text
from wandpack.program import Package

from conftest import CORPUS

SPANS = CORPUS.parent / "perfbench" / "spans.py"


def load_spans() -> ModuleType:
    """The benchmark's spans module, executed from its source (no bytecode
    is written next to it)."""
    module = ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_replay_sees_the_lhs_pools():
    spans = load_spans()
    wp = SimpleNamespace(
        algorithms=algorithms,
        assertions=assertions,
        oracle=oracle,
        package_logic=package_logic,
        serialization=serialization,
        states=states,
    )
    program = load_program(CORPUS / "two_footprints.wnd")
    (pkg,) = [s for m in program.methods for s in m.body if isinstance(s, Package)]
    # the outer state at the package: after `x.b := false` under `acc(x.b) * acc(x.f)`
    outer = parse_state_text("{x.b @ 1 = false, x.f @ 1 = 0}")
    original = assertions.lhs_states
    tr, pools = spans.Tracer(), []
    with spans.leaf_probes(wp, tr, pools):
        equal, footprint = spans.replay_package(wp, tr, program.universe, pkg.wand, pkg.script, {"x": "x"}, outer)
    assert equal and footprint is not None
    assert tr.calls("assertions.lhs_states")
    assert pools
    assert assertions.lhs_states is original
