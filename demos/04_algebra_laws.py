"""The state model is a separation algebra — checked, not assumed.

Every axiom (neutrality, commutativity, associativity, the three core
laws, stability closure, positivity, cancellativity) is decided over
all state tuples of a small universe, on a vectorized addition table
cross-checked against the public add operation.  Associativity is
decided by Light's test on a generating set of that table: the states m
with (x+m)+y = x+(m+y) for all x, y are closed under addition, so it is
exact to check only the generators, not every triple.
"""

import time
from pathlib import Path

from wandpack import check_axioms
from wandpack.parser import parse_universe_text
from wandpack.states import count_states

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

u = parse_universe_text((CORPUS / "laws.universe").read_text())
n = count_states(u)
print(f"universe with {len(u.sorted_locations())} locations, granularity {u.granularity}: "
      f"{n} states, {n * n} pairs, {n ** 3} triples")

started = time.monotonic()
for report in check_axioms(u):
    print(f"  {report.axiom:18s} {'pass' if report.passed else 'FAIL'}")
print(f"checked over every tuple in {time.monotonic() - started:.2f}s "
      f"(associativity by Light's test on a generating set, not {n ** 3} triples)")
