"""Desk-scale verifier for separation-logic magic wands over finite universes.

The library packages wands with a sound witness-set algorithm (standard
and combinable variants), reproduces the unsound per-case baseline for
differential comparison, checks explicit derivations in the underlying
package logic, and ships a brute-force semantic oracle that everything is
audited against.
"""

from .algebra import AlgebraLawReport, all_pass, check_axioms
from .algorithms import (
    COMBINABLE,
    FIA,
    SOUND,
    PackageOutcome,
    lhs_cases,
    package_combinable,
    package_fia,
    package_sound,
    prove_rhs,
    run_script,
)
from .assertions import (
    Acc,
    Assertion,
    Imp,
    OrA,
    PredA,
    Pure,
    Star,
    Wand,
    close_assertion,
    demands,
    desugar_predicates,
    format_assertion,
    sat,
    wf,
)
from .exprs import Expr, eval_expr, format_expr
from .oracle import (
    EnumerationPlan,
    check_combinable,
    check_entailment,
    check_mono_pure,
    is_binary,
    is_footprint,
    minimal_footprints,
    plan,
    sat_states,
)
from .package_logic import (
    CheckFailure,
    Configuration,
    Context,
    DAtom,
    DDisjunction,
    Derivation,
    DExtract,
    DImplication,
    DStar,
    WitnessPair,
    build_canonical_derivation,
    check_derivation,
    extract_footprint,
    init_witness_set,
)
from .parser import (
    ParseError,
    format_state,
    format_universe,
    parse_assertion_text,
    parse_expr_text,
    parse_program_text,
    parse_state_text,
    parse_universe_text,
)
from .states import (
    EMPTY,
    BudgetExceeded,
    State,
    add,
    bin_mask,
    compatible,
    core,
    enumerate_states,
    exists_compatible_scaled,
    geq,
    is_stable,
    mult,
    restrict,
    sub,
)
from .universe import FieldLoc, PredInst, ResourceId, Universe, WandInst, make_universe
from .verifier import Report, run

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
