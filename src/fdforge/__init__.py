"""Convergent one-step-ahead finite difference formulas.

Construct look-ahead difference formulas from seed vectors (exact rational
or float), classify their characteristic roots against the convergence
root condition, discover new convergent formulas by randomized BFGS
minimization of the maximal root magnitude, and validate formulas through
truncation-order measurement and recurrence simulation.
"""

from .taylor_system import (
    Dimensions,
    EchelonBlock,
    DifferenceFormula,
    RankDeficientError,
    PivotDisplacementError,
    NonNormalizableSeedError,
    build_taylor_matrix,
    reduce_to_echelon,
    echelon_block,
    seed_to_formula,
)
from .charpoly import (
    RootReport,
    DegenerateInputError,
    find_roots,
    analyze,
    analyze_formula,
    objective_function,
)
from .search import (
    SearchConfig,
    Candidate,
    SearchResult,
    random_seed,
    perturb,
    discover,
)
from .validation import (
    TestFunction,
    EXP,
    SIN,
    monomial,
    KnownFormula,
    OrderCheckResult,
    RecurrenceRun,
    catalog,
    residual,
    empirical_order,
    simulate,
    validate_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "Dimensions",
    "EchelonBlock",
    "DifferenceFormula",
    "RankDeficientError",
    "PivotDisplacementError",
    "NonNormalizableSeedError",
    "build_taylor_matrix",
    "reduce_to_echelon",
    "echelon_block",
    "seed_to_formula",
    "RootReport",
    "DegenerateInputError",
    "find_roots",
    "analyze",
    "analyze_formula",
    "objective_function",
    "SearchConfig",
    "Candidate",
    "SearchResult",
    "random_seed",
    "perturb",
    "discover",
    "TestFunction",
    "EXP",
    "SIN",
    "monomial",
    "KnownFormula",
    "OrderCheckResult",
    "RecurrenceRun",
    "catalog",
    "residual",
    "empirical_order",
    "simulate",
    "validate_catalog",
    "__version__",
]
