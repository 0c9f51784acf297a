"""Redundancy analysis for labelled CNF formulas.

A labelled CNF formula attaches a finite set of integer labels to every
clause; clauses with no labels are permanent.  Removing a set of labels
removes every clause that depends on one of them, and the questions "which
labels are needed?" and "which labels can go?" generalize minimal
unsatisfiable cores, maximal satisfiable subsets and their clausal, group
and variable-level variants into one setting.

The package computes single witnesses (`compute_lmes`, `compute_lmus`,
`compute_lmss`, `compute_lmns`), enumerates complete witness families
exhaustively (`classify_all`), and checks the hitting-set duality that ties
the minimal and maximal families together (`verify_duality`).
"""

from .analysis import (
    compute_lmes,
    compute_lmns,
    compute_lmss,
    compute_lmus,
    is_label_redundant,
    duality_preconditions,
)
from .bruteforce import (
    AnalysisReport,
    GenerationProfile,
    classify_all,
    random_lcnf,
)
from .core import LcnfFormula, label
from .duality import (
    DualityVerdict,
    SetFamily,
    enumerate_minimal_hitting_sets,
    verify_duality,
)
from .errors import LcnfError, ParseError, PreconditionError, ResourceLimitError
from .interface import main, parse_dimacs, parse_gcnf, parse_lcnf
from .oracle import LcnfOracle, SatOutcome, Solver, solve

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "DualityVerdict",
    "GenerationProfile",
    "LcnfError",
    "LcnfFormula",
    "LcnfOracle",
    "ParseError",
    "PreconditionError",
    "ResourceLimitError",
    "SatOutcome",
    "SetFamily",
    "Solver",
    "classify_all",
    "compute_lmes",
    "compute_lmns",
    "compute_lmss",
    "compute_lmus",
    "enumerate_minimal_hitting_sets",
    "is_label_redundant",
    "label",
    "main",
    "parse_dimacs",
    "parse_gcnf",
    "parse_lcnf",
    "random_lcnf",
    "solve",
    "duality_preconditions",
    "verify_duality",
]
