"""Dyadic piecewise-polynomial multiresolution analysis on the unit cube.

Orthonormal multiwavelet bases with per-axis degrees and levels, the level
and detail orthoprojectors they diagonalize, and the experiment drivers built
on top of them: square-function and sign-series statistics, Whitney and
Calderon-Zygmund decompositions, mixed-smoothness moduli, and hyperbolic-cross
approximation rates. Everything is deterministic and quadrature-exact for
piecewise polynomials aligned with the dyadic partition.
"""

from .basis import detail_dim, wavelet_basis_1d
from .czd import (
    CellSet,
    CZSplit,
    WhitneyDecomposition,
    cz_constants,
    cz_split,
    level_set_measure,
    maximal_function,
    sublevel_cellset,
    whitney,
)
from .grid import Grid, GridFunction, grid_for, lp_norm
from .indexing import (
    DyadicCube,
    counting_ratios,
    cross_contains,
    enum_box,
    enum_cross,
    enum_shell,
)
from .lp_analysis import (
    LPReport,
    SignFamily,
    detail_components,
    khintchine_check,
    lp_equivalence,
    lp_report,
    pstar_ratio,
    random_resolved,
    sign_series,
    square_function,
)
from .projectors import (
    Decomposition,
    DetailCoeffs,
    PiecewisePoly,
    analyze,
    parseval_gap,
    project_level,
    synthesize,
)
from .quadrature import gauss_rule
from .smoothness import (
    ModulusTable,
    SmoothnessParams,
    besov_seminorm,
    decay_check,
    modulus_table,
    synthesize_extremal,
)
from .widths import (
    BudgetPlan,
    WidthExperimentConfig,
    budget_plan,
    choose_beta,
    rate_fit,
    tail_model,
    truncation_error,
    width_experiment,
    width_model_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridFunction",
    "grid_for",
    "lp_norm",
    "DyadicCube",
    "enum_box",
    "enum_cross",
    "enum_shell",
    "cross_contains",
    "counting_ratios",
    "wavelet_basis_1d",
    "detail_dim",
    "PiecewisePoly",
    "DetailCoeffs",
    "Decomposition",
    "project_level",
    "analyze",
    "synthesize",
    "parseval_gap",
    "SignFamily",
    "LPReport",
    "random_resolved",
    "detail_components",
    "square_function",
    "lp_equivalence",
    "sign_series",
    "pstar_ratio",
    "khintchine_check",
    "lp_report",
    "CellSet",
    "WhitneyDecomposition",
    "CZSplit",
    "maximal_function",
    "level_set_measure",
    "sublevel_cellset",
    "whitney",
    "cz_split",
    "cz_constants",
    "SmoothnessParams",
    "ModulusTable",
    "modulus_table",
    "besov_seminorm",
    "decay_check",
    "synthesize_extremal",
    "WidthExperimentConfig",
    "BudgetPlan",
    "choose_beta",
    "truncation_error",
    "tail_model",
    "budget_plan",
    "width_model_exponents",
    "width_experiment",
    "rate_fit",
    "gauss_rule",
    "__version__",
]
