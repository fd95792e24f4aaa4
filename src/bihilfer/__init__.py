"""Series solutions and verification for the degenerate fractional equation
D^{(alpha,beta)mu} u(y) = lambda y^m u(y) with the bi-ordinal Hilfer
derivative, expressed through the Kilbas-Saigo function."""

from .errors import DomainError
from .fractional_ops import (
    OrderTriple,
    PowerTerm,
    SampledFunction,
    falling_product,
    hilfer_monomial,
    hilfer_numeric,
    rl_integral_monomial,
    rl_integral_numeric,
)
from .solver import (
    CauchySolution,
    DegenerateProblem,
    DerivedParams,
    SeriesSolution,
    cauchy_solution,
    coefficient_sequence,
    derive_params,
    fundamental_solution,
    hilfer_reduction_params,
)
from .special_functions import (
    KilbasSaigoParams,
    SeriesEvalReport,
    SeriesGridReport,
    gamma_ratio,
    kilbas_saigo,
    kilbas_saigo_coefficients,
    kilbas_saigo_grid,
    log_gamma,
    log_gamma_ratio,
    mittag_leffler,
)
from .verification import (
    ResidualReport,
    initial_condition_check,
    residual_coefficient_identity,
    residual_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "OrderTriple",
    "PowerTerm",
    "SampledFunction",
    "falling_product",
    "hilfer_monomial",
    "hilfer_numeric",
    "rl_integral_monomial",
    "rl_integral_numeric",
    "CauchySolution",
    "DegenerateProblem",
    "DerivedParams",
    "SeriesSolution",
    "cauchy_solution",
    "coefficient_sequence",
    "derive_params",
    "fundamental_solution",
    "hilfer_reduction_params",
    "KilbasSaigoParams",
    "SeriesEvalReport",
    "SeriesGridReport",
    "gamma_ratio",
    "kilbas_saigo",
    "kilbas_saigo_coefficients",
    "kilbas_saigo_grid",
    "log_gamma",
    "log_gamma_ratio",
    "mittag_leffler",
    "ResidualReport",
    "initial_condition_check",
    "residual_coefficient_identity",
    "residual_numeric",
    "__version__",
]
