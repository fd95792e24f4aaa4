"""Series solutions and verification for the degenerate fractional equation
D^{(alpha,beta)mu} u(y) = lambda y^m u(y) with the bi-ordinal Hilfer
derivative, expressed through the Kilbas-Saigo function.

The public names are loaded on first access (PEP 562): ``import bihilfer``
imports no submodule, so a command pays only for the modules it runs. No
engine module generates code at import: its records are validated named
tuples or plain classes, not dataclasses, whose decorator compiles new
methods for every class at every start.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "errors": ("DomainError",),
    "fractional_ops": (
        "PowerTerm",
        "SampledFunction",
        "falling_product",
        "hilfer_monomial",
        "hilfer_numeric",
        "rl_integral_monomial",
        "rl_integral_numeric",
    ),
    "solver": (
        "CauchySolution",
        "DegenerateProblem",
        "DerivedParams",
        "OrderTriple",
        "SeriesSolution",
        "cauchy_solution",
        "coefficient_sequence",
        "derive_params",
        "fundamental_solution",
    ),
    "series_grid": ("SeriesGridReport",),
    "special_functions": (
        "KilbasSaigoParams",
        "SeriesEvalReport",
        "gamma_ratio",
        "kilbas_saigo",
        "kilbas_saigo_coefficients",
        "log_gamma_ratio",
    ),
    "verification": (
        "ResidualReport",
        "initial_condition_check",
        "residual_coefficient_identity",
        "residual_numeric",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
