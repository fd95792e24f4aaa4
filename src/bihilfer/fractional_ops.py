"""The bi-ordinal Hilfer derivative and the Riemann-Liouville integral.

The operator D^{(alpha,beta)mu} = I^{mu(i-alpha)} d^i/dy^i I^{(1-mu)(i-beta)}
is realized two independent ways:

* analytically on power functions y^delta, via closed-form Gamma-ratio
  coefficients (``hilfer_monomial``), and
* numerically on uniformly sampled functions, composing a product-trapezoidal
  quadrature for the weakly singular integrals with second-order finite
  differences (``hilfer_numeric``).

The two routes cross-validate each other; neither consults the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .special_functions import _log_gamma_ratio_offset

__all__ = [
    "OrderTriple",
    "PowerTerm",
    "SampledFunction",
    "falling_product",
    "rl_integral_monomial",
    "hilfer_monomial",
    "rl_integral_numeric",
    "hilfer_numeric",
]


@dataclass(frozen=True)
class OrderTriple:
    """Parameters (alpha, beta, mu, i) of the derivative D^{(alpha,beta)mu}.

    Both fractional orders must lie strictly inside the integer window:
    i-1 < alpha < i and i-1 < beta < i, with interpolation weight
    0 <= mu <= 1. The window index i is carried explicitly so the boundary
    alpha = i can never arise from rounding a ceil().
    """

    alpha: float
    beta: float
    mu: float
    i: int

    def __post_init__(self) -> None:
        if not (isinstance(self.i, (int, np.integer)) and self.i >= 1):
            raise DomainError(f"i must be a positive integer, got i={self.i}")
        object.__setattr__(self, "i", int(self.i))
        if not self.i - 1 < self.alpha < self.i:
            raise DomainError(
                f"i-1 < alpha < i violated (alpha={self.alpha}, i={self.i})"
            )
        if not self.i - 1 < self.beta < self.i:
            raise DomainError(
                f"i-1 < beta < i violated (beta={self.beta}, i={self.i})"
            )
        if not 0.0 <= self.mu <= 1.0:
            raise DomainError(f"0 <= mu <= 1 violated (mu={self.mu})")

    @property
    def gamma(self) -> float:
        """Effective order gamma = beta + mu*(alpha - beta), a convex blend."""
        return self.beta + self.mu * (self.alpha - self.beta)

    @property
    def inner_order(self) -> float:
        """Order (1-mu)*(i-beta) of the integral applied before d^i/dy^i."""
        return (1.0 - self.mu) * (self.i - self.beta)

    @property
    def outer_order(self) -> float:
        """Order mu*(i-alpha) of the integral applied after d^i/dy^i."""
        return self.mu * (self.i - self.alpha)


@dataclass(frozen=True)
class PowerTerm:
    """A single power term coef * y^exponent on y > 0."""

    coef: complex
    exponent: float


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples on the uniform grid n*h, n = 0..len(values)-1, which
    starts at the origin."""

    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise ValueError(f"grid step h must be positive, got h={self.h}")
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size < 3:
            raise ValueError("need a 1-d grid with at least 3 samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def falling_product(a: float, i: int) -> float:
    """a*(a-1)*...*(a-i+1); vanishes exactly at integer a in {0, .., i-1}."""
    if i < 1:
        raise ValueError(f"i must be >= 1, got i={i}")
    out = 1.0
    for j in range(i):
        out *= a - j
    return out


def rl_integral_monomial(nu: float, delta: float) -> PowerTerm:
    """Riemann-Liouville integral of a power:
    I^nu y^delta = Gamma(delta+1)/Gamma(delta+1+nu) * y^(delta+nu)."""
    if not nu > 0.0:
        raise DomainError(f"nu > 0 violated (nu={nu})")
    if not delta > -1.0:
        raise DomainError(f"delta > -1 violated (delta={delta}); integral diverges")
    coef = math.exp(_log_gamma_ratio_offset(delta + 1.0, nu))
    return PowerTerm(coef, delta + nu)


def hilfer_monomial(orders: OrderTriple, delta: float) -> PowerTerm:
    """Apply D^{(alpha,beta)mu} to y^delta in closed form.

    Two admissible regimes:

    * kernel monomials delta = s - (1-mu)*(i-beta), integer 0 <= s <= i-1,
      are annihilated exactly (the falling product vanishes); detected by
      |falling product| < 1e-12 * (|delta|+1)^i to tolerate rounding in delta;
    * otherwise delta > -1 and delta + (1-mu)*(i-beta) - i > -1 are required,
      and the image is a single power term with exponent delta - gamma.
    """
    i = orders.i
    nu1 = orders.inner_order
    nu2 = orders.outer_order
    exponent = delta - orders.gamma
    x = delta + nu1
    fp = falling_product(x, i)
    if abs(fp) < 1e-12 * (abs(delta) + 1.0) ** i:
        return PowerTerm(0.0, exponent)
    if not delta > -1.0:
        raise DomainError(f"delta > -1 violated (delta={delta})")
    if not x - i > -1.0:
        raise DomainError(
            f"delta + (1-mu)*(i-beta) - i > -1 violated (delta={delta}); "
            "monomial formula inapplicable"
        )
    log_coef = _log_gamma_ratio_offset(delta + 1.0, nu1) + _log_gamma_ratio_offset(
        x - i + 1.0, nu2
    )
    return PowerTerm(fp * math.exp(log_coef), exponent)


def _check_numeric_input(f: SampledFunction) -> None:
    if not np.all(np.isfinite(f.values)):
        raise ValueError("samples must be finite")


def rl_integral_numeric(f: SampledFunction, nu: float) -> SampledFunction:
    """Riemann-Liouville integral I^nu of sampled data, 0 < nu < 2.

    Product-trapezoidal rule: f is replaced by its piecewise-linear
    interpolant and each moment of the kernel (y-t)^(nu-1) over a cell is
    integrated exactly. This keeps second-order accuracy despite the weak
    singularity at t = y, where ordinary quadrature degrades.
    """
    if not 0.0 < nu < 2.0:
        raise DomainError(f"0 < nu < 2 violated (nu={nu})")
    _check_numeric_input(f)
    values = f.values
    n = values.size
    # Weights: I^nu f(y_n) ~ h^nu/Gamma(nu+2) * [a0(n) f_0 + sum w_{n-j} f_j + f_n]
    # with w_k the second central difference of k^(nu+1).
    k = np.arange(1, n, dtype=float)
    w = (k + 1.0) ** (nu + 1.0) - 2.0 * k ** (nu + 1.0) + (k - 1.0) ** (nu + 1.0)
    ns = np.arange(1, n, dtype=float)
    a0 = (ns - 1.0) ** (nu + 1.0) - (ns - nu - 1.0) * ns**nu
    pref = f.h**nu / math.exp(math.lgamma(nu + 2.0))
    out = np.zeros(n, dtype=complex)
    out[1:] = a0 * values[0] + values[1:]
    if n > 2:
        conv = np.convolve(values[1:-1], w[: n - 2])[: n - 2]
        out[2:] += conv
    out[1:] *= pref
    return SampledFunction(f.h, out)


def _derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Grid derivative of the given order, central stencils inside and
    one-sided second-order stencils at both ends."""
    out = np.empty_like(values)
    if order == 1:
        out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    elif order == 2:
        if values.size < 4:
            raise ValueError("second derivative needs at least 4 samples")
        h2 = h * h
        out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / h2
        out[0] = (
            2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]
        ) / h2
        out[-1] = (
            2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]
        ) / h2
    else:
        raise DomainError(f"derivative order {order} unsupported")
    return out


def hilfer_numeric(f: SampledFunction, orders: OrderTriple) -> SampledFunction:
    """Apply D^{(alpha,beta)mu} to sampled data by operator composition:
    inner integral, i-fold grid derivative, outer integral.

    Supported for i in {1, 2}; an integral of order 0 is the identity. The
    first and last two output samples rest on one-sided stencils and should
    be excluded from accuracy comparisons.
    """
    if orders.i not in (1, 2):
        raise DomainError(
            f"numeric operator supports i in {{1, 2}}, got i={orders.i}"
        )
    _check_numeric_input(f)
    nu1 = orders.inner_order
    nu2 = orders.outer_order
    g1 = f if nu1 == 0.0 else rl_integral_numeric(f, nu1)
    g2 = _derivative(g1.values, f.h, orders.i)
    if nu2 == 0.0:
        return SampledFunction(f.h, g2)
    return rl_integral_numeric(SampledFunction(f.h, g2), nu2)
