"""The bi-ordinal Hilfer derivative and the Riemann-Liouville integral.

The operator D^{(alpha,beta)mu} = I^{mu(i-alpha)} d^i/dy^i I^{(1-mu)(i-beta)}
is realized two independent ways:

* analytically on power functions y^delta, via closed-form Gamma-ratio
  coefficients (``hilfer_monomial``), and
* numerically on uniformly sampled functions, composing a product-trapezoidal
  quadrature for the weakly singular integrals with second-order finite
  differences (``hilfer_numeric``). The quadrature costs O(n log n) on n
  samples: its weights are binomial series that do not cancel, and their
  convolution with the samples is one zero-padded FFT.

The two routes cross-validate each other; neither consults the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .special_functions import _check_index, _log_gamma_ratio_offset

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
    i = _check_index("i", i, 1)
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


# Binomial-series weights: terms are summed until the omitted ones fall below
# _SERIES_EPS relative. The number of terms is set by the smallest k of a
# block, so k < _SERIES_SPLIT (up to 57 terms) is kept apart from the long
# tail k >= _SERIES_SPLIT (at most 17 terms).
_SERIES_EPS = 1e-17
_SERIES_SPLIT = 10


def _horner(coefs: list[float], x: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] x^j by Horner's rule, cut at the first j with
    max|x|^j < _SERIES_EPS."""
    terms = math.ceil(math.log(_SERIES_EPS) / math.log(np.abs(x).max()))
    s = np.full_like(x, coefs[terms])
    for c in coefs[terms - 1 :: -1]:
        s *= x
        s += c
    return s


def _weights(nu: float, n: int) -> "tuple[np.ndarray, np.ndarray]":
    """Product-trapezoid weights w_k and a0(k) for k = 1..n-1, with p = nu+1:

        w_k   = (k+1)^p - 2 k^p + (k-1)^p = 2 k^p sum_{j>=1} C(p,2j) k^(-2j),
        a0(k) = (k-1)^p - (k-p) k^nu      = k^p sum_{j>=2} C(p,j) (-1/k)^j.

    The left-hand forms lose about k^2/nu ulps to cancellation (1.4e-6
    relative at k=1.3e5, nu=0.375). The series (Diethelm, Ford & Freed,
    Numer. Algorithms 36 (2004) 31) converge for k >= 2 without cancelling
    and are accurate to a few ulps; k = 1 has the closed forms
    w_1 = 2 expm1(nu ln 2) and a0(1) = nu.
    """
    # C(p, j) for j < 64, enough for the 57 terms k = 2 needs. The factor
    # p - j + 1 is formed as nu - (j - 2), so the rounding of nu + 1 does not
    # enter: C(p, 2) = p nu / 2 then stays accurate to an ulp at small nu.
    binom = [1.0, nu + 1.0]
    for j in range(2, 64):
        binom.append(binom[-1] * (nu - (j - 2)) / j)
    k = np.arange(1.0, n)
    w = np.empty_like(k)
    a0 = np.empty_like(k)
    w[0] = 2.0 * math.expm1(nu * math.log(2.0))
    a0[0] = nu
    for block in (slice(1, _SERIES_SPLIT - 1), slice(_SERIES_SPLIT - 1, None)):
        kb = k[block]
        if kb.size == 0:
            break
        inv = 1.0 / kb
        inv2 = inv * inv
        scale = kb**nu / kb  # k^p / k^2
        w[block] = 2.0 * scale * _horner(binom[2::2], inv2)
        a0[block] = scale * _horner(binom[2:], -inv)
    return w, a0


def rl_integral_numeric(f: SampledFunction, nu: float) -> SampledFunction:
    """Riemann-Liouville integral I^nu of sampled data, 0 < nu < 2.

    Product-trapezoidal rule: f is replaced by its piecewise-linear
    interpolant and each moment of the kernel (y-t)^(nu-1) over a cell is
    integrated exactly. This keeps second-order accuracy despite the weak
    singularity at t = y, where ordinary quadrature degrades.

    The weights come from binomial series that do not cancel (`_weights`),
    and their discrete convolution with the samples is one zero-padded FFT
    convolution (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
    (1985) 532), O(n log n) for every n. numpy's FFT uses no threads, so the
    result does not depend on the thread count.

    Accuracy contract: the rounding error is about 1e-15 * max|I^nu f| in
    absolute terms at every point. Where |I^nu f| is far below its maximum,
    as near the origin, relative accuracy is lost in proportion: 1.1e-7
    relative in the first 100 points of I^1.25 y at n=32769, against 3e-16
    for a direct sum. The numeric residual compares only [y_max/4, y_max],
    where the two agree to about 1e-14 relative.
    """
    if not 0.0 < nu < 2.0:
        raise DomainError(f"0 < nu < 2 violated (nu={nu})")
    _check_numeric_input(f)
    values = f.values
    n = values.size
    # I^nu f(y_n) ~ h^nu/Gamma(nu+2) * [a0(n) f_0 + sum_{j=1}^{n-1} w_{n-j} f_j + f_n]
    w, a0 = _weights(nu, n)
    pref = f.h**nu / math.exp(math.lgamma(nu + 2.0))
    out = np.zeros(n, dtype=complex)
    out[1:] = a0 * values[0] + values[1:]
    # Convolution of f_1..f_{n-2} with w_1..w_{n-2}, m >= 1 terms. An FFT
    # length of the next power of two >= 2m keeps circular wrap-around out of
    # the first m outputs. Real and imaginary parts share one transform of w.
    m = n - 2
    size = 1 << (2 * m - 1).bit_length()
    kernel = np.fft.rfft(w[:m], size)
    for part, dest in ((values[1:-1].real, out.real), (values[1:-1].imag, out.imag)):
        dest[2:] += np.fft.irfft(np.fft.rfft(part, size) * kernel, size)[:m]
    out[1:] *= pref
    return SampledFunction(f.h, out)


def _stencil(offsets: np.ndarray, order: int) -> np.ndarray:
    """Weights w with sum_k w_k f(x + offsets_k h) ~ h^order f^(order)(x): the
    order-th derivative at 0 of the polynomial interpolating f at the integer
    offsets (Fornberg, Math. Comp. 51 (1988) 699). Its coefficients are exact
    integers, so each weight is one correctly rounded division."""
    weights = np.empty(offsets.size)
    for k, x in enumerate(offsets):
        others = np.delete(offsets, k)
        weights[k] = math.factorial(order) * np.poly(others)[-1 - order] / np.prod(x - others)
    return weights


def _derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Grid derivative of the given order, second-order accurate: a central
    stencil of 2r+1 points, r = (order+1)//2, and at the r points nearest each
    end the order+2 points nearest that end. Offsets run far side first, so
    orders 1 and 2 round exactly as their textbook formulas do."""
    n = values.size
    if n < order + 2:
        raise ValueError(f"derivative of order {order} needs at least {order + 2} samples")
    r = (order + 1) // 2
    stencils = [(np.arange(r, n - r), np.arange(r, -r - 1, -1))]
    for p in range(r):
        edge = np.arange(order + 2) - p
        stencils += [(p, edge), (n - 1 - p, -edge)]
    out = np.empty_like(values)
    for at, offsets in stencils:
        out[at] = sum(w * values[at + o] for o, w in zip(offsets, _stencil(offsets, order)))
    return out / h**order


def hilfer_numeric(f: SampledFunction, orders: OrderTriple) -> SampledFunction:
    """Apply D^{(alpha,beta)mu} to sampled data by operator composition:
    inner integral, i-fold grid derivative, outer integral; an integral of
    order 0 is the identity. The first and last (i+1)//2 + 1 output samples
    rest on or next to one-sided stencils; leave them out of accuracy
    comparisons. Rounding floor: the order-i difference amplifies the
    quadrature's rounding of about 1e-15 * max|I f| by h^-i, so refining the
    grid helps only until that outgrows the O(h^2) scheme error (measured
    figures in residual_numeric).
    """
    _check_numeric_input(f)
    nu1 = orders.inner_order
    nu2 = orders.outer_order
    # The inner integral is not kept past its derivative, which lowers the
    # peak memory of the outer integral.
    g2 = _derivative((f if nu1 == 0.0 else rl_integral_numeric(f, nu1)).values, f.h, orders.i)
    if nu2 == 0.0:
        return SampledFunction(f.h, g2)
    return rl_integral_numeric(SampledFunction(f.h, g2), nu2)
