"""Independent evidence that the constructed series solve the equation.

Three checks of increasing machinery:

* ``residual_coefficient_identity`` balances every series term through the
  closed-form monomial operator against the coefficient recurrence -- the
  same Gamma-ratio product computed two structurally different ways;
* ``residual_numeric`` feeds sampled series values through the numeric
  operator composition and compares against the right-hand side pointwise;
* ``initial_condition_check`` recovers the Cauchy data as y -> 0+ limits of
  termwise-differentiated series, extrapolated by a three-point Richardson
  (Aitken) step.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError, _ReadOnly
from .fractional_ops import (
    SampledFunction,
    falling_product,
    hilfer_monomial,
    hilfer_numeric,
)
from .solver import (
    DegenerateProblem,
    SeriesSolution,
    cauchy_solution,
    fundamental_solution,
)
from .special_functions import DEFAULT_TOL, _check_index, _sum_series, _triple

__all__ = [
    "ResidualReport",
    "residual_coefficient_identity",
    "residual_numeric",
    "initial_condition_check",
]

# Relative errors use max(|rhs|, REL_FLOOR) to avoid blowups near zeros of u.
REL_FLOOR = 1e-30

# Deep geometric tail: the slowest error exponent in the y->0 limits can be
# as small as 0.1, so the extrapolation needs y^0.1 itself to become small.
IC_POINTS = (1e-32, 1e-36, 1e-40)


class ResidualReport(_ReadOnly):
    """Pointwise comparison of D^{(alpha,beta)mu} u against lambda y^m u.

    Errors are taken over the comparison window only. The _stencil_edge(i)
    points at each end of the grid, on or next to one-sided stencils, are
    excluded; `excluded_boundary_points` counts those inside the window.
    `tail_start` records how many leading series terms were shifted out of
    the numeric path (see residual_numeric). The attributes are read-only.
    """

    def __init__(
        self,
        grid: np.ndarray,
        lhs: np.ndarray,
        rhs: np.ndarray,
        max_abs_error: float,
        max_rel_error: float,
        excluded_boundary_points: int,
        tail_start: int,
        converged: bool,
    ) -> None:
        self.__dict__.update(grid=grid, lhs=lhs, rhs=rhs, max_abs_error=max_abs_error,
                             max_rel_error=max_rel_error,
                             excluded_boundary_points=excluded_boundary_points,
                             tail_start=tail_start, converged=converged)


def residual_coefficient_identity(problem: DegenerateProblem, s: int, K: int) -> float:
    """Maximum relative error of the term balance over k = 1..K.

    Applying the closed-form operator to the k-th series monomial must
    reproduce lambda times the (k-1)-th coefficient:
    coef(D y^{ak+b_s}) * c_k = lambda * c_{k-1} after weighting by lambda^k;
    the lambda powers cancel in the relative error, which is therefore
    |coef(D y^{ak+b_s}) * c_k/c_{k-1} - 1|. The ratios c_k/c_{k-1} are the
    cached ones that the series engine sums and the coefficient readers
    multiply out, read once each. The k = 0 term must map to exactly zero
    (kernel monomial).

    The check stops at the first subnormal coefficient c_k, the running
    product of the ratios, and fills the cached ratios no further.
    """
    K = _check_index("K", K, 1)
    sol = fundamental_solution(problem, s)
    a, bs = sol.a, sol.b
    kernel = hilfer_monomial(problem.orders, bs)
    if kernel.coef != 0:
        raise DomainError(
            f"branch leading monomial y^{bs} not annihilated (coef {kernel.coef})"
        )
    if problem.lam == 0:
        return 0.0
    grow = _triple(*sol.kilbas_saigo_params()).grow
    worst = 0.0
    tiny = sys.float_info.min
    coefficient = 1.0  # c_0
    for k in range(1, K + 1):
        ratio = grow(k + 1)[k]
        coefficient *= ratio
        if abs(coefficient) < tiny:
            break  # subnormal coefficients no longer carry relative precision
        err = abs(hilfer_monomial(problem.orders, a * k + bs).coef * ratio - 1.0)
        if math.isnan(err):
            return err  # a nan ratio fails the check
        worst = max(worst, err)
    return worst


def _default_tail_start(sol: SeriesSolution) -> int:
    """Shift the numeric residual to the series tail whose inner integral
    has exponent at least i + 3/4, so the grid derivative meets no
    singularity worse than its own accuracy order. The shift is at least 1
    (at k = 0 the exponent is s + 3/4 < i + 3/4); it puts the tail's leading
    exponent at 3/4 + i - (1-mu)(i-beta) or above and the right-hand side's
    at 3/4 + mu(i-alpha) or above, so both vanish at y = 0."""
    orders = sol.problem.orders
    k1 = 0
    while sol.a * k1 + sol.b + orders.inner_order - orders.i < 0.75:
        k1 += 1
    return k1


def _stencil_edge(i: int) -> int:
    """Grid points at each end that residual_numeric leaves out: the (i+1)//2
    one-sided stencils of the order-i derivative and one more."""
    return (i + 1) // 2 + 1


def _compared_points(ys: np.ndarray, y_max: float, i: int) -> tuple[np.ndarray, int]:
    """The grid points residual_numeric compares, those of [y_max/4, y_max]
    off the _stencil_edge(i) points at each end, and how many points of the
    window it leaves out."""
    window = ys >= y_max / 4.0
    edge = _stencil_edge(i)
    index = np.arange(ys.size)
    stencil_edges = (index < edge) | (index >= ys.size - edge)
    return window & ~stencil_edges, int(np.count_nonzero(window & stencil_edges))


def residual_min_points(i: int) -> int:
    """Fewest grid intervals residual_numeric accepts, 8 for i = 1, 2: the
    window [y_max/4, y_max] then starts past the left edge points and the
    derivative has its i+2 samples."""
    return 4 * _stencil_edge(i)


def residual_numeric(
    problem: DegenerateProblem,
    s: int,
    y_max: float = 1.0,
    n_points: int = 2048,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Compare the numeric operator against lambda y^m u on [y_max/4, y_max].

    The check exploits that the series tail obeys an exact shifted equation:
    with w_k(y) = sum_{j >= k} c_j lambda^j y^{aj+b}, termwise application of
    the monomial formula gives D w_{k} = lambda y^m w_{k-1} (and D w_0 =
    lambda y^m w_0, the original equation). Verifying the tail equation for
    k = tail_start avoids sampling the near-origin singular head, whose
    unbounded derivatives would otherwise drown the quadrature in scheme
    error; it is the smallest k that makes the composed scheme's accuracy
    order reach ~2, recorded in the report. Like its branch, the tail is
    sampled at y > 0 only; at y = 0 both sides are 0.

    Rounding floor: the order-i derivative amplifies the quadrature's rounding
    of about 1e-15 * max|I f| by h^-i, so past some grid size the residual
    grows as h shrinks, and a failure at high i can mean the grid cannot
    resolve the check. (3.5, 3.25, 0.5, i=4, m=0.5, lambda=-2+1j) on [0, 1]
    reads 2.3e-4 at 512 points, 4.6e-3 at 4096 and 11.3 at 32768. At i = 6,
    (5.5, 5.25, ...) passes 5e-3 only from about 192 to 320 points.
    """
    if not 0.0 < y_max < math.inf:
        raise ValueError(f"y_max must be positive and finite, got {y_max}")
    orders = problem.orders
    n_points = _check_index("n_points", n_points, residual_min_points(orders.i))
    sol = fundamental_solution(problem, s)
    k1 = _default_tail_start(sol)
    h = y_max / n_points
    ys = h * np.arange(n_points + 1)
    # w(0) = 0, see _default_tail_start.
    tail = sol.tail_grid_report(ys[1:], k1, tol)
    w = np.concatenate(([0j], tail.value))
    converged = bool(tail.converged.all())
    del tail  # its per-point metadata need not live through the quadrature
    if not np.isfinite(w).all():
        # An overflowed tail cannot be sampled: the residual is unmeasured,
        # reported as infinite, and the evaluation as not converged.
        unknown = np.full(ys.size, complex("nan"))
        excluded = _compared_points(ys, y_max, orders.i)[1]
        return ResidualReport(ys, unknown, unknown.copy(), math.inf, math.inf, excluded, k1, False)
    lhs = hilfer_numeric(SampledFunction(h, w), orders).values
    # The rhs tail w_{k1-1} is w_{k1} plus one head term.
    w_rhs = w.copy()
    # A product past the double range is inf or nan, silently: its error is
    # unmeasured and reported as infinite.
    with np.errstate(over="ignore", invalid="ignore"):
        w_rhs[1:] += sol._term_coefficient(k1 - 1) * ys[1:] ** (sol.a * (k1 - 1) + sol.b)
        rhs = problem.lam * ys**problem.m * w_rhs
        compare, excluded = _compared_points(ys, y_max, orders.i)
        abs_err = np.abs(lhs[compare] - rhs[compare])
        rel_err = abs_err / np.maximum(np.abs(rhs[compare]), REL_FLOOR)
    return ResidualReport(
        grid=ys,
        lhs=lhs,
        rhs=rhs,
        max_abs_error=_worst(abs_err),
        max_rel_error=_worst(rel_err),
        excluded_boundary_points=excluded,
        tail_start=k1,
        converged=converged,
    )


def _worst(errors: np.ndarray) -> float:
    """The largest error, inf if any is nan (an overflowed value)."""
    return math.inf if np.isnan(errors).any() else float(errors.max())


def _derivative_series(branch: SeriesSolution, j: int) -> "tuple[int, Callable]":
    """(start, ratios_of): branch s's part of d^j/dy^j g(y) for the series
    engine, g(y) = y^{(1-mu)(i-beta)} u(y).

    The exponent shift turns branch s into sum_k c_k lambda^k y^{ak+s}, so
    the derivative is y^{s-j} sum_k fp_k c_k (lambda y^a)^k with the falling
    products fp_k = (ak+s)(ak+s-1)...(ak+s-j+1). For s < j, fp_0 = 0 and
    y^{s-j} may overflow, so the sum starts at k = 1 with the power folded
    into lambda y^{a+s-j}. Every summed fp_k is at least 1 (each factor is
    at least s-j+1 for s >= j, and exceeds i-j+s for s < j since a > i-1),
    so the first term ratio is fp_start and each later one
    c_{start+k}/c_{start+k-1} times fp_k/fp_{k-1}, in one list for all y."""
    a, s = branch.a, branch.s
    start = 1 if s < j else 0
    tail = _triple(*branch._tail_params(start)).grow
    if j == 0:
        return start, tail
    ratios: list[float] = []

    def fetch(n: int) -> list[float]:
        base = tail(n)
        ratios.extend(base[k] * (falling_product(a * (k + start) + s, j) / (
            falling_product(a * (k + start - 1) + s, j) if k else 1.0)) for k in range(len(ratios), n))
        return ratios

    return start, fetch


def _series_derivative_at(series: list, j: int, y: float, tol: float) -> complex:
    """d^j/dy^j g(y) over the (weight, branch, start, ratios_of) of every
    weighted branch; nan if a branch series does not converge."""
    total = 0.0 + 0.0j
    for weight, branch, start, ratios_of in series:
        a, s = branch.a, branch.s
        report = _sum_series(ratios_of, branch.lam * y**a, tol)
        if not report.converged:
            return complex("nan")
        lead = branch.lam * y ** (a + s - j) if start else y ** (s - j)
        total += weight * lead * (branch.coefficient(start) * report.value)
    return total


def _aitken(g0: complex, g1: complex, g2: complex) -> complex:
    """Three-point Richardson step for geometrically spaced samples."""
    step = g2 - g1
    denom = step - (g1 - g0)
    if abs(denom) <= 1e-14 * max(abs(g0), abs(g1), abs(g2), 1e-300):
        return g2
    return g2 - step * step / denom  # a complex ** 2 past the double range raises


def initial_condition_check(
    problem: DegenerateProblem,
    phis: "list[complex] | tuple[complex, ...]",
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """|extrapolated limit - phi_j| for j = 0..i-1, inf where a sum
    overflows or does not converge.

    The weighted series g(y) = y^{(1-mu)(i-beta)} u(y) is differentiated
    termwise (exact), sampled at IC_POINTS and driven to y -> 0+ by a
    Richardson step on them."""
    sol = cauchy_solution(problem, phis)
    errors = []
    for j, phi in enumerate(sol.phis):
        series = [(weight, branch, *_derivative_series(branch, j))
                  for weight, branch in zip(sol.weights, sol.branches) if weight != 0]
        samples = [_series_derivative_at(series, j, y, tol) for y in IC_POINTS]
        error = abs(_aitken(*samples) - phi)
        # An overflowed or unconverged sum leaves the limit unmeasured: inf.
        errors.append(math.inf if math.isnan(error) else error)
    return errors
