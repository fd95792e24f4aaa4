"""Series solutions of the degenerate equation D^{(alpha,beta)mu} u = lambda y^m u.

Builds the fundamental family u_s(y) = y^{b_s} * sum_k c_k (lambda y^a)^k for
s = 0..i-1 and the solution of the Cauchy-type initial problem as a weighted
combination of branches. Branch s is y^{b_s} E_{gamma, a/gamma,
(a+b_s)/gamma - 1}(lambda y^a): a SeriesSolution is built from (problem, s)
alone, maps it to that triple once and reads its coefficients from the
shared, bounded Kilbas-Saigo cache. SeriesSolution.evaluate and
CauchySolution.evaluate return a SeriesEvalReport per point y, the branch
being y**b * kilbas_saigo(lam * y**a) by Python's pow, scale and contour
rule included, in one pass per branch (special_functions._kilbas_saigo_ray)
that checks tol and looks the triple up once; each checks its grid once.
This module imports no numpy for them. A tail from k_start,
tail_grid_report, has the domain of its branch, y > 0, and comes from the
values the tables print: on a branch whose triple may take the contour
rule it is evaluate minus the head sum_{k < k_start}; on any other it is
series_grid's driver along the ray lam * y**a at the shifted triple
(alpha, m, l + m*k_start) times c_k_start lambda^k_start y^(a k_start + b).
It imports numpy and series_grid when called.
That the coefficients solve the equation is checked independently by
verification.residual_coefficient_identity.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DomainError
from .special_functions import (
    DEFAULT_TOL,
    KilbasSaigoParams,
    SeriesEvalReport,
    _check_index,
    _check_series_args,
    _kilbas_saigo_ray,
    _power,
    _report,
    _triple,
    kilbas_saigo_coefficients,
)

if TYPE_CHECKING:
    from .series_grid import SeriesGridReport

__all__ = [
    "OrderTriple",
    "DegenerateProblem",
    "DerivedParams",
    "SeriesSolution",
    "CauchySolution",
    "derive_params",
    "coefficient_sequence",
    "fundamental_solution",
    "cauchy_solution",
]


class _OrderFields(NamedTuple):
    alpha: float
    beta: float
    mu: float
    i: int


class OrderTriple(_OrderFields):
    """Parameters (alpha, beta, mu, i) of the derivative D^{(alpha,beta)mu}.

    Both fractional orders must lie strictly inside the integer window:
    i-1 < alpha < i and i-1 < beta < i, with interpolation weight
    0 <= mu <= 1. The window index i is carried explicitly so the boundary
    alpha = i can never arise from rounding a ceil().

    A named tuple whose constructor checks admissibility, as
    KilbasSaigoParams is (and for the same reason: no dataclasses).
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, mu: float, i: int) -> OrderTriple:
        try:
            index = operator.index(i)  # an int or another integer type, not 2.0
        except TypeError:
            index = 0
        if index < 1:
            raise DomainError(f"i must be a positive integer, got i={i}")
        if not index - 1 < alpha < index:
            raise DomainError(f"i-1 < alpha < i violated (alpha={alpha}, i={index})")
        if not index - 1 < beta < index:
            raise DomainError(f"i-1 < beta < i violated (beta={beta}, i={index})")
        if not 0.0 <= mu <= 1.0:
            raise DomainError(f"0 <= mu <= 1 violated (mu={mu})")
        return super().__new__(cls, alpha, beta, mu, index)

    @classmethod
    def _make(cls, iterable) -> OrderTriple:
        return cls(*iterable)

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


class _ProblemFields(NamedTuple):
    orders: OrderTriple
    m: float
    lam: complex


class DegenerateProblem(_ProblemFields):
    """Problem data: operator orders, a finite degeneracy exponent m >= 0 and
    a finite spectral parameter lambda (complex). Solvability additionally
    requires m + mu*(alpha - beta) >= 0. A validated named tuple, like
    OrderTriple."""

    __slots__ = ()

    def __new__(cls, orders: OrderTriple, m: float, lam: complex) -> DegenerateProblem:
        if not 0.0 <= m < math.inf:
            raise DomainError(f"m >= 0 and finite violated (m={m})")
        if not cmath.isfinite(lam):
            raise DomainError(f"lambda must be finite, got lambda={lam}")
        shift = m + orders.mu * (orders.alpha - orders.beta)
        if not shift >= 0.0:
            raise DomainError(
                f"m + mu*(alpha-beta) >= 0 violated "
                f"(value {shift} for m={m}, mu={orders.mu}, "
                f"alpha={orders.alpha}, beta={orders.beta})"
            )
        return super().__new__(cls, orders, m, complex(lam))

    @classmethod
    def _make(cls, iterable) -> DegenerateProblem:
        return cls(*iterable)


class DerivedParams(NamedTuple):
    """Quantities the series construction derives from a problem:
    gamma = beta + mu*(alpha-beta), exponent step a = m + gamma, and the
    branch leading exponents b_s = s - (1-mu)*(i-beta), s = 0..i-1."""

    gamma: float
    a: float
    b: tuple[float, ...]


def derive_params(problem: DegenerateProblem) -> DerivedParams:
    orders = problem.orders
    gamma = orders.gamma
    a = problem.m + gamma
    b = tuple(s - orders.inner_order for s in range(orders.i))
    # a > 0 always (gamma = 0 only where m >= beta > 0). m + b_s + 1 > 0
    # holds in exact arithmetic, but fails at i = 1 for mu, beta and m at
    # most 2^-54, where the inner order (1-mu)(1-beta) rounds to 1.
    for bs in b:
        if not problem.m + bs + 1.0 > 0.0:
            raise DomainError(f"m + b_s + 1 > 0 violated (b_s={bs}, m={problem.m})")
    return DerivedParams(gamma, a, b)


def coefficient_sequence(problem: DegenerateProblem, s: int, K: int) -> list[float]:
    """Coefficients c_0..c_K of branch s; c_0 = 1. All Gamma arguments stay
    strictly positive for admissible problems."""
    params = SeriesSolution(problem, s).kilbas_saigo_params()
    return kilbas_saigo_coefficients(params, _check_index("K", K) + 1)


class SeriesSolution:
    """Branch s of the fundamental system, u_s(y) = y^b * sum_k c_k (lambda y^a)^k
    for y > 0, with b = b_s.

    Construction maps (problem, s) to the paper's branch y^{b_s}
    E_{gamma, a/gamma, (a+b_s)/gamma - 1}(lambda y^a) once. The c_k are the
    Kilbas-Saigo coefficients at that triple: every evaluation reads them
    from the shared, bounded cache, which extends them as needed. Two
    branches are equal only if they are the same object.
    """

    def __init__(self, problem: DegenerateProblem, s: int) -> None:
        self.problem = problem
        i = problem.orders.i
        self.s = _check_index("s", s, -math.inf)  # the range is checked next
        if not 0 <= self.s <= i - 1:
            raise ValueError(f"branch s must lie in 0..{i - 1}, got s={self.s}")
        params = derive_params(problem)
        self.a = params.a
        self.b = params.b[self.s]
        self.lam = self.problem.lam
        self._params = KilbasSaigoParams(
            alpha=params.gamma,
            m=params.a / params.gamma,
            l=(params.a + self.b) / params.gamma - 1.0,
        )

    def kilbas_saigo_params(self) -> KilbasSaigoParams:
        """The (alpha, m, l) triple for which the branch series equals
        y^b * E_{alpha,m,l}(lambda y^a)."""
        return self._params

    def _tail_params(self, k_start: int) -> KilbasSaigoParams:
        """(alpha, m, l + m*k_start), whose coefficients are c_{k_start+j}/c_k_start."""
        k_start = _check_index("k_start", k_start)
        alpha, m, l = self._params
        return KilbasSaigoParams(alpha, m, l + m * k_start)

    def coefficient(self, k: int) -> float:
        """c_k, kilbas_saigo_coefficients' running product of the cached
        ratios the series engine sums, extending the shared cache if needed."""
        return kilbas_saigo_coefficients(self._params, _check_index("k", k) + 1)[-1]

    def _term_coefficient(self, k: int) -> complex:
        """c_k lambda^k, the coefficient of y^(ak+b) in the branch: inf where
        lambda^k passes the double range, so that a tail or head built on it
        overflows as a tail whose sum does."""
        return self.coefficient(k) * _power(self.lam, k)

    def evaluate_report(self, y: float, tol: float = DEFAULT_TOL) -> SeriesEvalReport:
        """evaluate at the one point y > 0 (b < 0 is singular at y = 0).
        Kept only because bench/child.py's trace wraps it (ROADMAP item 1)."""
        return self.evaluate([y], tol)[0]

    def evaluate(self, ys: Iterable[float], tol: float = DEFAULT_TOL) -> list[SeriesEvalReport]:
        """The branch, with truncation metadata, at every y > 0 of ys:
        y**b * kilbas_saigo(lam * y**a) by Python's pow in one pass, path
        included. The grid is checked first, then tol, once for the whole
        grid, also an empty one. A power past the double range is inf, and a
        point whose value is not finite is unconverged."""
        return self._evaluate(_check_grid(ys), tol)

    def _evaluate(self, ys: list[float], tol: float) -> list[SeriesEvalReport]:
        """evaluate on a grid already checked: the branch's one ray pass,
        the y**b scale included."""
        return _kilbas_saigo_ray(self._params, self.lam, self.a, self.b, ys, tol)

    def evaluate_tail_report(
        self, y: float, k_start: int, tol: float = DEFAULT_TOL
    ) -> SeriesEvalReport:
        """The tail from k_start at y > 0: tail_grid_report at the one point.
        Kept only because bench/child.py's trace wraps it (ROADMAP item 1)."""
        report = self.tail_grid_report([y], k_start, tol)
        return SeriesEvalReport(*(field.item() for field in vars(report).values()))

    def tail_grid_report(
        self, ys: Iterable[float], k_start: int, tol: float = DEFAULT_TOL
    ) -> SeriesGridReport:
        """Series tail sum_{k >= K} c_k lambda^k y^{ak+b}, K = k_start, at every
        y > 0 of ys, from the values the tables print. On a branch whose
        triple may take the contour rule it is evaluate(ys) minus the head
        sum_{k < K}, path included, and K = 0 is evaluate bit for bit. On any
        other branch the product defining c_k telescopes from K, so the tail
        is c_K lambda^K y^(aK+b) times the series of _tail_params(K) summed
        along the ray z = lambda y^a by the grid driver: kilbas_saigo's to
        rounding."""
        import numpy as np

        from .series_grid import SeriesGridReport, _PowerGrid, _sum_series_grid

        ys = np.asarray(ys, dtype=float)
        if ys.ndim != 1:
            raise ValueError(f"need a 1-d grid of y, got shape {ys.shape}")
        ok = (ys > 0.0) & (ys < math.inf)
        if not ok.all():
            _check_grid(ys[~ok][:1])  # raises evaluate's DomainError
        params = self._tail_params(k_start)
        if _triple(*self._params).contour is None:
            with np.errstate(over="ignore"):
                scale = np.power(ys, self.a * k_start + self.b)
            report = _sum_series_grid(_triple(*params).grow, _PowerGrid(self.lam, self.a, ys), tol)
            # In real arithmetic, as numpy's in-place complex product rounds a
            # long array otherwise than a short one. An overflowed sum or power
            # may grow.
            lead, v = self._term_coefficient(k_start), report.value
            with np.errstate(over="ignore", invalid="ignore"):
                re, im = scale * lead.real, scale * lead.imag
                v.real, v.imag = re * v.real - im * v.imag, re * v.imag + im * v.real
            return report
        rows = self._evaluate(ys.tolist(), tol)  # checks tol also on an empty grid
        fields = zip(*rows) if rows else [()] * 5
        report = SeriesGridReport(*(np.array(field, dtype=dtype) for field, dtype in
                                    zip(fields, (complex, np.int64, float, bool, "<U7"))))
        v = report.value
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k_start):
                v -= self._term_coefficient(k) * np.power(ys, self.a * k + self.b)
        return report


def _check_grid(ys: Iterable[float]) -> list[float]:
    """ys as a list of finite y > 0 (a tail's numpy grid is checked in
    tail_grid_report); an array of y must be 1-d."""
    shape = getattr(ys, "shape", None)
    if shape is not None and len(shape) != 1:
        raise ValueError(f"need a 1-d grid of y, got shape {shape}")
    ys = list(map(float, ys))
    for y in ys:
        if not 0.0 < y < math.inf:
            raise DomainError(f"evaluation requires finite y > 0, got y={y}")
    return ys


def fundamental_solution(problem: DegenerateProblem, s: int) -> SeriesSolution:
    """Branch s of the fundamental system."""
    return SeriesSolution(problem, s)


class CauchySolution:
    """Weighted branch combination sum_s (phi_s / s!) u_s solving the
    Cauchy-type initial problem with data phi_0..phi_{i-1}."""

    def __init__(
        self,
        problem: DegenerateProblem,
        phis: tuple[complex, ...],
        branches: tuple[SeriesSolution, ...],
        weights: tuple[complex, ...],
    ) -> None:
        self.problem = problem
        self.phis = phis
        self.branches = branches
        self.weights = weights

    def evaluate_report(self, y: float, tol: float = DEFAULT_TOL) -> SeriesEvalReport:
        """evaluate at the one point y > 0.
        Kept only because bench/child.py's trace wraps it (ROADMAP item 1)."""
        return self.evaluate([y], tol)[0]

    def evaluate(self, ys: Iterable[float], tol: float = DEFAULT_TOL) -> list[SeriesEvalReport]:
        """The weighted sum of the branch reports at every y > 0 of ys, not
        converged where it is not finite; a path is every weighted branch's,
        else "mixed" ("series" if no weight). last_term_magnitude is the
        largest weighted branch's, nan if any of them is nan. The grid is
        checked first, then tol, once each, also where no weight calls a
        branch; the branches do not check the grid again."""
        ys = _check_grid(ys)
        _check_series_args(tol)
        weighted = [(w, abs(w), branch._evaluate(ys, tol))
                    for w, branch in zip(self.weights, self.branches) if w != 0]
        reports = []
        for j in range(len(ys)):
            total, terms, last, converged, path = 0j, 0, 0.0, True, None
            for w, size, rows in weighted:
                value, used, magnitude, ok, branch_path = rows[j]
                total += w * value
                terms += used
                magnitude *= size
                # A nan magnitude makes last nan, and no later one replaces it.
                if magnitude > last or magnitude != magnitude:
                    last = magnitude
                converged = converged and ok
                if path != branch_path:
                    path = "mixed" if path else branch_path
            converged = converged and cmath.isfinite(total)
            reports.append(_report((total, max(terms, 1), last, converged, path or "series")))
        return reports


def cauchy_solution(
    problem: DegenerateProblem, phis: "list[complex] | tuple[complex, ...]"
) -> CauchySolution:
    """Solution of the Cauchy-type problem with initial data phi_0..phi_{i-1};
    phis must have exactly i entries, all finite."""
    i = problem.orders.i
    if len(phis) != i:
        raise ValueError(f"phis must have exactly i={i} entries, got {len(phis)}")
    phis_c = tuple(complex(p) for p in phis)
    if not all(cmath.isfinite(p) for p in phis_c):
        raise ValueError(f"phis must be finite, got {list(phis_c)}")
    weights = tuple(p / math.factorial(k) for k, p in enumerate(phis_c))
    branches = tuple(fundamental_solution(problem, s) for s in range(i))
    return CauchySolution(problem, phis_c, branches, weights)
