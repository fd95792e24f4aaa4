"""Series solutions of the degenerate equation D^{(alpha,beta)mu} u = lambda y^m u.

Builds the fundamental family u_s(y) = y^{b_s} * sum_k c_k (lambda y^a)^k for
s = 0..i-1 and the solution of the Cauchy-type initial problem as a weighted
combination of branches. Branch s is y^{b_s} E_{gamma, a/gamma,
(a+b_s)/gamma - 1}(lambda y^a): a SeriesSolution is built from (problem, s)
alone, maps it to that triple once and reads its coefficients from the
shared, bounded Kilbas-Saigo cache. SeriesSolution.evaluate and
CauchySolution.evaluate return a SeriesEvalReport per point y, the branch
being y**b * kilbas_saigo(lam * y**a) by Python's pow, contour rule
included; this module imports no numpy for them. A tail from k_start,
tail_grid_report, is kilbas_saigo_grid along the ray lam * y**a at the
shifted triple (alpha, m, l + m*k_start) times c_k_start lambda^k_start
y^(a k_start + b); it imports numpy and series_grid when called.
That the coefficients solve the equation is checked independently by
verification.residual_coefficient_identity.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .errors import DomainError
from .special_functions import (
    DEFAULT_TOL,
    KilbasSaigoParams,
    SeriesEvalReport,
    _check_index,
    _power,
    kilbas_saigo,
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
    "hilfer_reduction_params",
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
        try:
            i = operator.index(self.i)  # an int or another integer type, not 2.0
        except TypeError:
            i = 0
        if i < 1:
            raise DomainError(f"i must be a positive integer, got i={self.i}")
        object.__setattr__(self, "i", i)
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
class DegenerateProblem:
    """Problem data: operator orders, a finite degeneracy exponent m >= 0 and
    a finite spectral parameter lambda (complex). Solvability additionally
    requires m + mu*(alpha - beta) >= 0."""

    orders: OrderTriple
    m: float
    lam: complex

    def __post_init__(self) -> None:
        if not 0.0 <= self.m < math.inf:
            raise DomainError(f"m >= 0 and finite violated (m={self.m})")
        if not cmath.isfinite(self.lam):
            raise DomainError(f"lambda must be finite, got lambda={self.lam}")
        shift = self.m + self.orders.mu * (self.orders.alpha - self.orders.beta)
        if not shift >= 0.0:
            raise DomainError(
                f"m + mu*(alpha-beta) >= 0 violated "
                f"(value {shift} for m={self.m}, mu={self.orders.mu}, "
                f"alpha={self.orders.alpha}, beta={self.orders.beta})"
            )
        object.__setattr__(self, "lam", complex(self.lam))


@dataclass(frozen=True)
class DerivedParams:
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
    # Guaranteed by the problem invariants; checked to fail loudly if not.
    if not a > 0.0:
        raise DomainError(f"a = m + gamma > 0 violated (a={a})")
    for bs in b:
        if not problem.m + bs + 1.0 > 0.0:
            raise DomainError(f"m + b_s + 1 > 0 violated (b_s={bs}, m={problem.m})")
    return DerivedParams(gamma, a, b)


def coefficient_sequence(problem: DegenerateProblem, s: int, K: int) -> list[float]:
    """Coefficients c_0..c_K of branch s; c_0 = 1. All Gamma arguments stay
    strictly positive for admissible problems."""
    params = SeriesSolution(problem, s).kilbas_saigo_params()
    return kilbas_saigo_coefficients(params, _check_index("K", K) + 1)


@dataclass(eq=False)
class SeriesSolution:
    """Branch s of the fundamental system, u_s(y) = y^b * sum_k c_k (lambda y^a)^k
    for y > 0, with b = b_s.

    Construction maps (problem, s) to the paper's branch y^{b_s}
    E_{gamma, a/gamma, (a+b_s)/gamma - 1}(lambda y^a) once. The c_k are the
    Kilbas-Saigo coefficients at that triple: every evaluation reads them
    from the shared, bounded cache, which extends them as needed.
    """

    problem: DegenerateProblem
    s: int
    a: float = field(init=False)
    b: float = field(init=False)
    lam: complex = field(init=False)

    def __post_init__(self) -> None:
        i = self.problem.orders.i
        self.s = _check_index("s", self.s, -math.inf)  # the range is checked next
        if not 0 <= self.s <= i - 1:
            raise ValueError(f"branch s must lie in 0..{i - 1}, got s={self.s}")
        params = derive_params(self.problem)
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
        """c_k, extending the shared cache if needed."""
        k = _check_index("k", k)
        return math.exp(self._params._log_coeffs(k + 1)[k])

    def evaluate_report(self, y: float, tol: float = DEFAULT_TOL) -> SeriesEvalReport:
        """evaluate at the one point y > 0 (b < 0 is singular at y = 0).
        Kept only because bench/child.py's trace wraps it (ROADMAP item 4)."""
        return self.evaluate([y], tol)[0]

    def evaluate(self, ys: Iterable[float], tol: float = DEFAULT_TOL) -> list[SeriesEvalReport]:
        """The branch, with truncation metadata, at every y > 0 of ys:
        y**b * kilbas_saigo(lam * y**a) by Python's pow, path included. A
        power past the double range is inf, and its point unconverged."""
        params, lam, a, b = self._params, self.lam, self.a, self.b
        reports = []
        for y in _check_grid(ys):
            value, terms, last, converged, path = kilbas_saigo(params, lam * _power(y, a), tol)
            scale = _power(y, b)
            # A complex product, so an overflowed y**b leaves no part finite.
            value = complex(scale, 0.0 * scale) * value
            reports.append(SeriesEvalReport._make((value, terms, last, converged, path)))
        return reports

    def evaluate_tail_report(
        self, y: float, k_start: int, tol: float = DEFAULT_TOL
    ) -> SeriesEvalReport:
        """The tail from k_start at y >= 0: tail_grid_report at the one point.
        Kept only because bench/child.py's trace wraps it (ROADMAP item 4)."""
        report = self.tail_grid_report([y], k_start, tol)
        return SeriesEvalReport(*(field.item() for field in vars(report).values()))

    def tail_grid_report(
        self, ys: Iterable[float], k_start: int, tol: float = DEFAULT_TOL
    ) -> SeriesGridReport:
        """Series tail sum_{k >= K} c_k lambda^k y^{ak+b}, K = k_start, at every
        grid point (at y = 0 too whenever aK + b >= 0). The product defining
        c_k telescopes from K, so it is c_K lambda^K y^(aK+b) times
        kilbas_saigo_grid at _tail_params(K) along the ray z = lambda y^a:
        kilbas_saigo's to rounding, and K = 0 is the whole branch."""
        import numpy as np

        from .series_grid import _PowerGrid, kilbas_saigo_grid

        ys = np.asarray(ys, dtype=float)
        if ys.ndim != 1:
            raise ValueError(f"need a 1-d grid of y, got shape {ys.shape}")
        ok = (ys >= 0.0) & (ys < math.inf)
        if not ok.all():
            raise DomainError(f"evaluation requires finite y >= 0, got y={float(ys[~ok][0])}")
        params = self._tail_params(k_start)
        origin = self.tail_at_origin(k_start) if (ys == 0.0).any() else None
        with np.errstate(over="ignore"):
            scale = np.power(ys, self.a * k_start + self.b)
        report = kilbas_saigo_grid(params, _PowerGrid(self.lam, self.a, ys), tol)
        # In real arithmetic, as numpy's in-place complex product rounds a
        # long array otherwise than a short one. An overflowed sum or power
        # may grow.
        lead, v = self.coefficient(k_start) * self.lam**k_start, report.value
        with np.errstate(over="ignore", invalid="ignore"):
            re, im = scale * lead.real, scale * lead.imag
            v.real, v.imag = re * v.real - im * v.imag, re * v.imag + im * v.real
        if origin is not None:
            v[ys == 0.0] = origin
        return report

    def tail_at_origin(self, k_start: int, shift: float = 0.0) -> complex:
        """Limit at y -> 0+ of y^shift times the tail from k_start: zero when
        its leading exponent shift + a*k_start + b is positive, the leading
        term c_{k_start} lambda^{k_start} when it is zero."""
        k_start = _check_index("k_start", k_start)
        lead = shift + self.a * k_start + self.b
        if lead > 0.0:
            return 0.0 + 0.0j
        if lead == 0.0:
            return self.coefficient(k_start) * self.lam**k_start + 0.0j
        raise DomainError(f"tail is singular at y = 0 (leading exponent {lead})")


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


@dataclass(eq=False)
class CauchySolution:
    """Weighted branch combination sum_s (phi_s / s!) u_s solving the
    Cauchy-type initial problem with data phi_0..phi_{i-1}."""

    problem: DegenerateProblem
    phis: tuple[complex, ...]
    branches: tuple[SeriesSolution, ...]
    weights: tuple[complex, ...]

    def evaluate_report(self, y: float, tol: float = DEFAULT_TOL) -> SeriesEvalReport:
        """evaluate at the one point y > 0.
        Kept only because bench/child.py's trace wraps it (ROADMAP item 4)."""
        return self.evaluate([y], tol)[0]

    def evaluate(self, ys: Iterable[float], tol: float = DEFAULT_TOL) -> list[SeriesEvalReport]:
        """The weighted sum of the branch reports at every y > 0 of ys; a path
        is every weighted branch's, else "mixed" ("series" if no weight)."""
        ys = _check_grid(ys)
        weighted = [(w, branch.evaluate(ys, tol))
                    for w, branch in zip(self.weights, self.branches) if w != 0]
        reports = []
        for j in range(len(ys)):
            total, terms, last, converged, path = 0j, 0, 0.0, True, None
            for w, rows in weighted:
                value, used, magnitude, ok, branch_path = rows[j]
                total += w * value
                terms += used
                last = max(last, abs(w) * magnitude)
                converged = converged and ok
                path = branch_path if path in (None, branch_path) else "mixed"
            reports.append(SeriesEvalReport(total, max(terms, 1), last, converged, path or "series"))
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


def hilfer_reduction_params(problem: DegenerateProblem) -> list[KilbasSaigoParams]:
    """Kilbas-Saigo parameter triples per branch in the alpha = beta case,
    where the operator is the classical Hilfer derivative:
    (alpha, m/alpha + 1, (m + s - (1-mu)*(i-alpha))/alpha)."""
    orders = problem.orders
    if orders.alpha != orders.beta:
        raise DomainError(
            f"alpha = beta required for the Hilfer reduction "
            f"(alpha={orders.alpha}, beta={orders.beta})"
        )
    alpha, m = orders.alpha, problem.m
    out = []
    for s in range(orders.i):
        out.append(
            KilbasSaigoParams(
                alpha=alpha,
                m=m / alpha + 1.0,
                l=(m + s - (1.0 - orders.mu) * (orders.i - alpha)) / alpha,
            )
        )
    return out
