"""Series solutions of the degenerate equation D^{(alpha,beta)mu} u = lambda y^m u.

Builds the fundamental family u_s(y) = y^{b_s} * sum_k c_k (lambda y^a)^k for
s = 0..i-1 and the solution of the Cauchy-type initial problem as a weighted
combination of branches. Branch s is y^{b_s} E_{gamma, a/gamma,
(a+b_s)/gamma - 1}(lambda y^a): a SeriesSolution is built from (problem, s)
alone, maps it to that triple once and reads its coefficients from the
shared, bounded Kilbas-Saigo cache. A tail from k_start is kilbas_saigo_grid
at the shifted triple (alpha, m, l + m*k_start) times c_k_start lambda^k_start
y^(a k_start + b), and k_start = 0 is the whole branch, so an m = 0 problem's
branches and tails take the contour rule where their series cancels. The
solver evaluates grids, 1-d arrays of y: SeriesSolution.grid_report and
tail_grid_report, and CauchySolution.grid_report.
That the coefficients solve the equation is checked independently by
verification.residual_coefficient_identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fractional_ops import OrderTriple
from .series_grid import _CHUNK_POINTS, SeriesGridReport, _PowerGrid, _power, kilbas_saigo_grid
from .special_functions import (
    DEFAULT_TOL,
    KilbasSaigoParams,
    SeriesEvalReport,
    _check_index,
    kilbas_saigo_coefficients,
)

__all__ = [
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
        """grid_report at the one point y > 0 (b < 0 is singular at y = 0).
        Kept only because bench/child.py's trace wraps it (ROADMAP item 4)."""
        return _one_point(self.grid_report([y], tol))

    def grid_report(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> SeriesGridReport:
        """The branch, with truncation metadata, at every grid point y > 0."""
        return self.tail_grid_report(_check_grid(ys, origin=False), 0, tol)

    def evaluate_tail_report(
        self, y: float, k_start: int, tol: float = DEFAULT_TOL
    ) -> SeriesEvalReport:
        """The tail from k_start at y >= 0: tail_grid_report at the one point.
        Kept only because bench/child.py's trace wraps it (ROADMAP item 4)."""
        return _one_point(self.tail_grid_report([y], k_start, tol))

    def tail_grid_report(
        self, ys: np.ndarray, k_start: int, tol: float = DEFAULT_TOL
    ) -> SeriesGridReport:
        """Series tail sum_{k >= K} c_k lambda^k y^{ak+b}, K = k_start, at every
        grid point (at y = 0 too whenever aK + b >= 0). The product defining
        c_k telescopes from K, so it is c_K lambda^K y^(aK+b) times
        kilbas_saigo_grid at _tail_params(K), z = lambda y^a. The branch
        (K = 0) forms z and y^b by Python's pow, so it has the bits of
        y^b kilbas_saigo(z), path included; a tail takes a _PowerGrid."""
        ys = _check_grid(ys, origin=True)
        params = self._tail_params(k_start)
        origin = self.tail_at_origin(k_start) if (ys == 0.0).any() else None
        lam, a, power = self.lam, self.a, self.a * k_start + self.b
        if k_start:
            with np.errstate(over="ignore"):
                zs, scale = _PowerGrid(lam, a, ys), np.power(ys, power)
        else:
            zs, scale = np.empty(ys.size, dtype=complex), np.empty(ys.size)
            for c in _slices(ys.size):
                zs[c] = [lam * _power(y, a) for y in ys[c].tolist()]
                scale[c] = [_power(y, power) for y in ys[c].tolist()]
        report = kilbas_saigo_grid(params, zs, tol)
        # In real arithmetic, as numpy's in-place complex product rounds a
        # long array otherwise than a short one; at k_start = 0 it rounds as
        # Python's y**b * lam**0 * v. An overflowed sum or power may grow.
        lead, v = self.coefficient(k_start) * lam**k_start, report.value
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


def _one_point(report: SeriesGridReport) -> SeriesEvalReport:
    """The SeriesEvalReport of a one-point grid report."""
    return SeriesEvalReport(*(field.item() for field in vars(report).values()))


def _check_grid(ys: np.ndarray, origin: bool) -> np.ndarray:
    """ys as a 1-d float array of finite y > 0, or y >= 0 for a tail (origin)."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:
        raise ValueError(f"need a 1-d grid of y, got shape {ys.shape}")
    ok = (ys >= 0.0 if origin else ys > 0.0) & (ys < math.inf)
    if not ok.all():
        y = float(ys[~ok][0])
        raise DomainError(f"evaluation requires finite y {'>=' if origin else '>'} 0, got y={y}")
    return ys


def _slices(n: int) -> list[slice]:
    """Grid slices of _CHUNK_POINTS, so the per-point Python lists stay short."""
    return [slice(c, c + _CHUNK_POINTS) for c in range(0, n, _CHUNK_POINTS)]


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
        """grid_report at the one point y > 0.
        Kept only because bench/child.py's trace wraps it (ROADMAP item 4)."""
        return _one_point(self.grid_report([y], tol))

    def grid_report(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> SeriesGridReport:
        """The weighted sum of the branch reports at every y > 0 of ys; a path
        is every weighted branch's, else "mixed" ("series" if no weight)."""
        ys = _check_grid(ys, origin=False)
        total = np.zeros(ys.size, dtype=complex)
        terms = np.zeros(ys.size, dtype=np.int64)
        last = np.zeros(ys.size)
        converged = np.ones(ys.size, dtype=bool)
        path = None
        for w, branch in zip(self.weights, self.branches):
            if w == 0:
                continue
            rep = branch.grid_report(ys, tol)
            # In real arithmetic, each operation rounding as in Python's
            # t + w * v; an overflowed branch may grow.
            v = rep.value
            with np.errstate(over="ignore", invalid="ignore"):
                total.real += w.real * v.real - w.imag * v.imag
                total.imag += w.real * v.imag + w.imag * v.real
            terms += rep.terms_used
            scaled = abs(w) * rep.last_term_magnitude
            last = np.where(scaled > last, scaled, last)
            converged &= rep.converged
            path = rep.path if path is None else np.where(path == rep.path, path, "mixed")
        return SeriesGridReport(total, np.maximum(terms, 1), last, converged, path)


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
