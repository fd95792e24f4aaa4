"""Scalar special-function kernel.

Provides log-Gamma, overflow-safe Gamma ratios, the Kilbas-Saigo function
E_{alpha,m,l} and a two-parameter Mittag-Leffler function E_{a,b}. The
Mittag-Leffler routine exists purely as an independent cross-check for the
m = 1 reductions of E_{alpha,m,l}; it shares the series engine (and so the
truncation rule) but not the coefficient computation.

All Gamma ratios are handled in log space; Gamma values themselves are never
formed (they overflow past arguments of about 170).
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import DomainError

__all__ = [
    "KilbasSaigoParams",
    "SeriesEvalReport",
    "log_gamma",
    "log_gamma_ratio",
    "gamma_ratio",
    "kilbas_saigo",
    "kilbas_saigo_coefficients",
    "mittag_leffler",
]

DEFAULT_TOL = 1e-12


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Relative accuracy is at the level of the platform libm (a couple of ulp,
    well inside 1e-13 on [1e-6, 1e6]).
    """
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got x={x}")
    return math.lgamma(x)


# Stirling tail ln Gamma(z) = (z-1/2) ln z - z + ln(2 pi)/2 + S(z); the
# four-term S is accurate to ~2e-15 absolute for z >= 20.
_STIRLING_MIN = 20.0


def _stirling_tail(z: float) -> float:
    w = 1.0 / (z * z)
    return (1.0 / 12.0 + w * (-1.0 / 360.0 + w * (1.0 / 1260.0 - w / 1680.0))) / z


def _log_gamma_ratio_offset(q: float, nu: float) -> float:
    """lnGamma(q) - lnGamma(q + nu), with the offset given exactly.

    A direct difference of two lnGamma values carries ~|lnGamma|*eps of
    rounding from each call, which dwarfs a small ratio at large arguments;
    forming the difference from the Stirling expansion keeps the error at
    the ulp level of the result itself. Because only (q, nu) enter, the
    result is insensitive to how the second Gamma argument would have been
    assembled by the caller.
    """
    p = q + nu
    if q < _STIRLING_MIN or p < _STIRLING_MIN:
        return math.lgamma(q) - math.lgamma(p)
    return -(
        (q - 0.5) * math.log1p(nu / q)
        + nu * (math.log(p) - 1.0)
        + _stirling_tail(p)
        - _stirling_tail(q)
    )


def log_gamma_ratio(p: float, q: float) -> float:
    """lnGamma(p) - lnGamma(q) for p, q > 0, stable for close arguments."""
    if not p > 0.0:
        raise DomainError(f"gamma_ratio requires p > 0, got p={p}")
    if not q > 0.0:
        raise DomainError(f"gamma_ratio requires q > 0, got q={q}")
    return -_log_gamma_ratio_offset(q, p - q)


def gamma_ratio(p: float, q: float) -> float:
    """Gamma(p) / Gamma(q) for p, q > 0, via the log-space ratio.

    Finite whenever the ratio itself is representable, even where Gamma(p)
    alone would overflow.
    """
    return math.exp(log_gamma_ratio(p, q))


@dataclass(frozen=True)
class KilbasSaigoParams:
    """Parameter triple (alpha, m, l) of the Kilbas-Saigo function E_{alpha,m,l}.

    Admissibility: alpha, m and l finite, alpha > 0, m > 0 and
    alpha*l > -1. The last inequality keeps every Gamma argument
    alpha*(j*m + l) + 1 strictly positive for j >= 0, so the coefficient
    products never touch a pole.
    """

    alpha: float
    m: float
    l: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.m, self.l))):
            raise DomainError(
                f"alpha, m and l must be finite (alpha={self.alpha}, m={self.m}, l={self.l})"
            )
        if not self.alpha > 0.0:
            raise DomainError(f"alpha > 0 violated (alpha={self.alpha})")
        if not self.m > 0.0:
            raise DomainError(f"m > 0 violated (m={self.m})")
        if not self.alpha * self.l > -1.0:
            raise DomainError(
                f"alpha*l > -1 violated (alpha={self.alpha}, l={self.l})"
            )


@dataclass(frozen=True)
class SeriesEvalReport:
    """Outcome of a truncated series evaluation."""

    value: complex
    terms_used: int
    last_term_magnitude: float
    converged: bool


# Triples kept by the coefficient cache; a parameter sweep cycles through it.
_CACHE_SIZE = 128


class _CoefficientCache:
    """Bounded cache of Kilbas-Saigo log-coefficients ln c_i per parameter
    triple.

    One list per triple: the series engine sums these logs, so deep tails
    neither overflow nor underflow, and the linear coefficients handed to
    the identity check are exp of the same numbers. The fill is idempotent,
    append-only and guarded by a lock, so concurrent evaluations behave as
    if each recomputed the sequence. At most `_CACHE_SIZE` triples are kept:
    the least recently used one is dropped, and a later request refills it
    with identical values. A list handed out earlier keeps its values but
    stops growing once its triple is dropped, so a caller that needs more
    terms asks the cache again.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: OrderedDict[tuple[float, float, float], list[float]] = OrderedDict()

    def logs(self, params: KilbasSaigoParams, n: int) -> list[float]:
        """At least n log-coefficients ln c_0, ln c_1, ... of the triple."""
        key = (params.alpha, params.m, params.l)
        with self._lock:
            log = self._data.get(key)
            if log is None:
                log = self._data[key] = [0.0]
                if len(self._data) > _CACHE_SIZE:
                    self._data.popitem(last=False)
            else:
                self._data.move_to_end(key)
            alpha, m, l = params.alpha, params.m, params.l
            while len(log) < n:
                j = len(log) - 1
                diff = _log_gamma_ratio_offset(alpha * (j * m + l) + 1.0, alpha)
                log.append(log[-1] + diff)
            return log


_CACHE = _CoefficientCache()


def kilbas_saigo_coefficients(params: KilbasSaigoParams, count: int) -> list[float]:
    """First `count` series coefficients c_0..c_{count-1} of E_{alpha,m,l}.

    c_0 = 1 and c_i = c_{i-1} * Gamma(alpha*(jm+l)+1)/Gamma(alpha*(jm+l+1)+1)
    at j = i-1, each ratio taken in log space and accumulated as ln c_i.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [math.exp(v) for v in _CACHE.logs(params, count)[:count]]


# Log-coefficients fetched ahead of the first term; the fetch doubles after.
_FETCH_AHEAD = 64

# Terms summed before the engine gives up with converged=False.
_MAX_TERMS = 10_000


def _sum_log_series(
    log_coeffs: Callable[[int], list[float]],
    z: complex,
    start: int = 0,
    tol: float = DEFAULT_TOL,
    weight: "Callable[[int], float] | None" = None,
) -> SeriesEvalReport:
    """The series engine: sum_k w_k exp(L[start+k] + k log z), k = 0, 1, ...

    `log_coeffs(n)` returns a list of at least n log-coefficients L; it is
    asked again whenever the sum needs more. The optional real weights w_k
    (default 1) may be zero or negative. Real z is summed in real arithmetic
    with an explicit sign (-1)^k for z < 0, so a real series has an exactly
    zero imaginary part.

    Stopping rule, the only one in the package: stop at the first index
    N >= 2 where |t_k| <= tol*max(1, |S_k|) held for three consecutive k and
    |t_N| < |t_{N-1}|. A term that overflows ends the sum unconverged with
    the partial sum as its value; so does reaching _MAX_TERMS terms.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    logs = log_coeffs(start + _FETCH_AHEAD)
    if z == 0:
        first = math.exp(logs[start]) * (1.0 if weight is None else weight(0))
        return SeriesEvalReport(complex(first), 1, 0.0, True)
    z = complex(z)
    if z.imag == 0.0:
        exp, log_z, flip, total = math.exp, math.log(abs(z.real)), z.real < 0.0, 0.0
    else:
        exp, log_z, flip, total = cmath.exp, cmath.log(z), False, 0.0j
    streak = 0
    prev_mag = math.inf
    mag = math.inf
    k = 0
    while k < _MAX_TERMS:
        i = start + k
        if i >= len(logs):
            logs = log_coeffs(2 * i)
        try:
            t = exp(logs[i] + k * log_z)
        except OverflowError:
            # Term outgrew the double range; report the best partial sum.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if flip and k & 1:
            t = -t
        if weight is not None:
            t *= weight(k)
        total += t
        mag = abs(t)
        if not math.isfinite(mag):
            return SeriesEvalReport(complex(total), k + 1, mag, False)
        if mag <= tol * max(1.0, abs(total)):
            streak += 1
        else:
            streak = 0
        if k >= 2 and streak >= 3 and (mag < prev_mag or mag == prev_mag == 0.0):
            return SeriesEvalReport(complex(total), k + 1, mag, True)
        prev_mag = mag
        k += 1
    return SeriesEvalReport(complex(total), k, mag, False)


def kilbas_saigo(
    params: KilbasSaigoParams, z: complex, tol: float = DEFAULT_TOL
) -> SeriesEvalReport:
    """Kilbas-Saigo function E_{alpha,m,l}(z) = sum_i c_i z^i.

    Entire in z; the coefficients are real and positive, complex z enters
    only through the powers. Returns the partial sum with truncation
    metadata; a non-converged report (term cap reached or a term
    overflowed) still carries the best value.
    """
    return _sum_log_series(partial(_CACHE.logs, params), z, 0, tol)


def mittag_leffler(a: float, b: float, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) = sum_k z^k / Gamma(ak+b).

    Summed by the same engine as kilbas_saigo, but each log-coefficient is
    formed directly as -lnGamma(ak+b), independently of any coefficient
    recurrence or cache. Intended as a desk-scale oracle; the partial sum is
    returned even if the rule never fires.
    """
    if not a > 0.0:
        raise DomainError(f"mittag_leffler requires a > 0, got a={a}")
    if not b > 0.0:
        raise DomainError(f"mittag_leffler requires b > 0, got b={b}")
    log_coeffs: list[float] = []

    def fetch(n: int) -> list[float]:
        while len(log_coeffs) < n:
            log_coeffs.append(-math.lgamma(a * len(log_coeffs) + b))
        return log_coeffs

    return _sum_log_series(fetch, z, 0, tol).value
