"""Special-function kernel.

Provides log-Gamma, overflow-safe Gamma ratios, the Kilbas-Saigo function
E_{alpha,m,l} and a two-parameter Mittag-Leffler function E_{a,b}. The
series engine sums one point at a time (_sum_log_series) or a whole grid in
numpy blocks (_sum_log_series_grid), with one stopping rule, and an array of
z gets the same bits either way. Every sum starts at c_0 = 1 (a tail from
index K is the triple (alpha, m, l + m*K)). Where the series cancels, at m = 1,
0 < alpha < 1 and l <= 0, kilbas_saigo and kilbas_saigo_grid take a 33-node
trapezoid rule on a Laplace-inversion contour instead, plus the residue of
the one pole right of the contour where |arg z| < alpha*pi, whenever the
rule's error estimate meets tol: one point in Python arithmetic
(_contour_point) and a grid in numpy (_contour_sum) rounded the same way, so
again with the same bits either way. The Mittag-Leffler routine exists
purely as an independent cross-check for the m = 1 reductions of
E_{alpha,m,l}; it always takes the series engine (and so the truncation
rule) but not the coefficient computation.

All Gamma ratios are handled in log space; Gamma values themselves are never
formed (they overflow past arguments of about 170).
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "CacheStats",
    "KilbasSaigoParams",
    "SeriesEvalReport",
    "SeriesGridReport",
    "log_gamma",
    "log_gamma_ratio",
    "gamma_ratio",
    "kilbas_saigo",
    "kilbas_saigo_coefficients",
    "kilbas_saigo_grid",
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

    def _log_coeffs(self, n: int) -> list[float]:
        """At least n log-coefficients from the shared cache; a bound method
        is cheaper to hand the series engine than a partial built per call."""
        return _CACHE.logs(self, n)


class SeriesEvalReport(NamedTuple):
    """Outcome of a truncated series evaluation, or of the contour rule.

    On path "series", terms_used counts the summed terms and
    last_term_magnitude is |t_N| of the last one. On path "contour" (see
    kilbas_saigo), terms_used is the rule's node count and
    last_term_magnitude the contribution of its outermost node; such a
    report is always converged. A named tuple, because every scalar call
    builds one and a tuple is the cheapest immutable record to build.
    """

    value: complex
    terms_used: int
    last_term_magnitude: float
    converged: bool
    path: str = "series"


@dataclass(frozen=True, eq=False)
class SeriesGridReport:
    """A SeriesEvalReport per grid point, one array per field. Without a
    path array every point took the series (a read-only view, no per-point
    memory)."""

    value: np.ndarray
    terms_used: np.ndarray
    last_term_magnitude: np.ndarray
    converged: np.ndarray
    path: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.path is None:
            series = np.broadcast_to(np.str_("series"), self.value.shape)
            object.__setattr__(self, "path", series)


@dataclass(frozen=True)
class CacheStats:
    """Requests to the coefficient cache whose triple was kept (hits) or not
    (misses), and the log-coefficients ln c_k, k >= 1, it has computed."""

    hits: int
    misses: int
    filled: int


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
        # The list of the most recently used triple, which needs no move.
        self._recent: "list[float] | None" = None
        self._hits = self._misses = self._filled = 0

    def stats(self) -> CacheStats:
        """Hit, miss and fill counts since the cache was created."""
        with self._lock:
            return CacheStats(self._hits, self._misses, self._filled)

    def logs(self, params: KilbasSaigoParams, n: int) -> list[float]:
        """At least n log-coefficients ln c_0, ln c_1, ... of the triple."""
        alpha, m, l = key = (params.alpha, params.m, params.l)
        with self._lock:
            log = self._data.get(key)
            if log is None:
                self._misses += 1
                log = self._data[key] = [0.0]
                if len(self._data) > _CACHE_SIZE:
                    self._data.popitem(last=False)
                self._recent = log
            else:
                self._hits += 1
                if log is not self._recent:
                    self._data.move_to_end(key)
                    self._recent = log
            if len(log) < n:
                self._filled += n - len(log)
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


def _check_series_args(tol: float) -> None:
    """The stopping rule needs 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _sum_log_series(
    log_coeffs: Callable[[int], list[float]],
    z: complex,
    tol: float = DEFAULT_TOL,
    weight: "Callable[[int], float] | None" = None,
) -> SeriesEvalReport:
    """The series engine: sum_k w_k exp(L[k] + k log z), k = 0, 1, ...

    `log_coeffs(n)` returns a list of at least n log-coefficients L; it is
    asked again whenever the sum needs more. The optional real weights w_k
    (default 1) may be zero or negative. Real z is summed in real arithmetic
    with an explicit sign (-1)^k for z < 0, so a real series has an exactly
    zero imaginary part.

    Stopping rule, the only one in the package: stop at the first index
    N >= 2 where |t_k| <= tol*max(1, |S_k|) held for three consecutive k and
    |t_N| < |t_{N-1}|. A term, or a term's or sum's magnitude, that overflows
    ends the sum unconverged with the partial sum as its value; so does
    reaching _MAX_TERMS terms.

    Per-term cost: |S_k| is formed only when |t_k| > tol, which decides the
    same since tol*max(1, |S|) >= tol; a sum's magnitude can pass the double
    range only on such a term, so its overflow exit fires on the same term.
    The stopping test runs only after a small term (three imply N >= 2).
    """
    _check_series_args(tol)
    logs = log_coeffs(_FETCH_AHEAD)
    if z == 0:
        first = math.exp(logs[0]) * (1.0 if weight is None else weight(0))
        return SeriesEvalReport(complex(first), 1, 0.0, True)
    z = complex(z)
    if z.imag == 0.0:
        exp, log_z, flip, total = math.exp, math.log(abs(z.real)), z.real < 0.0, 0.0
    else:
        exp, log_z, flip, total = cmath.exp, cmath.log(z), False, 0.0j
    # Unweighted, a finite z gives finite terms or an OverflowError, so only
    # a weighted or non-finite-z sum needs the per-term finiteness test.
    isfinite = math.isfinite if weight is not None or not cmath.isfinite(z) else None
    n = len(logs)
    streak = 0
    prev_mag = mag = math.inf
    for k in range(_MAX_TERMS):
        if k >= n:
            logs = log_coeffs(2 * k)
            n = len(logs)
        try:
            t = exp(logs[k] + k * log_z)
        except OverflowError:
            # Term outgrew the double range; report the best partial sum.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if flip and k & 1:
            t = -t
        if weight is not None:
            t *= weight(k)
        total += t
        try:
            mag = abs(t)
            small = mag <= tol or mag <= tol * abs(total)
        except OverflowError:
            # A complex magnitude past the double range: unconverged as well.
            return SeriesEvalReport(complex(total), k + 1, math.inf, False)
        if isfinite is not None and not isfinite(mag):
            return SeriesEvalReport(complex(total), k + 1, mag, False)
        if small:
            streak += 1
            if streak >= 3 and (mag < prev_mag or mag == prev_mag == 0.0):
                return SeriesEvalReport(complex(total), k + 1, mag, True)
        else:
            streak = 0
        prev_mag = mag
    return SeriesEvalReport(complex(total), _MAX_TERMS, mag, False)


# The grid driver sums up to _CHUNK_POINTS points at a time in blocks of
# terms. A chunk's first block is as long as the longest sum of the chunk
# before, at least 4 (16 for the first chunk), later blocks are 4, 8, 16,
# ... terms, and none is longer than _BLOCK_TERMS, so a temporary holds at
# most 512 x 33 elements (32 terms and the carried sum).
_BLOCK_TERMS = 32
_CHUNK_POINTS = 512

# Largest term exponent Re(L + k log z) the grid driver sums itself. Up to
# here np.exp and the scalar exps round alike (they rescale differently past
# about 708), and _MAX_TERMS such terms cannot overflow a sum.
_GRID_EXP_MAX = 700.0


class _PowerGrid(NamedTuple):
    """The points z_j = lam * y_j**a, y_j >= 0, a > 0, on the ray arg lam: the
    grid driver forms their terms as exp(L[k] + k ln|z_j|) with
    ln|z_j| = ln|lam| + a ln y_j, times one phase e^(ik arg lam) per k."""

    lam: complex
    a: float
    ys: np.ndarray


def _sum_log_series_grid(
    log_coeffs: Callable[[int], list[float]],
    zs: "np.ndarray | _PowerGrid",
    tol: float = DEFAULT_TOL,
) -> SeriesGridReport:
    """_sum_log_series(log_coeffs, z, tol) at every z of zs.

    Terms are formed for a block of k and a chunk of points at once and
    summed in order, each point carrying its sum, whether its last two terms
    were small and its last magnitude from block to block until the stopping
    rule fires. A point that would need a term above exp(_GRID_EXP_MAX), or
    whose exponent is not finite, is summed by _sum_log_series itself, so
    overflow keeps the scalar semantics.

    Only the forming of terms depends on zs. An array of z gets the scalar
    engine's bits from operations that round like it: complex np.exp, np.hypot,
    IEEE sums and products, and log z per point by math/cmath. A _PowerGrid
    agrees with it to rounding.
    """
    _check_series_args(tol)
    ray = isinstance(zs, _PowerGrid)
    points = zs.ys if ray else np.asarray(zs, dtype=complex)
    report = SeriesGridReport(
        np.empty(points.size, dtype=complex),
        np.empty(points.size, dtype=np.int64),
        np.empty(points.size),
        np.empty(points.size, dtype=bool),
    )
    first = 16
    for c in range(0, points.size, _CHUNK_POINTS):
        chunk = points[c : c + _CHUNK_POINTS]
        _sum_chunk(log_coeffs, zs._replace(ys=chunk) if ray else chunk, c, tol, first, report)
        first = int(report.terms_used[c : c + _CHUNK_POINTS].max())
    return report


def _sum_chunk(
    log_coeffs: Callable[[int], list[float]],
    zs: "np.ndarray | _PowerGrid",
    offset: int,
    tol: float,
    first: int,
    out: SeriesGridReport,
) -> None:
    """Sum the series at zs into out[offset:], block by block, the first
    block `first` terms long (clamped to 4.._BLOCK_TERMS)."""
    ray = isinstance(zs, _PowerGrid)
    nonzero = (zs.ys != 0.0) & (zs.lam != 0) if ray else zs != 0
    zero = offset + np.flatnonzero(~nonzero)
    if zero.size:
        out.value[zero] = math.exp(log_coeffs(1)[0])
        out.terms_used[zero], out.last_term_magnitude[zero], out.converged[zero] = 1, 0.0, True
    points = np.flatnonzero(nonzero)
    # Per point: ln|z|, and for an array of z also arg z and whether z < 0
    # (at lam = 0 there is no point, and ln 1 stands in for ln|lam|).
    if ray:
        cols = (np.log(zs.ys[points]) * zs.a + math.log(abs(zs.lam) or 1.0),)
    else:
        z = zs[points]
        real = z.imag == 0.0
        log_z = np.empty(points.size, dtype=complex)
        log_z[real] = list(map(math.log, np.abs(z.real[real]).tolist()))
        log_z[~real] = list(map(cmath.log, z[~real].tolist()))
        cols = (log_z.real, log_z.imag, real & (z.real < 0.0))
    total = np.zeros(points.size, dtype=complex)
    was_small = np.zeros((2, points.size), dtype=bool)
    prev = np.full(points.size, math.inf)
    scalar = []
    k0, width, later = 0, max(first, 4), 4
    while points.size:
        nb = min(width, _BLOCK_TERMS, _MAX_TERMS - k0)
        ks = np.arange(k0, k0 + nb, dtype=float)[:, None]
        logs = np.array(log_coeffs(k0 + nb)[k0 : k0 + nb])[:, None]
        # Column j is point j: its carried state in row 0 and term k in row
        # k + 1, so operations run along the chunk and cumsum in scalar order.
        sums = np.empty((nb + 1, points.size), dtype=complex)
        mags = np.empty((nb + 1, points.size))
        small = np.empty((nb + 2, points.size), dtype=bool)
        sums[0], mags[0], small[:2] = total, prev, was_small
        t, prevs = sums[1:], mags[:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            # In place, so a block allocates little besides its three arrays.
            expo = np.multiply(ks, cols[0], out=mags[1:] if ray else t.real)
            expo += logs
            # Row of each point's first term past exp(_GRID_EXP_MAX) or with
            # a nan exponent. max propagates nan, so only a block with no
            # such term skips the mask.
            big = nb if expo.max() <= _GRID_EXP_MAX else _first_true(~(expo <= _GRID_EXP_MAX), nb)
            if ray:
                # |t_k| is the real exp; for real lam the phase is (+-1)^k.
                mag = np.exp(expo, out=expo)
                if zs.lam.imag == 0.0:
                    np.multiply(mag, 1.0 - 2.0 * (ks % 2) if zs.lam.real < 0.0 else 1.0, out=t.real)
                    t.imag = 0.0
                else:
                    np.multiply(mag, np.cos(ks * cmath.phase(zs.lam)), out=t.real)
                    np.multiply(mag, np.sin(ks * cmath.phase(zs.lam)), out=t.imag)
            else:
                np.multiply(ks, cols[1], out=t.imag)
                np.exp(t, out=t)
                if cols[2].any():
                    np.negative(t, out=t, where=cols[2] & (ks % 2 == 1))
                mag = np.hypot(t.real, t.imag, out=mags[1:])
            np.cumsum(sums, axis=0, out=sums)
            sums = t
            # |S_k| everywhere: where |t_k| <= tol it cannot change the test.
            now = np.less_equal(mag, tol, out=small[2:])
            size = np.abs(sums) if ray else np.hypot(sums.real, sums.imag)
            np.fmax(size, 1.0, out=size)
            now |= mag <= np.multiply(size, tol, out=size)
            decreasing = (mag < prevs) | ((mag == 0.0) & (prevs == 0.0))
        # Three small terms in a row, the last smaller than the one before.
        stop = _first_true(now & small[1:-1] & small[:-2] & decreasing, nb)
        done = stop < big
        settle = done | ((big == nb) & (k0 + nb == _MAX_TERMS))
        at = np.where(done, stop, nb - 1)[settle]
        columns = np.flatnonzero(settle)
        settled = offset + points[settle]
        out.value[settled] = sums[at, columns]
        out.terms_used[settled] = k0 + at + 1
        out.last_term_magnitude[settled] = mag[at, columns]
        out.converged[settled] = done[settle]
        scalar += points[(big < nb) & ~done].tolist()
        keep = ~settle & (big == nb)
        points, cols = points[keep], tuple(c[keep] for c in cols)
        total, was_small, prev = sums[-1, keep], small[-2:, keep], mag[-1, keep]
        k0, width, later = k0 + nb, later, 2 * later
    for p in scalar:
        z = zs.lam * float(zs.ys[p]) ** zs.a if ray else complex(zs[p])
        report = _sum_log_series(log_coeffs, z, tol)
        for array, field in zip(vars(out).values(), report[:4]):
            array[offset + p] = field


def _first_true(mask: np.ndarray, none: int) -> np.ndarray:
    """Row of the first True in each column of mask, `none` where there is none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), none)


# Trapezoid rule on the parabola s(u) = mu (1 + iu)^2 (Weideman & Trefethen,
# Math. Comp. 76 (2007) 1341): nodes u_k = k h, |k| <= N, h = 3/N, mu = pi N/12.
# Rounding grows like e^mu, so N is chosen, not maximised: against mpmath,
# relative to max(1, |E|) and for beta from 0.5 to 1, N = 16 gave at most
# 1.1e-14, N = 12 4.8e-11 and N = 24 1.2e-13 (N = 16: 3.4e-13 at beta = 0.05).
_CONTOUR_N = 16
_CONTOUR_NODES = 2 * _CONTOUR_N + 1
_CONTOUR_H = 3.0 / _CONTOUR_N
_CONTOUR_MU = math.pi * _CONTOUR_N / 12.0
_EPS = sys.float_info.epsilon


def _contour_rule(params: KilbasSaigoParams) -> bool:
    """Whether kilbas_saigo may take the contour rule for this triple: m = 1,
    0 < alpha < 1 and beta = alpha*l + 1 <= 1. At larger beta the rule's
    discretisation error outgrows its error estimate (1.3e-13 at beta = 1.5,
    2e-8 at beta = 5)."""
    return params.m == 1.0 and params.alpha < 1.0 and params.l <= 0.0


def _in_sector(alpha: float, z: complex) -> bool:
    """z != 0 and |arg z| >= alpha*pi: there s^alpha = z has no root on the
    principal sheet, so the contour integral needs no residue."""
    return z != 0 and abs(cmath.phase(z)) >= alpha * math.pi


def _contour_pole(alpha: float, beta: float, z: complex) -> "tuple[complex, float, float] | None":
    """What the one root s* = exp(Log z/alpha) of s^alpha = z on the
    principal sheet adds to the rule at a z off the sector: (residue added to
    the value, its rounding bound, the pole's discretisation error), or None
    where the rule cannot take z (z zero or not finite, e^(s*) past the
    double range, or s* on the contour).

    In the rule's variable u the pole lies at Im u = d = 1 - Re sqrt(s*/mu).
    For d < 0 it lies right of the contour, so deforming the Bromwich line
    onto the contour passes it and its residue
    r = Gamma(beta) s*^(1-beta) e^(s*)/alpha is added; for d >= 0 nothing is
    added. Either way the trapezoid rule misses the integral by about
    |r| q/(1 - q), q = exp(-2 pi |d|/h); twice that is reported. The rounding
    of r: Log z/alpha carries eps (1 + |log s*|) relative error into s*, and
    e^(s*) turns eps |s*| (2 + |log s*|) of absolute error in its exponent
    into relative error of r.
    """
    if z == 0 or not cmath.isfinite(z):
        return None
    log_s = cmath.log(z) / alpha
    try:
        s = cmath.exp(log_s)
        residue = cmath.exp(math.lgamma(beta) + (1.0 - beta) * log_s + s) / alpha
        size = abs(residue)
        rounding = size * _EPS * (1.0 + abs(s)) * (2.0 + abs(log_s))
    except OverflowError:
        return None
    d = 1.0 - cmath.sqrt(s / _CONTOUR_MU).real
    q = math.exp(-2.0 * math.pi / _CONTOUR_H * abs(d))
    if not q < 1.0:
        return None
    error = 2.0 * size * q / (1.0 - q)
    return (residue, rounding, error) if d < 0.0 else (0j, 0.0, error)


@lru_cache(maxsize=_CACHE_SIZE)
def _contour_nodes(alpha: float, l: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """(full, half): the arrays (s_k^alpha, weight, rounding factor) of
    every node, and of the nodes u >= 0 with their mirror images folded in,
    for real z; indexing the pair by `real` picks the rule.

    E_{alpha,1,l}(z) = Gamma(beta) E_{alpha,beta}(z), beta = alpha*l + 1, is
    Gamma(beta)/(2 pi i) times the integral of e^s s^(alpha-beta)/(s^alpha - z)
    along the contour (plus the residue of _contour_pole off the sector), so
    the rule is sum_k w_k/(s_k^alpha - z) with
    w_k = Gamma(beta) (h mu/pi) (1 + iu_k) e^(s_k) s_k^(alpha-beta). Node k's
    term inherits the absolute rounding of s_k through e^(s_k): the rounding
    factor is eps (1 + |s_k|). The arrays are shared and read-only.
    """
    n, beta = _CONTOUR_N, alpha * l + 1.0
    h, mu = _CONTOUR_H, _CONTOUR_MU
    w = 1.0 + 1j * h * np.arange(-n, n + 1)
    s = mu * w * w
    log_s = np.log(s)
    power = np.exp(alpha * log_s)
    weight = np.exp(
        math.lgamma(beta) + math.log(h * mu / math.pi) + np.log(w) + s + (alpha - beta) * log_s
    )
    rounding = _EPS * (1.0 + np.abs(s))
    folded = weight[n:].copy()
    folded[1:] *= 2.0
    full = (power, weight, rounding)
    half = (power[n:].copy(), folded, rounding[n:].copy())
    for array in (*full, *half):
        array.flags.writeable = False
    return full, half


@lru_cache(maxsize=_CACHE_SIZE)
def _contour_node_tuples(alpha: float, l: float) -> tuple[tuple[tuple, ...], ...]:
    """_contour_nodes(alpha, l) as Python numbers: (full, half), each a
    tuple of (s_k^alpha, weight, rounding factor) per node, for one point."""
    return tuple(tuple(zip(*(a.tolist() for a in rule))) for rule in _contour_nodes(alpha, l))


def _contour_estimate(params: KilbasSaigoParams, z: complex) -> "tuple[complex, float, float] | None":
    """The contour rule at one point z, in Python complex arithmetic:
    (value, outermost node's contribution, error estimate), or None where
    the rule cannot take z.

    A real z sums the folded nodes u >= 0 and keeps the real part, so its
    value is exactly real. The value and the rounding bound
    sum_k eps (1 + |s_k|) |t_k| are running sums in node order; off the
    sector the pole's residue and rounding bound are added after them. The
    estimate is that bound plus the outermost node's contribution, plus
    the pole's discretisation error off the sector.
    """
    alpha, pole = params.alpha, None
    if not _in_sector(alpha, z):
        pole = _contour_pole(alpha, alpha * params.l + 1.0, z)
        if pole is None:
            return None
    real = z.imag == 0.0
    nodes = _contour_node_tuples(alpha, params.l)[real]
    # -0.0 is the identity of IEEE addition, so each sum starts at its
    # first term exactly, as np.cumsum does in _contour_sum.
    value, bound = complex(-0.0, -0.0), -0.0
    try:
        for power, weight, rounding in nodes:
            t = weight / (power - z)
            mag = abs(t)
            value += t
            bound += mag * rounding
        if real:
            value, last = complex(value.real), 0.5 * mag
        else:
            power, weight, _ = nodes[0]
            last = max(abs(weight / (power - z)), mag)
    except (ZeroDivisionError, OverflowError):
        # Off the sector z can sit on a node, or a term can outgrow the
        # double range; the grid's sums are then not finite.
        return None
    if pole is None:
        return value, last, bound + last
    residue, rounding, error = pole
    return value + residue, last, bound + rounding + last + error


def _contour_point(params: KilbasSaigoParams, z: complex, tol: float) -> "SeriesEvalReport | None":
    """The report of the contour rule at z, or None where the rule cannot
    take z or its estimate exceeds tol * max(1, |value|)."""
    rule = _contour_estimate(params, z)
    if rule is None:
        return None
    value, last, estimate = rule
    try:
        size = abs(value)
    except OverflowError:
        size = math.inf  # np.hypot's value in _contour_sum
    if estimate <= tol * (size if size > 1.0 else 1.0):
        return SeriesEvalReport(value, _CONTOUR_NODES, last, True, "contour")
    return None


def _py_quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise, rounded as CPython divides two complex numbers
    (Smith's algorithm in _Py_c_quot), where numpy's division rounds
    otherwise. b has no zero element."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    q = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        np.divide(np.where(by_real, ar + ai * ratio, ar * ratio + ai), denom, out=q.real)
        np.divide(np.where(by_real, ai - ar * ratio, ai * ratio - ar), denom, out=q.imag)
    return q


def _contour_sum(
    params: KilbasSaigoParams, z: np.ndarray, tol: float, real: bool, pole: "tuple | None"
) -> tuple:
    """(value, last_term_magnitude, converged) of _contour_point at each of a
    column z of points, all real or all complex, bit for bit. pole is None in
    the sector, and off it the arrays (residue, rounding bound, error) of
    _contour_pole at each point.

    Every operation rounds as the Python one does: CPython's complex
    quotient (_py_quotient), np.hypot for abs (both are libm hypot), running
    sums in node order (np.cumsum; .sum would add pairwise) and the pole's
    terms added after them in the same order. Where the scalar rule gives up
    on a zero divisor or an overflow, the sums here are not finite, so the
    estimate fails.
    """
    power, weight, rounding = _contour_nodes(params.alpha, params.l)[real]
    with np.errstate(over="ignore", invalid="ignore"):
        t = _py_quotient(weight, power - z)
        mags = np.hypot(t.real, t.imag)
        value = np.cumsum(t, axis=1)[:, -1]
        if real:
            value, last = value.real, 0.5 * mags[:, -1]
        else:
            last = np.fmax(mags[:, 0], mags[:, -1])
        bound = np.cumsum(mags * rounding, axis=1)[:, -1]
        if pole is None:
            bound += last
        else:
            residue, pole_rounding, error = pole
            value = value + (residue.real if real else residue)
            bound = bound + pole_rounding + last + error
        size = np.abs(value) if real else np.hypot(value.real, value.imag)
        return value, last, bound <= tol * np.fmax(size, 1.0)


def kilbas_saigo(
    params: KilbasSaigoParams, z: complex, tol: float = DEFAULT_TOL
) -> SeriesEvalReport:
    """Kilbas-Saigo function E_{alpha,m,l}(z) = sum_i c_i z^i.

    Entire in z; the coefficients are real and positive, complex z enters
    only through the powers. Returns the partial sum with truncation
    metadata; a non-converged report (term cap reached or a term
    overflowed) still carries the best value.

    At m = 1, 0 < alpha < 1, l <= 0 and finite z != 0, where the series
    needs about |z|^(1/alpha) terms that cancel, the value is the 33-node
    contour rule of _contour_nodes instead, reported with path="contour":
    in the sector |arg z| >= alpha*pi as it stands, off it with the residue
    of the one pole s* (_contour_pole) added where s* lies right of the
    contour. Where the rule's error estimate cannot meet tol, the series is
    summed as elsewhere.
    """
    if _contour_rule(params):
        _check_series_args(tol)
        report = _contour_point(params, complex(z), tol)
        if report is not None:
            return report
    return _sum_log_series(params._log_coeffs, z, tol)


def kilbas_saigo_grid(
    params: KilbasSaigoParams, zs: "np.ndarray | _PowerGrid", tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """kilbas_saigo(params, z, tol) at every z of zs, bit for bit, path
    included: the contour rule on a (points x nodes) array, its pole terms
    taken point by point from _contour_pole, then the series by the blocked
    grid driver for the points left. The rule takes a _PowerGrid's points
    lam * np.power(y, a), the driver its ray (kilbas_saigo's to rounding)."""
    if not _contour_rule(params):
        return _sum_log_series_grid(params._log_coeffs, zs, tol)
    _check_series_args(tol)
    ray = isinstance(zs, _PowerGrid)
    points = zs.lam * np.power(zs.ys, zs.a) if ray else np.asarray(zs, dtype=complex)
    report = SeriesGridReport(
        np.empty(points.size, dtype=complex),
        np.full(points.size, _CONTOUR_NODES),
        np.empty(points.size),
        np.ones(points.size, dtype=bool),
        np.full(points.size, "series", dtype="<U7"),
    )
    alpha, beta = params.alpha, params.alpha * params.l + 1.0
    sector = np.array([_in_sector(alpha, z) for z in points.tolist()], dtype=bool)
    off = np.flatnonzero(~sector)
    poles = [_contour_pole(alpha, beta, z) for z in points[off].tolist()]
    taken = np.array([pole is not None for pole in poles], dtype=bool)
    pole_arrays = [np.array(column) for column in zip(*filter(None, poles))]
    for at, pole in ((np.flatnonzero(sector), None), (off[taken], pole_arrays)):
        for real in (False, True):
            row = (points.imag[at] == 0.0) == real
            if row.any():
                terms = None if pole is None else tuple(a[row] for a in pole)
                value, last, converged = _contour_sum(params, points[at[row], None], tol, real, terms)
                done = at[row][converged]
                report.value[done] = value[converged]
                report.last_term_magnitude[done] = last[converged]
                report.path[done] = "contour"
    rest = np.flatnonzero(report.path == "series")
    left = zs._replace(ys=zs.ys[rest]) if ray else points[rest]
    series = _sum_log_series_grid(params._log_coeffs, left, tol)
    report.value[rest], report.terms_used[rest] = series.value, series.terms_used
    report.last_term_magnitude[rest] = series.last_term_magnitude
    report.converged[rest] = series.converged
    return report


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

    return _sum_log_series(fetch, z, tol).value
