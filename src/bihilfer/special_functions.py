"""Special-function kernel, scalar half.

Provides overflow-safe Gamma ratios and the Kilbas-Saigo function
E_{alpha,m,l}, one point at a time. The series engine (_sum_log_series)
owns the package's one stopping rule, written out in two loops, one for
real z and one for complex z. Every sum starts at c_0 = 1 (a tail from
index K is the triple (alpha, m, l + m*K)). Where the series cancels, at
m = 1, 0 < alpha < 1 and l <= 0, kilbas_saigo takes a 33-node trapezoid
rule on a Laplace-inversion contour instead (_contour_estimate), corrected
where |arg z| < alpha*pi by the exact trapezoid error of the one pole,
residue included, whenever the rule's error estimate meets tol.

This module imports only the standard library's math, cmath, operator, sys,
threading, functools and typing: not numpy, so a scalar caller never pays
for it, and not dataclasses (see KilbasSaigoParams). Every table row of the
CLI is one kilbas_saigo call, as is every tail point of a solver branch
whose triple has a contour record (see _triple). series_grid's driver sums
the other branches' tails along a ray z = lam * y**a: the same series and
stopping rule over a numpy array, agreeing to rounding.

All Gamma ratios are handled in log space; Gamma values themselves are never
formed (they overflow past arguments of about 170).
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import threading
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .errors import DomainError

__all__ = [
    "KilbasSaigoParams",
    "SeriesEvalReport",
    "log_gamma_ratio",
    "gamma_ratio",
    "kilbas_saigo",
    "kilbas_saigo_coefficients",
]

DEFAULT_TOL = 1e-12


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
        try:
            return math.lgamma(q) - math.lgamma(p)
        except OverflowError:
            return -math.inf  # lnGamma(p) past the double range; here q < 20 < p
    if p == math.inf:
        return -math.inf  # Gamma(q)/Gamma(q + nu) -> 0 as q + nu overflows, nu > 0
    return -(
        (q - 0.5) * math.log1p(nu / q)
        + nu * (math.log(p) - 1.0)
        + _stirling_tail(p)
        - _stirling_tail(q)
    )


def log_gamma_ratio(p: float, q: float) -> float:
    """lnGamma(p) - lnGamma(q) for finite p, q > 0, stable for close arguments."""
    if not 0.0 < p < math.inf:
        raise DomainError(f"gamma_ratio requires finite p > 0, got p={p}")
    if not 0.0 < q < math.inf:
        raise DomainError(f"gamma_ratio requires finite q > 0, got q={q}")
    if min(p, q) >= _STIRLING_MIN and 0.5 * q <= p <= 2.0 * q:
        return -_log_gamma_ratio_offset(q, p - q)  # p - q is exact here
    try:
        return -(math.lgamma(q) - math.lgamma(p))
    except OverflowError:
        return math.inf if p > q else -math.inf  # the larger lnGamma overflowed


def gamma_ratio(p: float, q: float) -> float:
    """Gamma(p) / Gamma(q) for finite p, q > 0, via the log-space ratio.

    Finite whenever the ratio itself is representable, even where Gamma(p)
    alone would overflow, and inf past the double range.
    """
    try:
        return math.exp(log_gamma_ratio(p, q))
    except OverflowError:
        return math.inf


class _KilbasSaigoFields(NamedTuple):
    alpha: float
    m: float
    l: float


class KilbasSaigoParams(_KilbasSaigoFields):
    """Parameter triple (alpha, m, l) of the Kilbas-Saigo function E_{alpha,m,l}.

    Admissibility: alpha, m and l finite, alpha > 0, m > 0 and
    alpha*l > -1. The last inequality keeps every Gamma argument
    alpha*(j*m + l) + 1 strictly positive for j >= 0, so the coefficient
    products never touch a pole.

    A named tuple whose constructor checks admissibility; _make, and so
    _replace, copy and pickle, construct through the same check. A triple
    equals, and hashes as, the plain tuple (alpha, m, l). A tuple rather than
    a dataclass, because importing dataclasses (and the inspect it imports)
    would about double this module's import time.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, m: float, l: float) -> KilbasSaigoParams:
        if not all(map(math.isfinite, (alpha, m, l))):
            raise DomainError(
                f"alpha, m and l must be finite (alpha={alpha}, m={m}, l={l})"
            )
        if not alpha > 0.0:
            raise DomainError(f"alpha > 0 violated (alpha={alpha})")
        if not m > 0.0:
            raise DomainError(f"m > 0 violated (m={m})")
        if not alpha * l > -1.0:
            raise DomainError(f"alpha*l > -1 violated (alpha={alpha}, l={l})")
        return super().__new__(cls, alpha, m, l)

    @classmethod
    def _make(cls, iterable) -> KilbasSaigoParams:
        # The inherited _make skips __new__, and _replace builds with _make.
        return cls(*iterable)


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


# Every report is built from the tuple of its five fields by tuple.__new__,
# which skips the named tuple's Python-level constructor.
_report = partial(tuple.__new__, SeriesEvalReport)


class _Triple(NamedTuple):
    """The cached record of one triple; see _triple."""

    logs: list[float]
    grow: Callable[[int], list[float]]
    contour: "tuple | None"


# Triples kept by the per-triple cache; a parameter sweep cycles through it.
_CACHE_SIZE = 128
_FILL_LOCK = threading.Lock()


@lru_cache(maxsize=_CACHE_SIZE)
def _triple(alpha: float, m: float, l: float) -> _Triple:
    """The cached record of one triple (alpha, m, l): (logs, grow, contour).

    logs is ln c_0, ln c_1, ... as far as filled, and grow(n) fills it to
    at least n entries and returns it, also once the record is dropped.
    contour is _contour_node_tuples(alpha, l) where kilbas_saigo may take
    the contour rule, at m = 1, 0 < alpha < 1 and beta = alpha*l + 1 <= 1,
    else None: at larger beta the rule's discretisation error outgrows its
    estimate (1.3e-13 at beta = 1.5, 2e-8 at beta = 5). The least recently
    used of `_CACHE_SIZE` records is dropped (see `_triple.cache_info()`).
    """
    logs = [0.0]
    contour = _contour_node_tuples(alpha, l) if m == 1.0 and alpha < 1.0 and l <= 0.0 else None
    return _Triple(logs, partial(_fill, alpha, m, l, logs), contour)


def _fill(alpha: float, m: float, l: float, log: list[float], n: int) -> list[float]:
    """`log` filled to at least n entries, append-only under a lock: the
    values are deterministic, so racing callers see what each would alone."""
    if len(log) < n:
        with _FILL_LOCK:
            while len(log) < n:
                j = len(log) - 1
                diff = _log_gamma_ratio_offset(alpha * (j * m + l) + 1.0, alpha)
                log.append(log[-1] + diff)
    return log


def kilbas_saigo_coefficients(params: KilbasSaigoParams, count: int) -> list[float]:
    """First `count` series coefficients c_0..c_{count-1} of E_{alpha,m,l}.

    c_0 = 1 and c_i = c_{i-1} * Gamma(alpha*(jm+l)+1)/Gamma(alpha*(jm+l+1)+1)
    at j = i-1, each ratio taken in log space and accumulated as ln c_i.
    """
    count = _check_index("count", count, 1)
    return [math.exp(v) for v in _triple(*params).grow(count)[:count]]


def _check_index(name: str, value: int, minimum: int = 0) -> int:
    """An integer argument (a series index, a count, a grid size) as an int
    of at least `minimum`; a float, even 2.0, is refused."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {name}={value!r}") from None
    if index < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {name}={index}")
    return index


# Terms summed before the engine gives up with converged=False.
_MAX_TERMS = 10_000


def _check_series_args(tol: float) -> None:
    """The stopping rule needs 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _power(y: "float | complex", p: float) -> "float | complex":
    """Python's y**p, inf where it overflows: the engine then reports the
    point unconverged."""
    try:
        return y**p
    except OverflowError:
        return math.inf


def _sum_log_series(
    log_coeffs: Callable[[int], list[float]], z: complex, tol: float = DEFAULT_TOL
) -> SeriesEvalReport:
    """The series engine: sum_k exp(L[k] + k log z), k = 0, 1, ...

    `log_coeffs(n)` returns a list of at least n log-coefficients L; it is
    asked for one, then for twice the terms summed (at most _MAX_TERMS)
    whenever the sum needs more, so a list built per call holds at most twice
    the terms summed and never more than _MAX_TERMS.
    Positive term weights w_k come folded in as L[k] + ln w_k. Real z is
    summed in real arithmetic with an explicit sign (-1)^k for z < 0, so its
    imaginary part is exactly zero.

    Stopping rule, the only one in the package: stop at the first index
    N >= 2 where |t_k| <= tol*max(1, |S_k|) held for three consecutive k and
    |t_N| < |t_{N-1}|. A term, or a term's or sum's magnitude, that overflows
    ends the sum unconverged with the partial sum as its value; so does
    reaching _MAX_TERMS terms. Finite terms can still sum past the double
    range, and an infinite sum passes the test tol*|S_k| on every term, so
    a sum that is not finite at the stopping index ends there unconverged,
    with |t_N| reported as inf (tested there only, not per term). At a
    non-finite z the first term is nan, and the sum ends there, unconverged.

    Per-term cost: the rule is written out in two loops, one per number
    field and line for line alike: _sum_real_series for a finite real z,
    where |t_k| is the exp it computes and needs no abs, and
    _sum_complex_series for a finite z off the axis, which needs no sign
    test. A finite z gives finite terms or an OverflowError, so neither
    loop tests a term for finiteness. |S_k| is formed only when |t_k| > tol,
    which decides the same since tol*max(1, |S|) >= tol; a sum's magnitude
    can pass the double range only on such a term, so its overflow exit
    fires on the same term. The stopping test runs only after a small term
    (three imply N >= 2).
    """
    _check_series_args(tol)
    return _sum_series_from(log_coeffs, log_coeffs(1), z, tol)


def _sum_series_from(
    log_coeffs: Callable[[int], list[float]], logs: list[float], z: complex, tol: float
) -> SeriesEvalReport:
    """_sum_log_series past its tol check, with logs = log_coeffs(1) in hand."""
    if z == 0:
        return _report((complex(math.exp(logs[0])), 1, 0.0, True, "series"))
    z = complex(z)
    real = z.imag == 0.0
    log_z = math.log(abs(z.real)) if real else cmath.log(z)
    if not cmath.isfinite(z):
        # Then 0 * log z, and so the first term, is nan: the sum stops there.
        t = (math.exp if real else cmath.exp)(logs[0] + 0 * log_z)
        return _report((complex((0.0 if real else 0j) + t), 1, abs(t), False, "series"))
    if real:
        return _sum_real_series(log_coeffs, logs, log_z, z.real < 0.0, tol)
    return _sum_complex_series(log_coeffs, logs, log_z, tol)


def _sum_real_series(
    log_coeffs: Callable[[int], list[float]], logs: list[float], log_z: float, flip: bool,
    tol: float,
) -> SeriesEvalReport:
    """_sum_log_series at a finite real z != 0: log_z = ln|z|, and each term
    is its own magnitude, added with the sign (-1)^k where flip (z < 0). The
    index is also counted in a float x, so k ln|z| is one float multiply
    (x equals k exactly below 2^53)."""
    n = len(logs)
    total = x = 0.0
    streak = 0
    prev_mag = mag = math.inf
    for k in range(_MAX_TERMS):
        if k >= n:
            logs = log_coeffs(min(2 * k, _MAX_TERMS))
            n = len(logs)
        try:
            mag = math.exp(logs[k] + x * log_z)
        except OverflowError:
            # Term outgrew the double range; report the best partial sum.
            return _report((complex(total), k + 1, math.inf, False, "series"))
        total += -mag if flip and k & 1 else mag
        if mag <= tol or mag <= tol * abs(total):
            streak += 1
            if streak >= 3 and (mag < prev_mag or mag == prev_mag == 0.0):
                if math.isfinite(total):
                    return _report((complex(total), k + 1, mag, True, "series"))
                return _report((complex(total), k + 1, math.inf, False, "series"))
        else:
            streak = 0
        prev_mag = mag
        x += 1.0
    return _report((complex(total), _MAX_TERMS, mag, False, "series"))


def _sum_complex_series(
    log_coeffs: Callable[[int], list[float]], logs: list[float], log_z: complex, tol: float
) -> SeriesEvalReport:
    """_sum_log_series at a finite z off the real axis: log_z = Log z."""
    n = len(logs)
    total = 0j
    streak = 0
    prev_mag = mag = math.inf
    for k in range(_MAX_TERMS):
        if k >= n:
            logs = log_coeffs(min(2 * k, _MAX_TERMS))
            n = len(logs)
        try:
            t = cmath.exp(logs[k] + k * log_z)
            total += t
            mag = abs(t)
            small = mag <= tol or mag <= tol * abs(total)
        except OverflowError:
            # A term or a magnitude past the double range: unconverged as well.
            return _report((complex(total), k + 1, math.inf, False, "series"))
        if small:
            streak += 1
            if streak >= 3 and (mag < prev_mag or mag == prev_mag == 0.0):
                if cmath.isfinite(total):
                    return _report((complex(total), k + 1, mag, True, "series"))
                return _report((complex(total), k + 1, math.inf, False, "series"))
        else:
            streak = 0
        prev_mag = mag
    return _report((complex(total), _MAX_TERMS, mag, False, "series"))


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


def _contour_node_tuples(alpha: float, l: float) -> "tuple[float, tuple, tuple, float, float]":
    """(alpha, full, half, beta, lnGamma(beta)) of the triple (alpha, 1, l):
    alpha; (s_k^alpha, weight, rounding factor) of every node, and of the
    nodes u >= 0 with their mirror images folded in, for real z; then
    beta = alpha*l + 1 and lnGamma(beta), which the pole's residue needs.

    E_{alpha,1,l}(z) = Gamma(beta) E_{alpha,beta}(z) is Gamma(beta)/(2 pi i)
    times the integral of e^s s^(alpha-beta)/(s^alpha - z) along the contour
    (plus the pole's residue off the sector where the pole lies right of
    it; see _contour_estimate), so the rule is
    sum_k w_k/(s_k^alpha - z) with
    w_k = Gamma(beta) (h mu/pi) (1 + iu_k) e^(s_k) s_k^(alpha-beta). Node k's
    term inherits the absolute rounding of s_k through e^(s_k): the rounding
    factor is eps (1 + |s_k|).
    """
    n, beta = _CONTOUR_N, alpha * l + 1.0
    log_gamma = math.lgamma(beta)
    full = tuple(_contour_node(alpha, beta, log_gamma, k) for k in range(-n, n + 1))
    half = [full[n], *((power, 2.0 * weight, rounding) for power, weight, rounding in full[n + 1 :])]
    return alpha, full, tuple(half), beta, log_gamma


def _contour_node(alpha: float, beta: float, log_gamma: float, k: int) -> "tuple[complex, complex, float]":
    """(s_k^alpha, w_k, eps (1 + |s_k|)) of node k, u_k = k h."""
    w = complex(1.0, _CONTOUR_H * k)
    s = _CONTOUR_MU * w * w
    log_s = cmath.log(s)
    scale = log_gamma + math.log(_CONTOUR_H * _CONTOUR_MU / math.pi)
    weight = cmath.exp(scale + cmath.log(w) + s + (alpha - beta) * log_s)
    return cmath.exp(alpha * log_s), weight, _EPS * (1.0 + abs(s))


def _contour_estimate(contour: tuple, z: complex) -> "tuple[complex, float, float] | None":
    """The contour rule on a triple's nodes `contour` at one complex z:
    (value, outermost node's contribution, error estimate), or None where
    the rule cannot take z: z zero or not finite, or off the sector as below.

    In the sector |arg z| >= alpha*pi, s^alpha = z has no root on the
    principal sheet and the nodes are the whole rule. (arg z is math.atan2,
    which cmath.phase equals but for raising OverflowError where the angle
    underflows, at z = 2 + 5e-324j.) Off it, the one root is
    s* = exp(Log z/alpha), and the rule cannot take z where e^(s*) is past
    the double range. Its residue is r = Gamma(beta) s*^(1-beta) e^(s*)/alpha,
    and in the rule's variable u it lies at u* = i (1 - w*),
    w* = sqrt(s*/mu), so Im u* = d = 1 - Re w*. The trapezoid sum T of the
    nodes misses the integral by the pole's Fourier terms, a geometric
    series (Poisson summation; Trefethen & Weideman, SIAM Rev. 56 (2014)
    385), which the correction subtracts exactly: for d > 0 (pole left of
    the contour) the value is T - r rho/(1 - rho), rho = exp(2 pi i u*/h);
    otherwise it is T + r/(1 - rho), rho = exp(-2 pi i u*/h), the residue
    included. Both are one formula, |rho| = exp(-2 pi |d|/h) <= 1, and the
    rule cannot take z where 1 - rho = 0 or s* lies on a node. The
    correction's rounding: Log z/alpha carries eps (1 + |log s*|) relative
    error into s*, and e^(s*) turns eps |s*| (2 + |log s*|) of absolute
    error in its exponent into relative error of r, divided by |1 - rho|;
    rho's exponent carries (2 pi/h) eps (|w*| (2 + |log s*|) + |u*|),
    times |r| |rho|/|1 - rho|^2. The correction is that of the infinite
    rule, whose nodes past |u| = N h the sum lacks; where the pole lies
    past them, |Re u*| > N h, the missing node nearest it can hold about
    |r| h/(2 pi |u* - u_k|), so its term joins the estimate, and the rule
    cannot take z on it.

    A real z sums the folded nodes u >= 0 and keeps the real part, so its
    value is exactly real. The value and the rounding bound
    sum_k eps (1 + |s_k|) |t_k| are running sums in node order; the
    correction and its rounding bound are added after them (exact zeros in
    the sector, which leave the bits as they are). The estimate is that
    bound plus the outermost node's contribution, plus the missing node's
    term where the pole lies past the nodes.
    """
    if z == 0 or not cmath.isfinite(z):
        return None
    alpha, full, half, beta, log_gamma = contour
    pole, rounding, missing = 0j, 0.0, 0.0
    if abs(math.atan2(z.imag, z.real)) < alpha * math.pi:
        log_s = cmath.log(z) / alpha
        try:
            s = cmath.exp(log_s)
            residue = cmath.exp(log_gamma + (1.0 - beta) * log_s + s) / alpha
            size = abs(residue)
        except OverflowError:
            return None
        w = cmath.sqrt(s / _CONTOUR_MU)
        # u* = i (1 - w*) and d = Im u*; rho = exp(+-2 pi i u*/h), |rho| <= 1.
        d, c = 1.0 - w.real, 2.0 * math.pi / _CONTOUR_H
        rho = cmath.exp(c * complex(-abs(d), w.imag if d > 0.0 else -w.imag))
        gap = abs(1.0 - rho)
        try:
            pole = (-residue * rho if d > 0.0 else residue) / (1.0 - rho)
        except ZeroDivisionError:
            return None
        spread = 2.0 + abs(log_s)
        shift = c * (abs(w) * spread + abs(1.0 - w)) * abs(rho) / gap
        rounding = size * _EPS * ((1.0 + abs(s)) * spread + shift) / gap
        # Past the outermost node, the missing node nearest the pole can
        # outweigh it (see above).
        if abs(w.imag) > _CONTOUR_N * _CONTOUR_H:
            k = max(round(abs(w.imag) / _CONTOUR_H), _CONTOUR_N + 1)
            power, weight, _ = _contour_node(alpha, beta, log_gamma, k if w.imag > 0.0 else -k)
            try:
                missing = abs(weight / (power - z))
            except (ZeroDivisionError, OverflowError):
                return None
    real = z.imag == 0.0
    nodes = half if real else full
    # -0.0 is the identity of IEEE addition, so each sum starts at its
    # first term exactly.
    value, bound = complex(-0.0, -0.0), -0.0
    try:
        for power, weight, node_rounding in nodes:
            t = weight / (power - z)
            mag = abs(t)
            value += t
            bound += mag * node_rounding
        if real:
            value, last = complex(value.real), 0.5 * mag
        else:
            power, weight, _ = nodes[0]
            last = max(abs(weight / (power - z)), mag)
    except (ZeroDivisionError, OverflowError):
        # Off the sector z can sit on a node, or a term can outgrow the
        # double range.
        return None
    return value + pole, last, bound + rounding + last + missing


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
    contour rule on the nodes of _triple instead, reported with path="contour":
    in the sector |arg z| >= alpha*pi as it stands, off it with the one
    pole's trapezoid error subtracted and, where the pole lies right of the
    contour, its residue added (_contour_estimate). Where the rule cannot
    take z, its value is not finite (a residue past the double range) or
    its error estimate exceeds tol * max(1, |value|), the series is summed
    as elsewhere.
    """
    _check_series_args(tol)
    logs, grow, contour = _triple(*params)
    if contour is not None:
        rule = _contour_estimate(contour, complex(z))
        if rule is not None:
            value, last, estimate = rule
            try:
                size = abs(value)
            except OverflowError:
                size = math.inf  # the magnitude of a value past the double range
            if estimate <= tol * (size if size > 1.0 else 1.0) and cmath.isfinite(value):
                return _report((value, _CONTOUR_NODES, last, True, "contour"))
    return _sum_series_from(grow, logs, z, tol)
