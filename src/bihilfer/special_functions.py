"""Special-function kernel, scalar half.

Provides overflow-safe Gamma ratios and the Kilbas-Saigo function
E_{alpha,m,l}, one point at a time. The series engine (_sum_series) sums
by the paper's coefficient product, t_k = t_{k-1} (c_k/c_{k-1}) z, from
c_0 = 1 (a tail from index K is the triple (alpha, m, l + m*K)). Its
stopping rule, the package's one, bounds the tail it drops: at a fixed
stride end it stops where |t_N| rho/(1 - rho) <= tol*max(1, |S_N|),
rho = |z| c_{N+1}/c_N < 1, the ratios decreasing. Where the series cancels, at
m = 1, 0 < alpha < 1 and l <= 0, kilbas_saigo takes a 33-node trapezoid
rule on a Laplace-inversion contour instead (_contour_estimate). The rule
returns a value whose error estimate meets tol, or refuses z with None, its
one refusal, and the point is then summed as a series.

This module imports only the standard library's math, cmath, operator, sys,
threading, functools, itertools and typing: not numpy, so a scalar caller
never pays for it, and not dataclasses (see KilbasSaigoParams). Every table
row of the CLI is kilbas_saigo at one point: eval-ks calls it, and a solver
branch's rows, tail points included where its triple has a contour record
(see _triple), come from _kilbas_saigo_ray, one pass over the branch's grid
with its tol checked and its triple looked up once. series_grid's driver
sums the other branches' tails along a ray z = lam * y**a: the same series
and stopping rule over a numpy array, to the bit for the same z.

Every Gamma ratio is formed in log space, a coefficient ratio c_k/c_{k-1}
as exp of one, right to about its last bit, and a coefficient c_k as the
running product of the cached ratios the engine sums; Gamma values
themselves are never formed (they overflow past about 170).
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import threading
from functools import lru_cache, partial
from itertools import accumulate
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
# five-term S leaves out 691/(360360 z^11), below 1e-17 for z >= 20.
_STIRLING_MIN = 20.0


def _stirling_tail(z: float) -> float:
    w = 1.0 / (z * z)
    s = -1.0 / 1680.0 + w / 1188.0
    return (1.0 / 12.0 + w * (-1.0 / 360.0 + w * (1.0 / 1260.0 + w * s))) / z


def _stirling_difference(q: float, nu: float) -> float:
    """lnGamma(q) - lnGamma(p) + nu ln p, p = q + nu, for q, p >= 20, by
    Stirling's series: nu - (q - 1/2) log1p(nu/q) + S(q) - S(p)."""
    return nu - (q - 0.5) * math.log1p(nu / q) + _stirling_tail(q) - _stirling_tail(q + nu)


def _gamma_ratio_offset(q: float, nu: float) -> float:
    """Gamma(q)/Gamma(q + nu) for q > 0 and 0 <= nu < 20, to about an ulp.

    By Stirling's series at q' = q + n >= 20 (n = ceil(20 - q) below 20, else
    0) it is e^x (q' + nu)^-nu, x = sum_{j<n} log1p(nu/(q + j)) (by fsum)
    + _stirling_difference(q', nu): small pieces, where a difference of two
    lnGamma values carries eps |lnGamma| of rounding.
    """
    x = 0.0
    if q < _STIRLING_MIN:
        n = math.ceil(_STIRLING_MIN - q)
        x = math.fsum([math.log1p(nu / (q + j)) for j in range(n)])
        q += n
    p = q + nu
    if p == math.inf:
        return 0.0  # Gamma(q)/Gamma(q + nu) -> 0 as q overflows
    x += _stirling_difference(q, nu)
    return math.exp(x) * p**-nu


def _log_gamma_ratio_offset(q: float, nu: float) -> float:
    """lnGamma(q) - lnGamma(q + nu), with the offset given exactly: the log
    of _gamma_ratio_offset where that applies, else the Stirling difference
    where q, q + nu >= 20, else a difference of two lnGamma values."""
    p = q + nu
    if q < _STIRLING_MIN and 0.0 <= nu < _STIRLING_MIN:
        return math.log(_gamma_ratio_offset(q, nu))
    if q < _STIRLING_MIN or p < _STIRLING_MIN:
        try:
            return math.lgamma(q) - math.lgamma(p)
        except OverflowError:
            return -math.inf  # lnGamma(p) past the double range; here q < 20 < p
    if p == math.inf:
        return -math.inf  # Gamma(q)/Gamma(q + nu) -> 0 as q + nu overflows, nu > 0
    return _stirling_difference(q, nu) - nu * math.log(p)


def log_gamma_ratio(p: float, q: float) -> float:
    """lnGamma(p) - lnGamma(q) for finite p, q > 0, stable for close arguments."""
    if not 0.0 < p < math.inf:
        raise DomainError(f"Gamma ratio requires finite p > 0, got p={p}")
    if not 0.0 < q < math.inf:
        raise DomainError(f"Gamma ratio requires finite q > 0, got q={q}")
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
    would add to this module's import time.
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

    ratios: list[float]
    grow: Callable[[int], list[float]]
    contour: "tuple | None"


# Triples kept by the per-triple cache; a parameter sweep cycles through it.
_CACHE_SIZE = 128
_FILL_LOCK = threading.Lock()


@lru_cache(maxsize=_CACHE_SIZE)
def _triple(alpha: float, m: float, l: float) -> _Triple:
    """The cached record of one triple (alpha, m, l): (ratios, grow, contour).

    ratios is c_0, c_1/c_0, c_2/c_1, ..., as far as filled: the series
    engine sums them, and every coefficient reader takes c_k as their
    running product from c_0 = 1. grow(n) fills the list to at least n
    entries and returns it, also once the record is dropped. contour is
    _contour_node_tuples(alpha, l) where kilbas_saigo may take
    the contour rule, at m = 1, 0 < alpha < 1 and beta = alpha*l + 1 <= 1,
    else None (at larger beta the rule's discretisation error outgrows its
    estimate): the nodes, and the two rounding constants, sector and axis,
    that bound the rule's summed rounding wherever they apply. The least
    recently used of `_CACHE_SIZE` records is dropped (see
    `_triple.cache_info()`).
    """
    ratios = [1.0]
    contour = _contour_node_tuples(alpha, l) if m == 1.0 and alpha < 1.0 and l <= 0.0 else None
    return _Triple(ratios, partial(_fill, alpha, m, l, ratios), contour)


def _fill(alpha: float, m: float, l: float, ratios: list[float], n: int) -> list[float]:
    """`ratios` filled to at least n entries, append-only under a lock: the
    values are deterministic, so racing callers see what each would alone.
    c_{j+1}/c_j = Gamma(q)/Gamma(q + alpha), q = alpha (jm + l) + 1, by
    _gamma_ratio_offset, or from alpha = 20 on as exp of its log."""
    if len(ratios) < n:
        with _FILL_LOCK:
            while len(ratios) < n:
                j = len(ratios) - 1
                q = alpha * (j * m + l) + 1.0
                ratios.append(_gamma_ratio_offset(q, alpha) if alpha < _STIRLING_MIN
                              else math.exp(_log_gamma_ratio_offset(q, alpha)))
    return ratios


def kilbas_saigo_coefficients(params: KilbasSaigoParams, count: int) -> list[float]:
    """First `count` series coefficients c_0..c_{count-1} of E_{alpha,m,l}.

    c_0 = 1 and c_i = c_{i-1} * Gamma(alpha*(jm+l)+1)/Gamma(alpha*(jm+l+1)+1)
    at j = i-1: the running product of the cached ratios the series engine
    sums, each ratio taken in log space.
    """
    count = _check_index("count", count, 1)
    return list(accumulate(_triple(*params).grow(count)[:count], operator.mul))


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


# Terms summed before the engine gives up with converged=False, and the counts
# of summed terms at which the rule is tested: 4, so that short sums stay short,
# then every _STRIDE terms.
_MAX_TERMS = 10_000
_STRIDE = 8
_ENDS = (4, *range(_STRIDE, _MAX_TERMS, _STRIDE), _MAX_TERMS)


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


def _sum_series(
    ratios_of: Callable[[int], list[float]], z: complex, tol: float = DEFAULT_TOL
) -> SeriesEvalReport:
    """The series engine: sum_k t_k, t_0 = R[0], t_k = t_{k-1} (R[k] z).

    `ratios_of(n)` returns a list R of at least n term ratios, R[0] = c_0
    (finite) and R[k] = c_k/c_{k-1} >= 0 decreasing in k >= 1; it is asked
    for one, then for twice the next stride end whenever the sum needs more,
    never for more than _MAX_TERMS. Term weights w_k come folded in as
    R[k] w_k/w_{k-1}. A real z is summed in real arithmetic, so its
    imaginary part is exactly zero.

    Stopping rule: the terms are summed in plain strides, and tested only
    where the count summed reaches a stride end N + 1 in _ENDS. With
    rho = R[N+1] |z| < 1 the terms past t_N are at most |t_N| rho^j, since R
    decreases, so the tail dropped is at most |t_N| rho/(1 - rho). The sum
    stops converged, reporting |t_N|, where
    |t_N| rho <= tol max(1, |S_N|) (1 - rho).

    Exits, unconverged with inf as |t_N|: the first term that is not finite,
    with the sum before it; the first partial sum that is not finite, with
    that sum; a stride end where |S_N| or |t_N| passes the double range,
    with S_N. Finiteness is checked at stride ends; a stride that ends
    non-finite is summed again term by term to find its exit. Reaching
    _MAX_TERMS ends the sum unconverged with |t_N|, untested. At a
    non-finite z the sum stops at its first term, c_0 (0 z), which is nan.
    """
    _check_series_args(tol)
    return _sum_strides(ratios_of, ratios_of(1), z, tol)


def _sum_strides(
    ratios_of: Callable[[int], list[float]], ratios: list[float], z: complex, tol: float
) -> SeriesEvalReport:
    """_sum_series past its tol check, with ratios = ratios_of(1) in hand."""
    if z == 0:
        return _report((complex(ratios[0]), 1, 0.0, True, "series"))
    z = complex(z)
    z, first = (z.real, ratios[0]) if z.imag == 0.0 else (z, complex(ratios[0]))
    if not cmath.isfinite(z):
        return _report((complex(ratios[0] * (z * 0.0)), 1, math.nan, False, "series"))
    n, t, total = len(ratios), first, first
    try:
        az = abs(z)
    except OverflowError:
        az = math.inf  # |z| past the double range, both parts finite
    k = 1
    for end in _ENDS:
        if end >= n:
            ratios = ratios_of(min(2 * end, _MAX_TERMS))
            n = len(ratios)
        for r in ratios[k:end]:
            t *= r * z
            total += t
        try:
            size, mag = abs(total), abs(t)
        except OverflowError:
            # A complex magnitude past the double range, both parts finite,
            # or a nan one: CPython's abs raises there under a stale errno.
            size = math.inf
        if not size < math.inf:
            # Summed again term by term from the start, to the first term
            # or partial sum that is not finite, else to the stride end.
            t = total = first
            for k in range(1, end):
                t *= ratios[k] * z
                if not cmath.isfinite(t):
                    break
                total += t
                if not cmath.isfinite(total):
                    break
            return _report((complex(total), k + 1, math.inf, False, "series"))
        if end == _MAX_TERMS:
            break
        rho = ratios[end] * az
        if rho < 1.0 and mag * rho <= tol * (size if size > 1.0 else 1.0) * (1.0 - rho):
            return _report((complex(total), end, mag, True, "series"))
        k = end
    return _report((complex(total), _MAX_TERMS, mag, False, "series"))


# Trapezoid rule on the parabola s(u) = mu (1 + iu)^2 (Weideman & Trefethen,
# Math. Comp. 76 (2007) 1341): nodes u_k = k h, |k| <= N, h = 3/N, mu = pi N/12.
# Rounding grows like e^mu, so N is chosen, not maximised (see CHANGES.md).
_CONTOUR_N = 16
_CONTOUR_NODES = 2 * _CONTOUR_N + 1
_CONTOUR_H = 3.0 / _CONTOUR_N
_CONTOUR_MU = math.pi * _CONTOUR_N / 12.0
_EPS = sys.float_info.epsilon
# The relative widening of the per-triple rounding constants and of the
# sector edge they assume: far above the few ulps by which the summed bound's
# own rounding, or a z's computed argument, can move either.
_SLACK = 2.0**-40


def _contour_node_tuples(alpha: float, l: float) -> tuple:
    """(alpha, full, half, beta, lnGamma(beta), sector, axis, head) of the
    triple (alpha, 1, l): alpha; (p_k, w_k, eps (1 + |s_k|)) of every node,
    p_k = s_k^alpha, and of the nodes u >= 0 with their mirror images folded
    in, for real z; beta = alpha*l + 1 and lnGamma(beta), which the pole's
    residue needs; then the rounding constants of _contour_estimate.

    E_{alpha,1,l}(z) = Gamma(beta) E_{alpha,beta}(z) is Gamma(beta)/(2 pi i)
    times the integral of e^s s^(alpha-beta)/(s^alpha - z) along the contour
    (plus the pole's residue off the sector where the pole lies right of
    it; see _contour_estimate), so the rule is
    sum_k w_k/(s_k^alpha - z) with
    w_k = Gamma(beta) (h mu/pi) (1 + iu_k) e^(s_k) s_k^(alpha-beta). Node k's
    term t_k inherits the absolute rounding of s_k through e^(s_k), at most
    eps (1 + |s_k|) |t_k| = e_k/|p_k - z|, e_k = eps (1 + |s_k|) |w_k|.

    With that, each constant is at least the summed bound sum_k e_k/|p_k - z|
    wherever it applies, rounding included (both are widened by _SLACK):
    - sector, sum_k e_k/(|p_k| sin min(alpha pi - |arg p_k|, pi/2)) over the
      full nodes, at every z in the sector |arg z| >= alpha pi, since that is
      each node's distance from the sector (on the negative axis the folded
      sum is the full one);
    - axis, sum_{k>=1} e_k/|Im p_k| over the folded nodes, at every real z,
      with the u = 0 node's own term added as head |t_0|, head being its
      rounding factor.
    A distance that is zero, or rounds to zero or below, makes its constant
    inf.
    """
    n, beta = _CONTOUR_N, alpha * l + 1.0
    log_gamma = math.lgamma(beta)
    full = tuple(_contour_node(alpha, beta, log_gamma, k) for k in range(-n, n + 1))
    half = (full[n], *((power, 2.0 * weight, rounding) for power, weight, rounding in full[n + 1 :]))
    edge = alpha * math.pi * (1.0 - _SLACK)
    sector = sum(_share(weight, rounding, abs(power) * math.sin(min(
        edge - abs(math.atan2(power.imag, power.real)), 0.5 * math.pi))) for power, weight, rounding in full)
    axis = sum(_share(weight, rounding, abs(power.imag)) for power, weight, rounding in half[1:])
    grow = 1.0 + _SLACK
    return alpha, full, half, beta, log_gamma, sector * grow, axis * grow, half[0][2] * grow


def _share(weight: complex, rounding: float, distance: float) -> float:
    """e_k/distance of one node, inf where the distance is not positive."""
    return rounding * abs(weight) / distance if distance > 0.0 else math.inf


def _contour_node(alpha: float, beta: float, log_gamma: float, k: int) -> "tuple[complex, complex, float]":
    """(s_k^alpha, w_k, eps (1 + |s_k|)) of node k, u_k = k h."""
    w = complex(1.0, _CONTOUR_H * k)
    s = _CONTOUR_MU * w * w
    log_s = cmath.log(s)
    scale = log_gamma + math.log(_CONTOUR_H * _CONTOUR_MU / math.pi)
    weight = cmath.exp(scale + cmath.log(w) + s + (alpha - beta) * log_s)
    return cmath.exp(alpha * log_s), weight, _EPS * (1.0 + abs(s))


def _contour_sum(nodes: tuple, z: complex) -> "tuple[complex, float, complex]":
    """(value, bound, last term): the node sum and the summed rounding bound
    sum_k eps (1 + |s_k|) |t_k|, running sums in node order from -0.0, the
    identity of IEEE addition. Raises ZeroDivisionError on a node, and
    OverflowError where a term's magnitude passes the double range."""
    value, bound = complex(-0.0, -0.0), -0.0
    for power, weight, rounding in nodes:
        t = weight / (power - z)
        value += t
        bound += abs(t) * rounding
    return value, bound, t


def _contour_estimate(contour: tuple, z: complex, tol: float) -> "tuple[complex, float, float] | None":
    """The contour rule on a triple's record `contour` at one complex z:
    (value, outermost node's contribution, error estimate), with the value
    finite and the estimate at most tol*max(1, |value|); else None, the
    rule's one refusal. It refuses z zero or not finite, a value or estimate
    that fails that test, and every z its arithmetic cannot take, which
    raises ZeroDivisionError or OverflowError and leaves through one
    handler: a residue or e^(s*) past the double range, rho = 1, z on a node
    or on a missing node the correction sums, and a term whose magnitude
    passes the double range.

    In the sector |arg z| >= alpha*pi, s^alpha = z has no root on the
    principal sheet and the nodes are the whole rule. (arg z is math.atan2,
    which cmath.phase equals but for raising OverflowError where the angle
    underflows, at z = 2 + 5e-324j.) Off it, the one root is
    s* = exp(Log z/alpha). Its residue is r = Gamma(beta) s*^(1-beta)
    e^(s*)/alpha, and in the rule's variable u it lies at u* = i (1 - w*),
    w* = sqrt(s*/mu), so Im u* = d = 1 - Re w*. The trapezoid sum T of the
    nodes misses the integral by the pole's Fourier terms, a geometric
    series (Poisson summation; Trefethen & Weideman, SIAM Rev. 56 (2014)
    385), which the correction subtracts exactly: for d > 0 (pole left of
    the contour) the value is T - r rho/(1 - rho), rho = exp(2 pi i u*/h);
    otherwise it is T + r/(1 - rho), rho = exp(-2 pi i u*/h), the residue
    included. Both are one formula, |rho| = exp(-2 pi |d|/h) <= 1. The
    correction's rounding: Log z/alpha carries eps (1 + |log s*|) relative
    error into s*, and e^(s*) turns eps |s*| (2 + |log s*|) of absolute
    error in its exponent into relative error of r, divided by |1 - rho|;
    rho's exponent carries (2 pi/h) eps (|w*| (2 + |log s*|) + |u*|), times
    |r| |rho|/|1 - rho|^2. The correction is that of the infinite rule,
    whose nodes past |u| = N h the sum lacks; where the pole lies past them,
    |Re u*| > N h, the missing node nearest it can hold about
    |r| h/(2 pi |u* - u_k|), so its term and rounding join the correction's,
    and the next missing node on the pole's far side joins the estimate.

    A real z sums the folded nodes u >= 0 and keeps the real part, so its
    value is exactly real. The value is a running sum in node order; the
    correction and its rounding bound are added after it (exact zeros in
    the sector, which leave the bits as they are). The estimate is a node
    rounding bound plus the outermost node's contribution, plus the
    correction's rounding and the second-nearest missing node's term where
    the pole lies past the nodes. The node rounding bound is the record's
    constant where one applies and the estimate it gives meets tol: at a
    real z the axis constant plus head |t_0|, or the sector constant where
    z lies in the sector and that is smaller; at a complex z in the sector
    the sector constant. Else it is the summed bound
    sum_k eps (1 + |s_k|) |t_k| of _contour_sum, summed with the values in
    one loop where no constant is tried: at a complex z off the sector, and
    where the constant that applies (sector in the sector, else axis)
    exceeds tol. Each constant is at least the summed bound, so the rule
    meets tol exactly where the summed bound makes it.
    """
    if z == 0 or not cmath.isfinite(z):
        return None
    alpha, full, half, beta, log_gamma, sector, axis, head = contour
    real = z.imag == 0.0
    nodes = half if real else full
    pole, rounding, missing = 0j, 0.0, 0.0
    # A real z lies in the sector where it is negative: atan2 gives it pi
    # there and 0 on the positive axis, and alpha*pi rounds below the
    # double pi for every alpha < 1.
    in_sector = z.real < 0.0 if real else abs(math.atan2(z.imag, z.real)) >= alpha * math.pi
    # A constant is tried only where it is at most tol, where it will most
    # often decide; so none is tried that could hide a term whose magnitude
    # passes the double range, which the summed bound would meet.
    has_constant = sector <= tol if in_sector else real and axis <= tol
    try:
        if not in_sector:
            log_s = cmath.log(z) / alpha
            s = cmath.exp(log_s)
            residue = cmath.exp(log_gamma + (1.0 - beta) * log_s + s) / alpha
            size = abs(residue)
            w = cmath.sqrt(s / _CONTOUR_MU)
            # u* = i (1 - w*) and d = Im u*; rho = exp(+-2 pi i u*/h), |rho| <= 1.
            d, c = 1.0 - w.real, 2.0 * math.pi / _CONTOUR_H
            rho = cmath.exp(c * complex(-abs(d), w.imag if d > 0.0 else -w.imag))
            gap = abs(1.0 - rho)
            pole = (-residue * rho if d > 0.0 else residue) / (1.0 - rho)
            spread = 2.0 + abs(log_s)
            shift = c * (abs(w) * spread + abs(1.0 - w)) * abs(rho) / gap
            rounding = size * _EPS * ((1.0 + abs(s)) * spread + shift) / gap
            # Past the outermost node, the missing node nearest the pole is
            # summed and the next one, on the pole's far side, charged (see
            # above).
            if abs(w.imag) > _CONTOUR_N * _CONTOUR_H:
                x = abs(w.imag) / _CONTOUR_H
                k = max(round(x), _CONTOUR_N + 1)
                far = k + 1 if x > k or k == _CONTOUR_N + 1 else k - 1
                sign = 1 if w.imag > 0.0 else -1
                power, weight, node_rounding = _contour_node(alpha, beta, log_gamma, sign * k)
                t = weight / (power - z)
                pole, rounding = pole + t, rounding + abs(t) * node_rounding
                power, weight, _ = _contour_node(alpha, beta, log_gamma, sign * far)
                missing = abs(weight / (power - z))
        if has_constant:
            # The node values alone; the first term starts the sum exactly.
            terms = iter(nodes)
            power, weight, _ = next(terms)
            value = first = weight / (power - z)
            for power, weight, _ in terms:
                t = weight / (power - z)
                value += t
            bound = sector
            if real:
                bound = axis + abs(first) * head
                if in_sector and sector < bound:
                    bound = sector
        else:
            value, bound, t = _contour_sum(nodes, z)
            if not real:
                power, weight, _ = nodes[0]
                first = weight / (power - z)
        if real:
            value, last = complex(value.real), 0.5 * abs(t)
        else:
            last = max(abs(first), abs(t))
        value += pole
        try:
            size = abs(value)
        except OverflowError:
            size = math.inf  # the magnitude of a value past the double range
        limit = tol * (size if size > 1.0 else 1.0)
        estimate = bound + rounding + last + missing
        if has_constant and not estimate <= limit:
            # The constant does not decide: the summed bound, in node order.
            estimate = _contour_sum(nodes, z)[1] + rounding + last + missing
    except (ZeroDivisionError, OverflowError):
        return None
    if estimate <= limit and cmath.isfinite(value):
        return value, last, estimate
    return None


def kilbas_saigo(
    params: KilbasSaigoParams, z: complex, tol: float = DEFAULT_TOL
) -> SeriesEvalReport:
    """Kilbas-Saigo function E_{alpha,m,l}(z) = sum_i c_i z^i.

    Entire in z; the coefficients are real and positive, complex z enters
    only through the powers. Returns the partial sum with truncation
    metadata; a non-converged report (term cap reached or a term
    overflowed) still carries the best value.

    At m = 1, 0 < alpha < 1 and l <= 0, where the series needs about
    |z|^(1/alpha) terms that cancel, the value is the 33-node contour rule of
    _contour_estimate instead, reported with path="contour", wherever the
    rule returns one, which then meets tol. Where the rule refuses z (its
    one refusal, None), the series is summed as elsewhere.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    ratios, grow, contour = _triple(*params)
    if contour is not None:
        rule = _contour_estimate(contour, complex(z), tol)
        if rule is not None:
            return _report((rule[0], _CONTOUR_NODES, rule[1], True, "contour"))
    return _sum_strides(grow, ratios, z, tol)


def _kilbas_saigo_ray(
    params: KilbasSaigoParams, lam: complex, a: float, ys: "list[float]", tol: float
) -> list[SeriesEvalReport]:
    """[kilbas_saigo(params, complex(lam) * y**a, tol) for y in ys], report
    for report, with y**a Python's pow and inf where it overflows: a solver
    branch's table. tol is checked and the triple's record looked up once,
    also for an empty ys; each point then takes the contour rule or the
    series as kilbas_saigo routes it, through this module's
    _contour_estimate and _sum_strides."""
    _check_series_args(tol)
    ratios, grow, contour = _triple(*params)
    lam = complex(lam)
    reports = []
    for y in ys:
        z = lam * _power(y, a)
        if contour is not None:
            rule = _contour_estimate(contour, z, tol)
            if rule is not None:
                reports.append(_report((rule[0], _CONTOUR_NODES, rule[1], True, "contour")))
                continue
        reports.append(_sum_strides(grow, ratios, z, tol))
    return reports
