"""Kilbas-Saigo series along a ray, in numpy.

The numpy half of the special-function kernel, used by the solver's series
tails (and so only by `verify`): kilbas_saigo_grid evaluates
special_functions.kilbas_saigo at every point z = lam * y**a of a
_PowerGrid. A triple that takes the contour rule is kilbas_saigo itself at
each point, so the rule, its rounding and its series fallback live in one
module. Every other triple is summed by the grid driver
_sum_log_series_grid, the scalar engine's loop over k run on an array of
points: the same stopping rule, and the scalar values to rounding.
special_functions itself does not import numpy, so a scalar caller never
loads it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import _ReadOnly
from .special_functions import (
    _MAX_TERMS,
    DEFAULT_TOL,
    KilbasSaigoParams,
    _check_series_args,
    _power,
    _sum_log_series,
    _triple,
    kilbas_saigo,
)

__all__ = ["SeriesGridReport"]


class SeriesGridReport(_ReadOnly):
    """A SeriesEvalReport per grid point, one array per field, in that
    order. Without a path array every point took the series (a read-only
    view, no per-point memory). The attributes are read-only; the arrays
    are not."""

    def __init__(
        self,
        value: np.ndarray,
        terms_used: np.ndarray,
        last_term_magnitude: np.ndarray,
        converged: np.ndarray,
        path: "np.ndarray | None" = None,
    ) -> None:
        if path is None:
            path = np.broadcast_to(np.str_("series"), value.shape)
        self.__dict__.update(value=value, terms_used=terms_used,
                             last_term_magnitude=last_term_magnitude, converged=converged,
                             path=path)


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
    log_coeffs: Callable[[int], list[float]], zs: _PowerGrid, tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """special_functions._sum_log_series(log_coeffs, z, tol) at every point z
    of the ray zs, to rounding.

    The scalar loop over an array: step k forms term k at every point still
    summing, adds it in the scalar order and applies the scalar stopping
    rule. A point carries its sum, whether its last two terms were small
    and its last magnitude, and leaves the arrays when it stops. Points that
    stop ahead of every live one, as along a ray of growing |z| where
    terms_used does not fall, leave by slicing: the live arrays become
    views, with no copies. Any other stop pattern compacts the arrays by a
    boolean mask. A point
    that would need a term above exp(_GRID_EXP_MAX), or whose exponent is
    not finite, is summed by _sum_log_series itself at z = lam * y**a
    (Python's pow), so overflow keeps the scalar semantics.
    """
    _check_series_args(tol)
    logs = log_coeffs(1)
    size = zs.ys.size
    # Every point starts as the one-term sum at z = 0.
    out = SeriesGridReport(
        np.full(size, complex(math.exp(logs[0]))),
        np.ones(size, dtype=np.int64),
        np.zeros(size),
        np.ones(size, dtype=bool),
    )
    points = np.flatnonzero((zs.ys != 0.0) & (zs.lam != 0))
    # ln|z| per point (at lam = 0 there is no point, and ln 1 stands in for
    # ln|lam|), and the phase e^(ik arg lam) per term (math.atan2, as
    # cmath.phase raises where arg lam underflows). For real lam the phase
    # is (+-1)^k and the sums stay real.
    log_abs = np.log(zs.ys[points]) * zs.a + math.log(abs(zs.lam) or 1.0)
    phase = math.atan2(zs.lam.imag, zs.lam.real)
    real = zs.lam.imag == 0.0
    total = np.zeros(points.size, dtype=float if real else complex)
    small = was_small = np.zeros(points.size, dtype=bool)
    mag = np.full(points.size, math.inf)
    scalar = []
    # Exponents of points about to go to the scalar engine may overflow or
    # be nan; no other value can.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_MAX_TERMS):
            if not points.size:
                break
            if k >= len(logs):
                logs = log_coeffs(min(2 * k, _MAX_TERMS))
            prev = mag
            expo = log_abs * float(k)
            expo += logs[k]
            mag = np.exp(expo)
            if not real:
                term = np.empty(points.size, dtype=complex)
                np.multiply(mag, np.cos(k * phase), out=term.real)
                np.multiply(mag, np.sin(k * phase), out=term.imag)
                total += term
            elif zs.lam.real < 0.0 and k & 1:
                total -= mag
            else:
                total += mag
            # |t_k| <= tol max(1, |S_k|) decides as the scalar loop's test.
            now = mag <= tol * np.fmax(np.abs(total), 1.0)
            # Three small terms in a row, the last smaller than the one
            # before; the last test only where the first holds.
            stop = now & small & was_small
            leave = np.count_nonzero(stop)
            if leave:
                stop &= (mag < prev) | ((mag == 0.0) & (prev == 0.0))
            # A point whose exponent passes _GRID_EXP_MAX or is nan leaves
            # as a stopped one and is written again by the scalar engine
            # below. max propagates nan, so a step without one skips the mask.
            if not expo.max() <= _GRID_EXP_MAX:
                big = ~(expo <= _GRID_EXP_MAX)
                scalar += points[big].tolist()
                stop |= big
                leave = True
            if leave:
                leave = np.count_nonzero(stop)
                if stop[:leave].all():
                    # The stopped points lead the live ones, as along a ray
                    # of growing |z|: both sides are views, no copies.
                    gone, live = slice(None, leave), slice(leave, None)
                else:
                    gone, live = stop, ~stop
                _put(out, points[gone], total[gone], k + 1, mag[gone])
                points, log_abs, total, mag, now, small = (
                    a[live] for a in (points, log_abs, total, mag, now, small)
                )
            small, was_small = now, small
    # The points still summing end unconverged at the cap.
    _put(out, points, total, _MAX_TERMS, mag, False)
    for p in scalar:
        _put(out, p, *_sum_log_series(log_coeffs, zs.lam * _power(float(zs.ys[p]), zs.a), tol)[:4])
    return out


def _put(out: SeriesGridReport, at, *fields) -> None:
    """Write the leading report fields `fields` at the points `at` of out."""
    for array, field in zip(vars(out).values(), fields):
        array[at] = field


def kilbas_saigo_grid(
    params: KilbasSaigoParams, zs: _PowerGrid, tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """kilbas_saigo(params, z, tol) at every point z = lam * y**a of the ray
    zs. A triple that takes the contour rule is kilbas_saigo itself at each
    point lam * np.power(y, a), bit for bit, path included; any other triple
    is summed along the ray by the grid driver, kilbas_saigo's to
    rounding."""
    _, grow, contour = _triple(*params)
    if contour is None:
        return _sum_log_series_grid(grow, zs, tol)
    _check_series_args(tol)
    points = zs.lam * np.power(zs.ys, zs.a)
    reports = [kilbas_saigo(params, z, tol) for z in points.tolist()]
    value, terms, last, converged, path = zip(*reports) if reports else ([],) * 5
    return SeriesGridReport(
        np.array(value, dtype=complex),
        np.array(terms, dtype=np.int64),
        np.array(last, dtype=float),
        np.array(converged, dtype=bool),
        np.array(path, dtype="<U7"),
    )
