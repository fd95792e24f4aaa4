"""Kilbas-Saigo series along a ray, in numpy.

The numpy half of the series engine, used by the solver's series tails (and
so only by `verify`): _sum_series_grid sums a series at every point
z = lam * y**a of a _PowerGrid. It is the scalar engine's loop over k run on
an array of points: the same stopping rule, and the scalar values to
rounding. It sums series only; a branch that may take the contour rule is
tabulated, tail included, by special_functions.kilbas_saigo through the
solver. special_functions itself does not import numpy, so a scalar caller
never loads it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import _ReadOnly
from .special_functions import (
    _MAX_TERMS,
    DEFAULT_TOL,
    _check_series_args,
    _power,
    _sum_series,
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


class _PowerGrid(NamedTuple):
    """The points z_j = lam * y_j**a, y_j >= 0, a > 0, on the ray arg lam: the
    grid driver forms them as lam times numpy's y_j**a, which can differ
    from Python's pow in the last bit."""

    lam: complex
    a: float
    ys: np.ndarray


def _sum_series_grid(
    ratios_of: Callable[[int], list[float]], zs: _PowerGrid, tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """special_functions._sum_series(ratios_of, z, tol) at every point z of
    the ray zs, to rounding.

    The scalar loop over an array: step k multiplies term k-1 by R[k] z at
    every point still summing, adds it in the scalar order and applies the
    scalar stopping rule. A point carries its z, term and sum, whether its
    last two terms were small and its last magnitude, and leaves the arrays
    when it stops. Points that stop ahead of every live one, as along a ray
    of growing |z| where terms_used does not fall, leave by slicing: the
    live arrays become views, with no copies. Any other stop pattern
    compacts the arrays by a boolean mask. A point whose sum is not finite
    (a term or the sum past the double range, or a z that is not finite)
    is summed by _sum_series itself at z = lam * y**a (Python's pow), so
    overflow keeps the scalar semantics.
    """
    _check_series_args(tol)
    ratios = ratios_of(1)
    n = zs.ys.size
    # Every point starts as the one-term sum at z = 0.
    out = SeriesGridReport(
        np.full(n, complex(ratios[0])),
        np.ones(n, dtype=np.int64),
        np.zeros(n),
        np.ones(n, dtype=bool),
    )
    real = zs.lam.imag == 0.0
    scalar = []
    # Powers, terms and sums of points about to go to the scalar engine may
    # overflow or be nan; no other value can.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.power(zs.ys, zs.a) * (zs.lam.real if real else zs.lam)
        points = np.flatnonzero(z != 0.0)
        z = z[points]
        term = np.full(points.size, ratios[0], dtype=z.dtype)
        total = np.zeros(points.size, dtype=z.dtype)
        small = was_small = np.zeros(points.size, dtype=bool)
        mag = np.full(points.size, math.inf)
        for k in range(_MAX_TERMS):
            if not points.size:
                break
            if k >= len(ratios):
                ratios = ratios_of(min(2 * k, _MAX_TERMS))
            prev = mag
            if k:
                # Out of place: numpy rounds an in-place complex product of
                # one element otherwise than one of several.
                term = term * (z * ratios[k])
            total += term
            mag = np.abs(term)
            # |t_k| <= tol max(1, |S_k|) decides as the scalar loop's test.
            size = np.abs(total)
            now = mag <= tol * np.fmax(size, 1.0)
            # Three small terms in a row, the last smaller than the one
            # before; the last test only where the first holds.
            stop = now & small & was_small
            leave = np.count_nonzero(stop)
            if leave:
                stop &= (mag < prev) | ((mag == 0.0) & (prev == 0.0))
            # A point whose sum is not finite leaves as a stopped one and is
            # written again by the scalar engine below. max propagates nan,
            # so a step without one skips the mask.
            if not size.max() < math.inf:
                big = ~(size < math.inf)
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
                points, z, term, total, mag, now, small = (
                    a[live] for a in (points, z, term, total, mag, now, small)
                )
            small, was_small = now, small
    # The points still summing end unconverged at the cap.
    _put(out, points, total, _MAX_TERMS, mag, False)
    for p in scalar:
        _put(out, p, *_sum_series(ratios_of, zs.lam * _power(float(zs.ys[p]), zs.a), tol)[:4])
    return out


def _put(out: SeriesGridReport, at, *fields) -> None:
    """Write the leading report fields `fields` at the points `at` of out."""
    for array, field in zip(vars(out).values(), fields):
        array[at] = field

