"""Kilbas-Saigo series along a ray, in numpy.

The numpy half of the series engine, used by the solver's series tails (and
so only by `verify`): _sum_series_grid sums a series at every point
z = lam * y**a of a _PowerGrid. It is the scalar engine's loop over k run on
an array of points: the same strides and stopping rule, and the scalar
engine's bits at each point it sums. It sums series only; a branch that
may take the contour rule is tabulated, tail included, by
special_functions.kilbas_saigo through the solver. special_functions
itself does not import numpy, so a scalar caller never loads it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import _ReadOnly
from .special_functions import (
    _ENDS,
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
    the ray zs: bit for bit the engine's at the point it sums, lam times
    numpy's y**a part by part, which can differ from Python's in the last bit.

    The scalar loop over an array: each step multiplies term k-1 by R[k] z at
    every point still summing and adds it in the scalar order, and at each
    of the scalar engine's stride ends the scalar stopping test runs, so a
    point stops on the scalar's term. A point carries its z, |z|, term and
    sum, and leaves the arrays when it stops. Points that stop ahead of
    every live one, as along a ray of growing |z| where terms_used does not
    fall, leave by slicing: the live arrays become views, with no copies.
    Any other stop pattern compacts the arrays by a boolean mask. A point
    whose sum or last term at a stride end is not finite or has a magnitude
    past the double range (or whose z is not finite) is summed by
    _sum_series itself at z = lam * y**a (Python's pow), so overflow keeps
    the scalar semantics.
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
        # A complex z and term are kept as real and imaginary parts, z and
        # zi, t and ti (see _times); the parts of z are Python's but for the
        # signs of zeros, which no sum shows.
        zi = ti = None
        z = np.power(zs.ys, zs.a)
        if not real:
            zi = z * zs.lam.imag
        z *= zs.lam.real
        points = np.flatnonzero(z != 0.0 if real else (z != 0.0) | (zi != 0.0))
        if points.size < n:
            z, zi = _take(points, z, zi)
        az = np.abs(z) if real else np.hypot(z, zi)
        t = np.full(points.size, ratios[0])
        total = t.astype(float if real else complex)
        if not real:
            ti = np.zeros(points.size)
        k = 1
        for end in _ENDS:
            if not points.size:
                break
            if end >= len(ratios):
                ratios = ratios_of(min(2 * end, _MAX_TERMS))
            for r in ratios[k:end]:
                if real:
                    t = t * (z * r)
                    total += t
                else:
                    _times(t, ti, z, zi, r)
                    total.real += t
                    total.imag += ti
            k = end
            mag, size = (np.abs(t) if real else np.hypot(t, ti)), np.abs(total)
            if end == _MAX_TERMS:
                stop = np.ones(points.size, dtype=bool)
            else:
                rho = az * ratios[end]
                stop = (rho < 1.0) & (mag * rho <= tol * np.fmax(size, 1.0) * (1.0 - rho))
            # A point whose sum or term is not finite in magnitude leaves as
            # a stopped one and is written again by the scalar engine below.
            # max propagates nan, so a stride without one skips the mask.
            if not (size.max() < math.inf and mag.max() < math.inf):
                big = ~((size < math.inf) & (mag < math.inf))
                scalar += points[big].tolist()
                stop |= big
            leave = np.count_nonzero(stop)
            if leave:
                if stop[:leave].all():
                    # The stopped points lead the live ones, as along a ray
                    # of growing |z|: both sides are views, no copies.
                    gone, live = slice(None, leave), slice(leave, None)
                else:
                    gone, live = stop, ~stop
                _put(out, points[gone], total[gone], end, mag[gone], end < _MAX_TERMS)
                points, z, zi, az, t, ti, total = _take(live, points, z, zi, az, t, ti, total)
    for p in scalar:
        _put(out, p, *_sum_series(ratios_of, zs.lam * _power(float(zs.ys[p]), zs.a), tol)[:4])
    return out


def _times(t: np.ndarray, ti: np.ndarray, z: np.ndarray, zi: np.ndarray, r: float) -> None:
    """t + i ti times (z + i zi) r, in place and part by part, rounded as
    Python's complex product is: numpy's own can fuse a multiply and an add."""
    wr, wi = z * r, zi * r
    u = t * wi
    t *= wr
    wi *= ti
    t -= wi
    ti *= wr
    ti += u


def _take(at, *arrays: "np.ndarray | None") -> list:
    """Each of `arrays` at the points `at`; None stays None."""
    return [None if a is None else a[at] for a in arrays]


def _put(out: SeriesGridReport, at, *fields) -> None:
    """Write the leading report fields `fields` at the points `at` of out."""
    for array, field in zip(vars(out).values(), fields):
        array[at] = field

