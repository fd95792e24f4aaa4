"""Kilbas-Saigo series along a ray, in numpy.

The numpy half of the special-function kernel, used by the solver's series
tails (and so only by `verify`): kilbas_saigo_grid evaluates
special_functions.kilbas_saigo at every point z = lam * y**a of a
_PowerGrid. A triple that takes the contour rule is kilbas_saigo itself at
each point, so the rule, its rounding and its series fallback live in one
module. Every other triple is summed by the blocked grid driver
_sum_log_series_grid, which keeps the scalar engine's stopping rule and
agrees with it to rounding. special_functions itself does not import numpy,
so a scalar caller never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .special_functions import (
    _MAX_TERMS,
    DEFAULT_TOL,
    KilbasSaigoParams,
    _check_series_args,
    _contour_rule,
    _power,
    _sum_log_series,
    kilbas_saigo,
)

__all__ = ["SeriesGridReport"]


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
    log_coeffs: Callable[[int], list[float]], zs: _PowerGrid, tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """special_functions._sum_log_series(log_coeffs, z, tol) at every point z
    of the ray zs, to rounding.

    Terms are formed for a block of k and a chunk of points at once and
    summed in order, each point carrying its sum, whether its last two terms
    were small and its last magnitude from block to block until the stopping
    rule fires. A point that would need a term above exp(_GRID_EXP_MAX), or
    whose exponent is not finite, is summed by _sum_log_series itself at
    z = lam * y**a (Python's pow), so overflow keeps the scalar semantics.
    """
    _check_series_args(tol)
    ys = zs.ys
    report = SeriesGridReport(
        np.empty(ys.size, dtype=complex),
        np.empty(ys.size, dtype=np.int64),
        np.empty(ys.size),
        np.empty(ys.size, dtype=bool),
    )
    first = 16
    for c in range(0, ys.size, _CHUNK_POINTS):
        _sum_chunk(log_coeffs, zs._replace(ys=ys[c : c + _CHUNK_POINTS]), c, tol, first, report)
        first = int(report.terms_used[c : c + _CHUNK_POINTS].max())
    return report


def _sum_chunk(
    log_coeffs: Callable[[int], list[float]],
    zs: _PowerGrid,
    offset: int,
    tol: float,
    first: int,
    out: SeriesGridReport,
) -> None:
    """Sum the series at zs into out[offset:], block by block, the first
    block `first` terms long (clamped to 4.._BLOCK_TERMS)."""
    nonzero = (zs.ys != 0.0) & (zs.lam != 0)
    zero = offset + np.flatnonzero(~nonzero)
    if zero.size:
        out.value[zero] = math.exp(log_coeffs(1)[0])
        out.terms_used[zero], out.last_term_magnitude[zero], out.converged[zero] = 1, 0.0, True
    points = np.flatnonzero(nonzero)
    # ln|z| per point (at lam = 0 there is no point, and ln 1 stands in for
    # ln|lam|), and the phase e^(ik arg lam) per term (math.atan2, as
    # cmath.phase raises where arg lam underflows).
    log_abs = np.log(zs.ys[points]) * zs.a + math.log(abs(zs.lam) or 1.0)
    phase = math.atan2(zs.lam.imag, zs.lam.real)
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
            expo = np.multiply(ks, log_abs, out=mags[1:])
            expo += logs
            # Row of each point's first term past exp(_GRID_EXP_MAX) or with
            # a nan exponent. max propagates nan, so only a block with no
            # such term skips the mask.
            big = nb if expo.max() <= _GRID_EXP_MAX else _first_true(~(expo <= _GRID_EXP_MAX), nb)
            # |t_k| is the real exp; for real lam the phase is (+-1)^k.
            mag = np.exp(expo, out=expo)
            if zs.lam.imag == 0.0:
                np.multiply(mag, 1.0 - 2.0 * (ks % 2) if zs.lam.real < 0.0 else 1.0, out=t.real)
                t.imag = 0.0
            else:
                np.multiply(mag, np.cos(ks * phase), out=t.real)
                np.multiply(mag, np.sin(ks * phase), out=t.imag)
            np.cumsum(sums, axis=0, out=sums)
            sums = t
            # |S_k| everywhere: where |t_k| <= tol it cannot change the test.
            now = np.less_equal(mag, tol, out=small[2:])
            size = np.abs(sums)
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
        points, log_abs = points[keep], log_abs[keep]
        total, was_small, prev = sums[-1, keep], small[-2:, keep], mag[-1, keep]
        k0, width, later = k0 + nb, later, 2 * later
    for p in scalar:
        report = _sum_log_series(log_coeffs, zs.lam * _power(float(zs.ys[p]), zs.a), tol)
        for array, field in zip(vars(out).values(), report[:4]):
            array[offset + p] = field


def _first_true(mask: np.ndarray, none: int) -> np.ndarray:
    """Row of the first True in each column of mask, `none` where there is none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), none)


def kilbas_saigo_grid(
    params: KilbasSaigoParams, zs: _PowerGrid, tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """kilbas_saigo(params, z, tol) at every point z = lam * y**a of the ray
    zs. A triple that takes the contour rule is kilbas_saigo itself at each
    point lam * np.power(y, a), bit for bit, path included; any other triple
    is summed along the ray by the blocked grid driver, kilbas_saigo's to
    rounding."""
    if not _contour_rule(params):
        return _sum_log_series_grid(params._log_coeffs, zs, tol)
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
