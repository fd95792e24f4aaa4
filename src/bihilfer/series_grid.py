"""Kilbas-Saigo series and contour rule over a grid, in numpy.

The numpy half of the special-function kernel: kilbas_saigo_grid evaluates
special_functions.kilbas_saigo at every point of a 1-d array of z (or of a
_PowerGrid, the solver's z = lam * y**a) and returns the same bits, path
included. The contour rule runs on a (points x nodes) array whose nodes are
np.array of special_functions._contour_node_tuples, the scalar rule's own
numbers, and rounds each operation as the Python one does (_py_quotient,
running sums in node order). The series runs through the blocked grid
driver _sum_log_series_grid, which keeps the scalar engine's stopping rule
and, on an array of z, its bits. special_functions itself does not import
numpy, so a scalar caller never loads it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .special_functions import (
    _CACHE_SIZE,
    _CONTOUR_NODES,
    _MAX_TERMS,
    DEFAULT_TOL,
    KilbasSaigoParams,
    _check_series_args,
    _contour_node_tuples,
    _contour_pole,
    _contour_rule,
    _in_sector,
    _sum_log_series,
)

__all__ = ["SeriesGridReport", "kilbas_saigo_grid"]


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
    log_coeffs: Callable[[int], list[float]],
    zs: "np.ndarray | _PowerGrid",
    tol: float = DEFAULT_TOL,
) -> SeriesGridReport:
    """special_functions._sum_log_series(log_coeffs, z, tol) at every z of zs.

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


@lru_cache(maxsize=_CACHE_SIZE)
def _contour_nodes(alpha: float, l: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """special_functions._contour_node_tuples(alpha, l) as arrays: (full,
    half), each the arrays (s_k^alpha, weight, rounding factor) over its
    nodes; indexing the pair by `real` picks the rule. The same numbers as
    the scalar rule's, so the two agree bit for bit. The arrays are shared
    and read-only."""
    rules = []
    for rule in _contour_node_tuples(alpha, l):
        arrays = tuple(np.array(column) for column in zip(*rule))
        for array in arrays:
            array.flags.writeable = False
        rules.append(arrays)
    return tuple(rules)


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
    """(value, last_term_magnitude, converged) of the scalar _contour_point
    at each of a column z of points, all real or all complex, bit for bit.
    pole is None in the sector, and off it the arrays (residue, rounding
    bound, error) of _contour_pole at each point.

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


def kilbas_saigo_grid(
    params: KilbasSaigoParams, zs: "np.ndarray | _PowerGrid", tol: float = DEFAULT_TOL
) -> SeriesGridReport:
    """kilbas_saigo(params, z, tol) at every z of zs, bit for bit, path
    included: the contour rule on a (points x nodes) array, its pole terms
    taken point by point from _contour_pole, then the series by the blocked
    grid driver for the points left. The rule takes a _PowerGrid's points
    lam * np.power(y, a), the driver its ray (kilbas_saigo's to rounding)."""
    ray = isinstance(zs, _PowerGrid)
    if not ray:
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1:
            raise ValueError(f"need a 1-d grid of z, got shape {zs.shape}")
    if not _contour_rule(params):
        return _sum_log_series_grid(params._log_coeffs, zs, tol)
    _check_series_args(tol)
    points = zs.lam * np.power(zs.ys, zs.a) if ray else zs
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
