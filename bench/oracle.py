"""High-precision reference values of the Kilbas-Saigo function.

E_{alpha,m,l}(z) = sum_k c_k z^k with c_0 = 1 and
c_k = c_{k-1} * Gamma(alpha*((k-1)m + l) + 1) / Gamma(alpha*((k-1)m + l + 1) + 1),
summed with mpmath. Each Gamma is evaluated at full working precision (no
log-space ratios, no Stirling tails), so the reference shares only the
definition with the code under test.

Working precision is chosen from the largest term: on the negative axis the
terms grow far beyond the result before they decay (about 1e28 at alpha=0.5,
z=-8; about 1e430 at alpha=0.3, z=-8), and all of those digits cancel. The
precision is REF_DIGITS plus the decimal exponent of the largest term, which
keeps REF_DIGITS correct digits below 1 in the sum.

Results are cached in a JSON file keyed by the exact float inputs, because
the deep-cancellation triples take seconds each.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from mpmath import mp

REF_DIGITS = 30
_GUARD_DIGITS = 10


def _plan(alpha: float, m: float, l: float, radius: float) -> tuple[int, int]:
    """(decimal exponent of the largest term, number of terms) for |z| <= radius.

    The log of the k-th term is concave in k, so the terms rise to one peak
    and then decay; the sum stops once they fall REF_DIGITS + guard digits
    below 1, which is past the peak because the first term is 1.
    """
    log_r = math.log(radius) if radius > 0.0 else -math.inf
    floor = -(REF_DIGITS + _GUARD_DIGITS) * math.log(10.0)
    log_c = 0.0
    top = 0.0
    k = 0
    while True:
        x = alpha * (k * m + l) + 1.0
        log_c += math.lgamma(x) - math.lgamma(x + alpha)
        k += 1
        log_t = log_c + k * log_r
        top = max(top, log_t)
        if log_t < floor:
            return math.ceil(top / math.log(10.0)), k + 1


def _coefficients(alpha: float, m: float, l: float, count: int) -> list:
    a, mm, ll = mp.mpf(alpha), mp.mpf(m), mp.mpf(l)
    coeffs = [mp.mpf(1)]
    for j in range(count - 1):
        x = a * (j * mm + ll) + 1
        coeffs.append(coeffs[-1] * mp.gamma(x) / mp.gamma(x + a))
    return coeffs


def kilbas_saigo_reference(triple: tuple[float, float, float], zs: list[complex]) -> list[complex]:
    """E_{alpha,m,l}(z) for every z in zs, each correct to about REF_DIGITS
    digits below 1 and rounded to a Python complex. A z with zero imaginary
    part is summed in real arithmetic."""
    if not zs:
        return []
    alpha, m, l = triple
    top, count = _plan(alpha, m, l, max(abs(z) for z in zs))
    with mp.workdps(REF_DIGITS + _GUARD_DIGITS + max(top, 0)):
        coeffs = _coefficients(alpha, m, l, count)
        out = []
        for z in zs:
            w = mp.mpf(z.real) if z.imag == 0 else mp.mpc(z.real, z.imag)
            total = mp.mpf(0)
            for c in reversed(coeffs):
                total = total * w + c
            out.append(complex(total))
    return out


def _key(triple: tuple[float, float, float], z: complex) -> str:
    return f"{triple[0]!r},{triple[1]!r},{triple[2]!r}|{z.real!r},{z.imag!r}"


class Oracle:
    """Reference values with an optional on-disk cache (None keeps them in
    memory only)."""

    def __init__(self, cache_path: "Path | None") -> None:
        self._path = cache_path
        self._values: dict[str, list[float]] = {}
        if cache_path is not None and cache_path.is_file():
            with open(cache_path, encoding="utf-8") as fh:
                self._values = json.load(fh)

    def lookup(self, requests: dict[tuple[float, float, float], list[complex]]) -> dict:
        """Map every (triple, z) in requests to its reference value,
        computing and caching the ones not yet known."""
        computed = False
        for triple, zs in requests.items():
            missing = list(dict.fromkeys(complex(z) for z in zs if _key(triple, complex(z)) not in self._values))
            for z, value in zip(missing, kilbas_saigo_reference(triple, missing)):
                self._values[_key(triple, z)] = [value.real, value.imag]
                computed = True
        if computed and self._path is not None:
            tmp = self._path.with_suffix(f".{os.getpid()}.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._values, fh)
            os.replace(tmp, self._path)
        return {
            (triple, complex(z)): complex(*self._values[_key(triple, complex(z))])
            for triple, zs in requests.items()
            for z in zs
        }
