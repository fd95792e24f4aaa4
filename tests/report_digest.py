"""One SHA-256 over the bits of every kilbas_saigo report on a fixed set of calls.

Run on two trees, it tells whether a change to the scalar engine moved any
field of any report:

    PYTHONPATH=src python tests/report_digest.py

The calls, in this order:
- the ks-sweep evaluation sequences of seeds 1-10 (bench/workloads.py);
- 40,000 seeded random calls: 500 triples, half of them at m = 1 (where the
  contour rule may apply), 80 points each, tol log-uniform on [1e-16, 0.5],
  z real, complex, or one of 0, inf, -inf, nan, 710, -710 and 1e308+1e308j;
- the contour rule's node inputs: z on the real node u = 0, on the complex
  nodes p_k, k = 1, 3, 8, 16, and on the missing nodes k = 17, 18, of the
  triples (0.5, 1, 0), (0.3, 1, 0) and (0.8, 1, -0.5).

Each report is hashed as its value's two parts, terms_used, the last term's
magnitude and converged, packed as little-endian C types, then its path.
pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from bihilfer.special_functions import (  # noqa: E402
    _CONTOUR_N,
    KilbasSaigoParams,
    _contour_node,
    _triple,
    kilbas_saigo,
)

SPECIAL = (0.0, math.inf, -math.inf, math.nan, 710.0, -710.0, complex(1e308, 1e308))
NODE_TRIPLES = ((0.5, 1.0, 0.0), (0.3, 1.0, 0.0), (0.8, 1.0, -0.5))


def sweep_calls():
    """(triple, z, tol) of the ks-sweep sequences of seeds 1-10."""
    for seed in range(1, 11):
        for triple, z, _ in workloads.ks_sequence(workloads.ks_inputs(seed, smoke=False)):
            yield triple, z, 1e-12


def random_calls(seed: int = 45):
    """(triple, z, tol) of 40,000 seeded random calls."""
    rng = random.Random(seed)
    for j in range(500):
        alpha = rng.uniform(0.1, 1.5) if j % 2 else rng.uniform(0.1, 3.0)
        m = 1.0 if j % 2 else rng.uniform(0.2, 3.0)
        l = rng.uniform(max(-0.95 / alpha, -3.0), 0.0 if j % 4 == 1 else 1.5)
        for _ in range(80):
            tol = 10.0 ** rng.uniform(-16.0, math.log10(0.5))
            kind = rng.random()
            if kind < 0.05:
                z = rng.choice(SPECIAL)
            elif kind < 0.5:
                z = rng.uniform(-30.0, 30.0)
            else:
                z = cmath.rect(rng.uniform(0.0, 30.0), rng.uniform(-math.pi, math.pi))
            yield (alpha, m, l), z, tol


def node_calls():
    """(triple, z, tol) with z on a node or a missing node of the contour rule."""
    for alpha, m, l in NODE_TRIPLES:
        beta = alpha * l + 1.0
        full = _triple(alpha, m, l).contour[1]
        yield (alpha, m, l), complex(full[_CONTOUR_N][0].real), 0.5
        for k in (1, 3, 8, 16):
            yield (alpha, m, l), full[_CONTOUR_N + k][0], 0.5
        for k in (17, 18):
            yield (alpha, m, l), _contour_node(alpha, beta, math.lgamma(beta), k)[0], 0.5


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for calls in (sweep_calls(), random_calls(), node_calls()):
        for triple, z, tol in calls:
            r = kilbas_saigo(KilbasSaigoParams(*triple), z, tol)
            digest.update(struct.pack("<2dqd?", r.value.real, r.value.imag, r.terms_used,
                                      r.last_term_magnitude, r.converged))
            digest.update(r.path.encode())
            count += 1
    print(f"{digest.hexdigest()}  {count} reports")


if __name__ == "__main__":
    main()
