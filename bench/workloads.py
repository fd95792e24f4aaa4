"""Inputs of the three workloads, built from the seed alone.

cli-session and verify-fine run fixed CLI commands; the seed picks which
table rows the oracle checks. ks-sweep evaluates a fixed pool of reused
(alpha, m, l) triples at fixed points, plus fresh triples and points drawn
from the seed. A small variant of every workload backs the smoke mode.
"""

from __future__ import annotations

import math
import random

import numpy as np

# Seeded subsample of fundamental/solve rows compared against the oracle.
ROWS_CHECKED = 64

# Seconds one session takes at the reference speed of speed.py: a --version
# child and the workload's commands, or one ks-sweep child of 24 passes. The
# trace makes an untraced and a traced in-process child per session instead.
# A run makes as many sessions as fit in --seconds at that speed, so what it
# runs and checks depends on the seed and --seconds alone, not on how fast
# the machine happened to be.
SESSION_S = {"cli-session": 1.6, "verify-fine": 5.2, "ks-sweep": 1.8}
TRACE_SESSION_S = {"cli-session": 1.9, "verify-fine": 12.0, "ks-sweep": 4.0}


# Share of a command's time that speeds up and slows down with the reference
# loop of speed.py, the exponent of its scaling. ks-sweep and the CLI
# commands are interpreted Python, start-up included. verify-fine at 32768
# points spends about 40% of its time in np.convolve (the O(n^2) quadrature),
# whose speed on a shared host does not follow that of interpreted code; on
# the 2-core Xeon the benchmark was tuned on, its run-to-run spread was least
# at 0.6, in two separate sets of runs, and a trace puts 61% of its time in
# the Python series loops.
SPEED_SHARE = {"cli-session": 1.0, "verify-fine": 0.6, "ks-sweep": 1.0}


def session_count(workload: str, seconds: float, trace: bool) -> int:
    return max(1, int(seconds / (TRACE_SESSION_S if trace else SESSION_S)[workload]))

_PROBLEM_I2 = ["--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
               "--lambda-re", "-2", "--lambda-im", "1"]


def _problem(alpha, beta, mu, i, m, lam):
    """Series data of the paper's solutions: gamma, a, b_s and the
    Kilbas-Saigo triple of each branch."""
    gamma = beta + mu * (alpha - beta)
    a = m + gamma
    b = [s - (1.0 - mu) * (i - beta) for s in range(i)]
    triples = [(gamma, a / gamma, (a + bs) / gamma - 1.0) for bs in b]
    return {"lam": lam, "a": a, "b": b, "triples": triples}


def cli_commands(workload: str, smoke: bool) -> list[dict]:
    """The commands of one session, each with what its output is checked against."""
    pts = 128 if smoke else 4096
    if workload == "verify-fine":
        return [{"kind": "verify", "args": ["verify", *_PROBLEM_I2, "--phis", "1,0.5", "--y-max", "2",
                                            "--points", "256" if smoke else "32768"]}]
    zpts = 41 if smoke else 401
    return [
        {"kind": "eval-ks", "triple": (0.5, 1.0, 0.0), "z": list(np.linspace(-8.0, 4.0, zpts)),
         "args": ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z-min", "-8", "--z-max", "4",
                  "--z-points", str(zpts)]},
        {"kind": "table", "problem": _problem(0.5, 0.5, 1.0, 1, 0.0, complex(-1.0, 0.0)),
         "phis": [1.0], "y_max": 4.0, "points": pts,
         "args": ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1", "--m", "0",
                  "--lambda-re", "-1", "--y-max", "4", "--points", str(pts)]},
        {"kind": "table", "problem": _problem(1.5, 1.25, 0.5, 2, 0.5, complex(-2.0, 1.0)),
         "phis": [1.0, 0.5], "y_max": 2.0, "points": pts,
         "args": ["solve", *_PROBLEM_I2, "--phis", "1,0.5", "--y-max", "2", "--points", str(pts)]},
        {"kind": "verify", "args": ["verify", *_PROBLEM_I2, "--phis", "1,0.5", "--y-max", "2",
                                    *(["--points", "64"] if smoke else [])]},
    ]


def table_rows(cmd: dict, seed: int) -> list[int]:
    """Indices of the table rows the oracle checks, drawn from the seed."""
    n = cmd["points"]
    return sorted(random.Random(f"{seed}:{cmd['args'][0]}").sample(range(n), min(ROWS_CHECKED, n)))


def table_reference_requests(cmd: dict, rows: list[int]) -> dict:
    """Kilbas-Saigo evaluations the oracle needs for the chosen rows:
    u(y) = sum_s phi_s/s! * y^{b_s} * E_s(lambda y^a)."""
    prob = cmd["problem"]
    h = cmd["y_max"] / cmd["points"]
    req: dict = {}
    for r in rows:
        y = h * (r + 1)
        for triple in prob["triples"]:
            req.setdefault(triple, []).append(prob["lam"] * y ** prob["a"])
    return req


def table_reference(cmd: dict, rows: list[int], ref: dict) -> list[complex]:
    prob = cmd["problem"]
    h = cmd["y_max"] / cmd["points"]
    out = []
    for r in rows:
        y = h * (r + 1)
        z = prob["lam"] * y ** prob["a"]
        out.append(sum(phi / math.factorial(s) * y ** bs * ref[(triple, z)]
                       for s, (phi, bs, triple) in enumerate(zip(cmd["phis"], prob["b"], prob["triples"]))))
    return out


POOL = [
    (0.5, 1.0, 0.0),
    (0.3, 1.0, 0.0),
    (1.0, 1.0, 0.0),
    (2.0, 1.0, 0.0),
    (0.75, 1.25, 0.5),
    (1.5, 0.8, -0.2),
    (0.6, 2.0, 1.0),
    (1.2, 0.6, 0.3),
]


def _pool_points(smoke: bool) -> list[complex]:
    if smoke:
        return [complex(x) for x in (-3.0, -1.0, 0.5, 2.0)] + [complex(1.0, 1.5)]
    neg = [complex(x) for x in np.linspace(-8.0, -0.25, 32)]
    pos = [complex(x) for x in np.linspace(0.25, 4.0, 16)]
    ring = [complex(r * math.cos(t), r * math.sin(t))
            for r, t in zip(np.linspace(0.5, 6.0, 16), np.linspace(0.15, math.pi - 0.15, 16))]
    return neg + pos + ring


def ks_inputs(seed: int, smoke: bool) -> dict:
    """Pool and per-pass fresh triples of one ks-sweep session. Every session
    is a new process, so each fresh triple fills its coefficient cache once
    per session while pool triples are read from the cache after pass 0."""
    rng = random.Random(seed)
    passes = 2 if smoke else 24
    pool = POOL[:2] if smoke else POOL
    points = _pool_points(smoke)
    fresh = []
    for _ in range(passes):
        alpha = round(rng.uniform(0.45, 1.6), 4)
        triple = (alpha, round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(-0.5, 1.0), 4))
        zs = [complex(-rng.uniform(0.1, 8.0)) for _ in range(3)] + [complex(rng.uniform(0.1, 4.0))]
        for _ in range(2):
            r, t = rng.uniform(0.5, 6.0), rng.uniform(0.1, math.pi - 0.1)
            zs.append(complex(r * math.cos(t), r * math.sin(t)))
        fresh.append([triple, zs])
    return {"passes": passes, "pool": [[t, points] for t in pool], "fresh": fresh}


def ks_sequence(inputs: dict) -> list[tuple[tuple, complex, bool]]:
    """(triple, z, is_fresh) of every evaluation in session order."""
    seq = []
    for p in range(inputs["passes"]):
        for triple, zs in inputs["pool"]:
            seq.extend((tuple(triple), z, False) for z in zs)
        triple, zs = inputs["fresh"][p]
        seq.extend((tuple(triple), z, True) for z in zs)
    return seq
