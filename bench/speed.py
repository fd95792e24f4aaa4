"""Machine-speed reference for the benchmark's timings.

The shared 2-core host this benchmark was tuned on changes speed by up to
1.4-1.7x, in phases of seconds to tens of minutes, and the change is in
execution speed (CPU time tracks wall time), not in waiting. So a fixed
pure-Python loop, close in kind to the series loops of bihilfer (complex
exp, complex arithmetic, a call per term), is timed right before and right
after every measured command, and every SAMPLE_EVERY_S while a child command
runs. A timing is reported scaled to one reference speed:

    scaled = wall * (REFERENCE_NOMINAL_S / reference) ** share

where `reference` is the median of the loop times taken around and during
the command, and `share` the part of the workload's time that follows the
loop's speed (workloads.SPEED_SHARE). A change to bihilfer moves `wall` and
leaves `reference` alone; a change in machine speed moves both. The unscaled
figures are printed too.
"""

from __future__ import annotations

import cmath
import statistics
import time

# Loop time of reference_s() at the speed the scaled timings are quoted at:
# the typical (median) speed of the 2-core Xeon the benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.0020
_TERMS = 10000
_REPEATS = 3
# While a child runs on the same CPU, one loop (about 2 ms) every quarter
# second takes under 1% of that CPU from it. Commands shorter than this get
# no sample and are scaled by the timings around them alone.
SAMPLE_EVERY_S = 0.25


def _loop() -> complex:
    acc = 0j
    w = complex(-0.8, 0.3) / _TERMS
    for k in range(_TERMS):
        acc += cmath.exp(k * w) / (k + 1)
    return acc


def sample_s() -> float:
    """One timing of the reference loop, in seconds."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def reference_s() -> float:
    """Fastest of a few timings of the reference loop, in seconds."""
    return min(sample_s() for _ in range(_REPEATS))


def scale(wall: float, refs: list[float], share: float) -> float:
    """`wall` seconds at the reference speed, given the reference timings
    taken around and during them and the share of the time that follows the
    reference loop's speed."""
    return wall * (REFERENCE_NOMINAL_S / statistics.median(refs)) ** share
