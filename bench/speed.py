"""Host speed probe, for reporting times at one reference speed.

The benchmark's hosts share their cores, and their speed drifts by a quarter
over tens of seconds; nefkit's pure-Python work drifts with it. A fixed
kernel of Fraction and big-integer arithmetic, timed beside the work, gives
the factor by which each measured time is rescaled to a host on which the
kernel takes CAL_REF_NS. The kernel touches no nefkit code.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

CAL_REF_NS = 400_000


def calibrate() -> int:
    """Nanoseconds taken by the fixed kernel."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 1)
    coeffs = [comb(80, k) for k in range(61)]
    for d in (2, 3, 5, 7, 9, 4, 6, 8):
        for k in range(1, 61):
            coeffs[k] -= d * coeffs[k - 1]
    return time.perf_counter_ns() - start


def median(values: list[float]) -> float:
    """Median, without the statistics module: the workload process leaves it
    unimported so that its peak RSS stays close to nefkit's own."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def probe(count: int = 5) -> float:
    """Median of several kernel runs, after one discarded run."""
    calibrate()
    return median([calibrate() for _ in range(count)])


def block_factors(probes_ns: list[float]) -> list[float]:
    """Rescaling factor per block of operations between two probes:
    reference time over the median of the probes nearest the block."""
    return [
        CAL_REF_NS / median(probes_ns[max(0, b - 2):b + 4])
        for b in range(len(probes_ns) - 1)
    ]
