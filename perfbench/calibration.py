"""Machine-speed calibration for the end-to-end times.

The benchmark runs on hosts whose CPUs are shared with other work, and
their speed drifts by tens of percent over a few seconds. A run therefore
interleaves a fixed task (Python-level complex arithmetic and a 16 x 16
SVD, the instruction mix of the program) with the workload calls, and
scales the time of each call by REFERENCE_S over the mean task time
sampled just before and just after it. The end-to-end times then read as
they would at the reference speed; the raw times are printed too.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 8.0e-5    # task time the scaled times refer to (a quiet 2-CPU host)
SEGMENT_S = 0.02        # measured time between two samples, at least
SHARE = 0.2             # sampling time per second of measured time
MIN_SAMPLE_S = 0.002

_MATRIX = np.random.default_rng(0).normal(size=(16, 16)) + 0j


def task():
    acc = 0j
    for p in range(12):
        for q in range(12):
            if p != q:
                acc += complex(p, q) * 0.5
    np.linalg.svd(_MATRIX, compute_uv=False)
    return acc


def sample(budget):
    """Mean task time over repetitions that take at least budget seconds."""
    runs, start = 0, perf_counter()
    while True:
        task()
        runs += 1
        elapsed = perf_counter() - start
        if elapsed >= budget:
            return elapsed / runs


class Gauge:
    """Scale factors for measured intervals, from samples on each side."""

    def __init__(self):
        self.last = sample(10 * MIN_SAMPLE_S)

    def factor(self, measured):
        """Scale for an interval of `measured` seconds that just ended."""
        now = sample(max(MIN_SAMPLE_S, SHARE * measured))
        scale = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return scale
