"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by 20-40% over
minutes.  Each timing is taken next to a run of this kernel and scaled
by NOMINAL_S / kernel time, which turns it into seconds on a host where
the kernel takes NOMINAL_S.  The kernel mirrors the engine's hot loop
(sparse products of monomial-keyed dicts of Fractions) and is part of
the benchmark, not of polyvec, so it measures the host and never the
code under test.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.1
_REPS = 20
_A = {(i % 5, i % 3, i % 7, i % 2): Fraction(i - 11, i % 4 + 1) for i in range(24)}
_B = {(i % 3, i % 7, i % 5, i % 2): Fraction(7 - i, i % 5 + 2) for i in range(24)}


def kernel_seconds() -> float:
    """Wall time of one fixed batch of sparse Fraction products."""
    started = time.perf_counter()
    for _ in range(_REPS):
        out: dict = {}
        for ka, ca in _A.items():
            for kb, cb in _B.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                value = out.get(key, 0) + ca * cb
                if value:
                    out[key] = value
                else:
                    out.pop(key, None)
    return time.perf_counter() - started


def speed_factor() -> float:
    """NOMINAL_S over the kernel's time now: multiply a timing by it."""
    return NOMINAL_S / kernel_seconds()
