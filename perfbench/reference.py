"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the same campaign runs up to half again as slow while
other tenants load the cores, and such spells last from seconds to minutes,
so raw wall times from runs minutes apart disagree by more than any bound
worth setting. The benchmark therefore times this kernel between planning
periods and scales each measured time by ``REFERENCE_S / kernel time``:
the result is the time the program would have taken on a machine where
the kernel takes ``REFERENCE_S``. The kernel mixes the kinds of work the
planner does (interpreted loops, tuple and dict building, a small HiGHS
call, dense numpy algebra) and runs with the garbage collector paused, so
the size of the planner's heap does not leak into it. It lives in the
benchmark, never in the program, so a change to the program cannot move it.
"""
from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

# About the kernel's median time on one 2 GHz Intel Xeon (Sapphire Rapids)
# vCPU; any fixed value would do, this one keeps scaled times near raw ones.
REFERENCE_S = 0.006

_rng = np.random.default_rng(0)
_COST = -_rng.integers(1, 30, 30).astype(float)
_ROWS = LinearConstraint(_rng.integers(1, 20, (4, 30)).astype(float), -np.inf, 60.0)
_BOUNDS = Bounds(0.0, 1.0)
_MATRIX = _rng.random((120, 120))


def _work() -> float:
    total = 0
    for i in range(25_000):
        total += i * i % 7
    table = {(i % 97, i): i for i in range(3_000)}
    lp = milp(_COST, constraints=_ROWS, integrality=np.zeros(30), bounds=_BOUNDS)
    x = _MATRIX
    for _ in range(4):
        x = (x @ _MATRIX) / 120.0
    return total + len(table) + lp.fun + float(x[0, 0])


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def speed(runs: int = 5) -> float:
    """``REFERENCE_S`` over the median of ``runs`` kernel times, after one
    untimed warm-up run: multiply a wall time by it to scale it."""
    _work()
    return REFERENCE_S / statistics.median(kernel_s() for _ in range(runs))
