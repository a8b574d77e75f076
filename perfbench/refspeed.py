"""How fast the host runs right now, from a fixed reference workload.

The shared host this benchmark runs on changes speed by up to a factor of
two, in phases of seconds to minutes, with CPU time tracking wall time (the
slow-down is in the core, not in scheduling).  A run of half a minute can
sit wholly in a slow or a fast phase, so raw wall times of runs minutes
apart disagree by more than any useful regression bound.

`probe()` times a fixed mix of the three kinds of work netpeel's operations
are made of (interpreted Python, small numpy arrays, small HiGHS LPs),
none of it from the package, and returns its time relative to a nominal
time per kind.  Timing the probe around each operation and dividing the
operation's wall time by the probe's ratio gives the operation's time at
nominal host speed.  A change to the package does not move the probe, so a
change that slows the package raises the normalised time in proportion.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import linprog

# Nominal seconds of each part: what it took on a 2-vCPU VM (Python 3.11,
# numpy 2.4, scipy 1.17) in a fast phase.  Their values only set the scale.
NOMINAL_PY_S = 0.0065
NOMINAL_NUMPY_S = 0.0110
NOMINAL_LP_S = 0.0085

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((32, 10))
_B = _RNG.standard_normal(32)
_V = _RNG.standard_normal(32)
_A_UB = _RNG.standard_normal((30, 3))


def _python_part() -> float:
    table: dict[int, int] = {}
    t0 = perf_counter()
    for i in range(30_000):
        k = i & 255
        table[k] = table.get(k, 0) + (i * 3) % 7
    return perf_counter() - t0


def _numpy_part() -> float:
    x = np.ones(10)
    t0 = perf_counter()
    for _ in range(1_500):
        h = np.maximum(_W @ x + _B, 0.0)
        x = x * (1.0 + 1e-9 * float(_V @ h))
    return perf_counter() - t0


def _lp_part() -> float:
    t0 = perf_counter()
    for _ in range(4):
        linprog(np.zeros(3), A_ub=_A_UB, b_ub=-0.1 * np.ones(30),
                bounds=[(None, 0.0)] * 3, method="highs")
    return perf_counter() - t0


def probe() -> float:
    """The host's current slow-down against nominal: 1.0 at nominal speed."""
    return (_python_part() / NOMINAL_PY_S + _numpy_part() / NOMINAL_NUMPY_S
            + _lp_part() / NOMINAL_LP_S) / 3.0
