"""Shared numeric constants: geometric tolerances and retry budgets.

`Tolerances` holds the thresholds that network validation, hyperplane
deduplication and right inversion share; `Budgets` holds the generators'
rejection and sampling limits.  The probing primitives and extractors keep
their scale-aware thresholds next to the code that derives them.  All
floating point work is float64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Geometric thresholds shared across modules."""

    unit_norm: float = 1e-12      # accepted deviation of a unit normal
    dedup: float = 1e-7           # canonical hyperplane dedup distance
    rank: float = 1e-8            # rank decisions in right_inverse


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Budgets:
    """Rejection and sampling limits used by the generators."""

    rejection_limit: int = 100        # per-unit resampling cap in generators
    assumption_probes: int = 256      # sample points for the derivative check


DEFAULT_BUDGETS = Budgets()
