"""The numeric policy: every round-off threshold and retry budget, named once.

The probing primitives (`pwl`) and the extractors (`extract2`, `extract3`)
compare measured quantities against noise estimates of the form
`k * EPS * scale`, where `scale` is the magnitude of the values involved, and
most comparisons also carry an absolute floor.  Each factor `k * EPS` and
each floor is a constant here; the modules that use them multiply in the
same left-to-right order as `k * EPS * scale / step`, so every threshold is
the same float wherever it is derived.  No other module refers to `EPS`.
All floating point work is float64.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Round-off factors, each times a value scale.
FIT_NOISE = 64.0 * EPS        # slope and extrapolation agreement of local fits
PLANE_NOISE = 1e3 * EPS       # a plane normal from two fitted maps; a bend test
KINK_NOISE = 1e4 * EPS        # a bracketed unit's jump and bend; a sign probe's move
PREDICT_NOISE = 1e5 * EPS     # an affine fit predicting one stencil further out

# Absolute floors paired with the factors above.
SLOPE_FLOOR = 2e-5            # slope disagreement left by subtracted units
VALUE_FLOOR = 4e-5            # value drift per unit of extrapolation distance
CANON_FLOOR = 1e-9            # least normal norm or entry read as nonzero
NORMAL_FLOOR = 1e-9           # least norm of a fitted plane normal
JUMP_FLOOR = 1e-6             # least slope jump across a bracket
PROBE_FLOOR = 1e-4            # least bend or move per unit of probe step

# Checks on recovered and supplied parameters.
RESIDUAL_TOL = 1e-8           # final affine-residual check, times 1 + |f|
DEDUP_TOL = 1e-7              # canonical hyperplane dedup distance
RANK_TOL = 1e-8               # least singular value in right_inverse
INVERSE_TOL = 1e-9            # largest entry of W M - I in right_inverse

# Retry and sampling budgets.
BEND_DIRECTIONS = 8           # random directions per criticality test
HYPERPLANE_ATTEMPTS = 8       # directions tried per critical hyperplane
SIGN_ATTEMPTS = 32            # probe points tried per first-layer sign
REJECTION_LIMIT = 100         # the generators' per-unit resampling cap
ASSUMPTION_PROBES = 256       # sample points of the generator's derivative check
