"""The numeric policy: the shared thresholds, budgets and margins, named once.

The probing primitives (`pwl`) and the extractors (`extract2`, `extract3`)
compare measured quantities against noise estimates `k * EPS * scale`, where
`scale` is the magnitude of the values involved, most with an absolute floor.
Those factors and floors are constants here, multiplied in the left-to-right
order `k * EPS * scale / step`, so a threshold is the same float wherever it
is derived; no other module refers to `EPS`.  All work is float64.  What one
module alone uses stays private to it: probe geometry such as
`extract2._BRACKET_CAP`, `extract3._PARALLEL_SIN` and `pwl._FAR_STEP`, the
decision margins of `orthant`, and literal guards against a zero divisor.

The general-position margins say what the generators accept as a network in
general position, the class on which extraction is exact; `margins` measures
some of them.  They are fixed: the extractors size their probes from them
(`extract2` derives its step cap from `SEPARATION` and `MIN_AXIS_COSINE`), so
a network drawn under other margins could be recovered wrongly without notice.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Round-off factors, each times a value scale.
FIT_NOISE = 64.0 * EPS        # slope and extrapolation agreement of local fits
PLANE_NOISE = 1e3 * EPS       # a plane normal from two fitted maps; a bend test
KINK_NOISE = 1e4 * EPS        # a bracketed unit's slope jump
PREDICT_NOISE = 1e5 * EPS     # an affine fit predicting one stencil further out

# Absolute floors paired with the factors above.
SLOPE_FLOOR = 2e-5            # slope disagreement left by subtracted units
VALUE_FLOOR = 4e-5            # value drift per unit of extrapolation distance
CANON_FLOOR = 1e-9            # least normal norm or entry read as nonzero
NORMAL_FLOOR = 1e-9           # least norm of a fitted plane normal
JUMP_FLOOR = 1e-6             # least slope jump across a bracket
PROBE_FLOOR = 1e-4            # least bend per unit of probe step

# Checks on recovered and supplied parameters.
RESIDUAL_TOL = 1e-8           # final affine-residual check, times 1 + |f|
OUTPUT_TOL = 1e-6             # composed depth-3 network against the oracle,
                              # times 1 + |f|
DEDUP_TOL = 1e-7              # canonical hyperplane dedup distance
RANK_TOL = 1e-8               # least singular value in right_inverse
INVERSE_TOL = 1e-9            # largest entry of W M - I in right_inverse
# A first-layer row's orientation is read off the side fits of its plane: the
# slope along the row's leave-one-out direction vanishes on the inactive side.
# The smaller of the two slopes must be below this ratio of the larger.  On
# generated nets the worst accepted ratio is 2.3e-8 over (6,6,30) seeds 0-23,
# 4.0e-9 over (4,3,9) 0-29 and 1.6e-9 over (6,3,9) 0-47; the least rejected
# one is 8.1e-3, on (6,6,30) seed 19 (5.9e-3 on the near-coincident rows of
# `tests/helpers.near_coincident_rows`).  Any ratio between the two margins
# decides every one of these nets alike.
SIDE_RATIO = 1e-4
# A fold test (`pwl.is_critical_point`) reads "bends" when its second difference
# exceeds this fraction of the noise threshold tau.  Over (6,3,9) 0-47, (4,3,9)
# 0-29 and (3,2,6) 0-99 a test on a true first-layer plane reads at least 173
# tau and a rejecting test at most 5.7e-6 tau (221 and 2.8e-6 tau on the
# generator's earlier per-point probe stream).  A true plane reads far lower
# where the top barely depends on its unit: two (6,6,30) nets of that earlier
# stream, seeds 19 and [7, 18], read about 0.5 tau and failed at tau itself.
FOLD_BAND = 1e-3

# Retry and sampling budgets.
HYPERPLANE_ATTEMPTS = 8       # directions tried per critical hyperplane
REJECTION_LIMIT = 100         # the generators' per-unit resampling cap
ASSUMPTION_PROBES = 256       # sample points of the generator's derivative check

# General position: the margins every generated network meets.
AXIS_COSINE = 0.2             # least |w_i| along a unit's designated axis, so
                              # its crossing there is well conditioned
MIN_AXIS_COSINE = 5e-3        # least |w_i| along every axis, so any incidental
                              # axis crossing still bends the restriction detectably
SEPARATION = 0.05             # least gap between two crossings on one probe line
CLEARANCE = 0.05              # least distance of a crossing from the line origin
PLANE_GAP = 1e-3              # least parameter distance between two unit
                              # hyperplanes, up to orientation
SIGMA_MIN = 0.1               # least singular value of the first-layer weights
LEAVE_ONE_OUT = 0.1           # least norm of a first-layer row after projecting
                              # out the other rows, for recovering orientations
V_LOW = 0.8                   # least magnitude of a second-layer weight
V_HIGH = 1.4                  # largest magnitude of a second-layer weight
PARTIAL_MARGIN = 0.02         # least |one-sided partial| of the second-layer map
                              # over the nonnegative orthant, as sampled at
                              # ASSUMPTION_PROBES points: a wide top has more
                              # activation cells than that, so the margin is
                              # sampled, not enforced
LINE_WINDOW = 50.0            # every positive crossing of a depth-3 second-layer
                              # unit with a hidden axis ray lies within this t
# Every positive axis-ray crossing of a depth-2 unit lies within this t, and
# SEPARATION holds among all of them.  Crossings near the origin keep function
# values at the recovery probes small, which keeps the phantom kinks left by
# subtracting recovered units below the scanner's slope floor.
AXIS_WINDOW = 50.0
