"""Piecewise-linear probing primitives.

Everything here sees the target only through a `QueryOracle`, or through a
function t -> value restricting one to a line (`axis_ray`) together with an
explicit window.  The primitives:

* reconstruct the local affine map around a point (d+1 queries),
* find the leftmost slope break of a 1-D restriction by intersecting the
  lines fitted at the ends of a window, bisecting where that test fails,
* sweep a line for its slope breaks, left to right, resumably,
* reconstruct the hyperplane a break lies on from the two adjacent
  affine maps,
* test whether a point sits on a break at all.

Tolerances are scale-aware: a fitted slope carries absolute error of order
eps * |f| / step, and a line extrapolated over distance D carries that error
times D.  The comparison thresholds below track both terms explicitly, so the
same code works at step sizes from 1e-4 down to 1e-8.  The factors and
floors are the numeric policy of `config`.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import (
    CANON_FLOOR,
    FIT_NOISE,
    FOLD_BAND,
    HYPERPLANE_ATTEMPTS,
    NORMAL_FLOOR,
    PLANE_NOISE,
    PREDICT_NOISE,
    PROBE_FLOOR,
    SLOPE_FLOOR,
    VALUE_FLOOR,
)
from .oracle.nets import AffineMap
from .oracle.query import DOMAIN_NONNEG


class GeneralPositionError(RuntimeError):
    """The target violates an isolation assumption the algorithm needs."""


class PieceBudgetError(RuntimeError):
    """More pieces were found than the caller's budget allows."""


def reconstruct_affine(oracle, x, delta: float) -> AffineMap:
    """Affine map agreeing with the oracle near `x`; exactly d+1 queries.

    The caller guarantees the oracle is affine on the probed points
    (x and x + delta*e_i); there is no way to detect a violation locally.
    One probe buffer is bumped along each coordinate in turn and restored,
    so the oracle must not keep the array it is handed.  The coordinates of
    `x` are read once as Python floats, so the loop reads no numpy scalar
    out of the probe; Python and numpy round the steps alike.
    """
    x = np.asarray(x, dtype=float)
    f0 = oracle.query(x)
    probe = x.copy()
    w = np.empty(x.size)
    for i, xi in enumerate(x.tolist()):
        probe[i] = xi + delta
        w[i] = (oracle.query(probe) - f0) / delta
        probe[i] = xi
    return AffineMap(w, f0 - float(w.dot(x)))


class _LocalLine(NamedTuple):
    t0: float
    f0: float
    slope: float
    scale: float

    def value(self, t: float) -> float:
        return self.f0 + self.slope * (t - self.t0)


def _fit_local(line, t: float, delta: float) -> _LocalLine:
    f0 = float(line(t))
    f1 = float(line(t + delta))
    return _LocalLine(t, f0, (f1 - f0) / delta, 1.0 + max(abs(f0), abs(f1)))


def _slope_tol(scale: float, delta: float) -> float:
    """Largest slope disagreement still read as "same piece".

    The scale term covers cancellation in the finite differences themselves.
    The absolute floor additionally covers callers that probe a residual
    after subtracting imperfectly recovered units: each subtraction leaves a
    phantom kink whose jump is the recovery error, orders of magnitude below
    any real unit's contribution but not always below pure roundoff.
    """
    return max(FIT_NOISE * scale / delta, SLOPE_FLOOR)


def _value_tol(anchor: _LocalLine, dist: float, local_scale: float, delta: float) -> float:
    """Largest extrapolation disagreement still read as "same piece".

    Phantom kinks (see _slope_tol) integrate into value drift proportional
    to the extrapolation distance, hence the floor grows with it.  Genuine
    breaks never hide under either floor: the restriction of a ReLU sum is
    continuous, so a break always shows up as a slope jump, and the
    generators keep those jumps far above the floors.
    """
    noise = FIT_NOISE * (anchor.scale * (1.0 + abs(dist) / delta) + local_scale)
    return max(noise, VALUE_FLOOR * (1.0 + abs(dist)))


def _same_piece(anchor: _LocalLine, local: _LocalLine, delta: float) -> bool:
    """Do two local fits lie on one affine piece, by extrapolated value and slope?"""
    dist = local.t0 - anchor.t0
    value_ok = abs(local.f0 - anchor.value(local.t0)) <= _value_tol(
        anchor, dist, local.scale, delta)
    slope_ok = abs(local.slope - anchor.slope) <= _slope_tol(
        max(anchor.scale, local.scale), delta)
    return value_ok and slope_ok


def _crossing(left: _LocalLine, right: _LocalLine, t: float) -> float:
    """Where the lines of two fits meet, solved around `t`; inf when parallel."""
    gap = right.slope - left.slope
    if gap == 0.0:
        return math.inf
    return t + (left.value(t) - right.value(t)) / gap


def leftmost_critical_point_1d(line, delta: float, window) -> float | None:
    """Leftmost slope break of a piecewise-linear 1-D function on `window`, or None.

    Fits a local line at each end of the window (4 queries); when both lie on
    one piece the window holds no break.  Otherwise the search keeps an
    anchor fit left of the first break and a far fit right of it, and
    alternates two kinds of round, after Carlini, Jagielski and Mironov
    (CRYPTO 2020).  An intersection round probes where the anchor and far
    lines cross, t*: a fit at t* - 2 delta on the anchor's piece and one at
    t* + delta on the far fit's piece bracket the one break between them in
    4 delta.  A midpoint round probes the middle of the window, as in
    bisection.  A probe on the anchor's piece becomes the new anchor, any
    other the new far fit.  "On one piece" means agreement in extrapolated
    value and in slope: near t* the two lines agree in value by
    construction.  A window with one break is settled by the first
    intersection round, so its count does not grow with log(1/delta).  Ends
    with the intersection of the fits flanking the localized break.

    Preconditions (caller's responsibility): every linear piece inside the
    window is at least a few delta long, the piece at the window's left edge
    extends at least delta past the edge, and adjacent pieces have visibly
    different affine maps.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi - lo <= 4 * delta:
        return None
    anchor = _fit_local(line, lo, delta)
    far = _fit_local(line, hi - delta, delta)
    if _same_piece(anchor, far, delta):
        return None
    cap = 2 * (math.ceil(math.log2(max((hi - lo) / delta, 8.0))) + 16)
    rounds = 0
    cross = True
    while hi - lo > 4 * delta:
        rounds += 1
        if rounds > cap:
            raise GeneralPositionError("bisection failed to converge")
        t = _crossing(anchor, far, (lo + hi) / 2.0)
        if cross and lo < t - 2 * delta and t + 2 * delta <= hi:
            cross = False
            left = _fit_local(line, t - 2 * delta, delta)
            if not _same_piece(anchor, left, delta):
                hi, far = t - delta, left
                continue
            lo, anchor = t - 2 * delta, left
            right = _fit_local(line, t + delta, delta)
            if _same_piece(far, right, delta):
                hi = t + 2 * delta
                break
            if _same_piece(anchor, right, delta):
                lo, anchor = t + delta, right
            else:
                hi, far = t + 2 * delta, right
            continue
        mid = (lo + hi) / 2.0
        local = _fit_local(line, mid, delta)
        if _same_piece(anchor, local, delta):
            lo, anchor = mid, local
        else:
            hi, far = min(hi, mid + delta), local
        cross = True

    right = _fit_local(line, hi + delta / 2.0, delta / 2.0)
    gap = right.slope - anchor.slope
    if abs(gap) <= 4.0 * _slope_tol(max(anchor.scale, right.scale), delta):
        raise GeneralPositionError("pieces share affine function")
    t_star = _crossing(anchor, right, (lo + hi) / 2.0)
    if not (lo - 2 * delta <= t_star <= hi + 2 * delta):
        raise GeneralPositionError("pieces share affine function")
    return float(t_star)


# Far from the origin the oracle's evaluation noise grows with the summed
# unit magnitudes, which cancellation can hide from |f|, so a fixed probe step
# eventually reads noise as slope.  The sweep's step grows with |t| at this rate.
_FAR_STEP = 1e-6


def sweep_step(delta: float, t: float) -> float:
    """The sweep's probe step at magnitude |t|; it resolves breaks to 4 steps."""
    return max(delta, _FAR_STEP * abs(t))


def iter_critical_points_1d(line, delta: float, window):
    """Slope breaks on `window`, left to right, by resumable leftmost search.

    The window is cut at powers-of-16 magnitudes and each block is searched
    with step `sweep_step(delta, m)`, where m is the smallest |t| the
    search covers (0 for a block that straddles 0): breaks of interest live
    at moderate |t| and keep the requested resolution, while the far blocks
    only confirm emptiness.  After each break the search resumes delta/2
    past it, so a caller that stops early pays for no search it did not use.

    The sweep reads each t once: its values are kept, keyed by t, for as
    long as the sweep runs.  A resumed search reuses the far fit it ended
    on, and neighbouring blocks share their edge point.
    """
    values: dict[float, float] = {}

    def read(t: float) -> float:
        value = values.get(t)
        if value is None:
            value = values[t] = line(t)
        return value

    lo, hi = float(window[0]), float(window[1])
    edges = set()
    s = 16.0
    bound = max(abs(lo), abs(hi))
    while s < bound:
        for e in (-s, s):
            if lo < e < hi:
                edges.add(e)
        s *= 16.0
    cuts = [lo, *sorted(edges), hi]
    cursor = lo
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        while True:
            start = max(cursor, seg_lo)
            near = 0.0 if start <= 0.0 <= seg_hi else min(abs(start), abs(seg_hi))
            step = sweep_step(delta, near)
            if seg_hi - start <= 4 * step:
                break
            t = leftmost_critical_point_1d(read, step, (start, seg_hi))
            if t is None:
                break
            yield t
            cursor = t + delta / 2.0


def all_critical_points_1d(line, delta: float, k_max: int, window) -> list[float]:
    """All slope breaks on `window`, sorted: the budgeted list form of the sweep.

    Raises PieceBudgetError when more than `k_max` breaks turn up.
    """
    found: list[float] = []
    for t in iter_critical_points_1d(line, delta, window):
        found.append(t)
        if len(found) > k_max:
            raise PieceBudgetError("piece budget exceeded")
    return found


def _inward(e: np.ndarray, x: np.ndarray, reach: float, nonneg: bool) -> np.ndarray | None:
    """Zero the components that would push a probe out of the orthant."""
    if not nonneg:
        return e
    e = e.copy()
    e[x < reach] = 0.0
    n = math.sqrt(e.dot(e))
    if n < 1e-12:
        return None
    return e / n


def is_critical_point(oracle, x, direction, delta: float) -> bool:
    """Does the function bend within `delta` of `x` along the unit `direction`?

    Exactly 3 queries: the second difference of f at x +/- delta*direction
    against `FOLD_BAND` times a threshold tau covering rounding noise at the
    local value scale.  Across a ReLU boundary the gradient jumps along the
    boundary's normal, so probing along that normal sees the whole jump; a
    jump the next layer barely passes on still reads well above the band.
    """
    x = np.asarray(x, dtype=float)
    f0 = oracle.query(x)
    tau = max(PLANE_NOISE * (1.0 + abs(f0)), PROBE_FLOOR * delta)
    step = delta * np.asarray(direction, dtype=float)
    return abs(oracle.query(x + step) + oracle.query(x - step) - 2.0 * f0) > FOLD_BAND * tau


def _canonical(normal: np.ndarray, offset: float) -> tuple[np.ndarray, float]:
    """Orient a plane so its first entry above `CANON_FLOOR` is positive."""
    for v in normal:
        if abs(v) > CANON_FLOOR:
            if v < 0:
                return -normal, -offset
            break
    return normal, offset


def reconstruct_critical_hyperplane(
    oracle,
    x,
    delta: float,
    rng,
    *,
    radius: float,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Unit normal, offset and side gradients of the hyperplane through the
    slope break at `x`.

    The plane is {y : normal . y + offset = 0}, oriented so the normal's
    first entry above `CANON_FLOOR` is positive.  The gradients are those of
    the two accepted fits as a (2, d) array, the first row being the fit
    whose base lies where normal . y + offset > 0.

    Reconstructs the affine maps on both sides (bases x +/- radius*e for a
    random direction e) and takes the null set of their difference.  Each
    side is cross-checked by predicting the function one step further out;
    a failed check means the probes straddled a second break, and a fresh
    direction is drawn.  O(d) queries per attempt.

    The finite-difference step of the affine fits is a quarter of the
    attempt's radius.  Callers working against well-separated breaks can
    pass a radius well above delta: the slope error of a fit shrinks
    linearly in the step, and the cross-check still catches a straddle.
    After two failed attempts the radius halves on each retry (never below
    min(radius, 2 delta)), trading precision for isolation when the
    generous radius keeps hitting a second break.
    """
    x = np.asarray(x, dtype=float)
    nonneg = oracle.domain == DOMAIN_NONNEG
    d = x.size
    for attempt in range(HYPERPLANE_ATTEMPTS):
        shrink = 0.5 ** max(0, attempt - 1)
        r_a = max(radius * shrink, min(radius, 2.0 * delta))
        s_a = r_a / 4.0
        e = rng.standard_normal(d)
        e /= math.sqrt(e.dot(e))
        e = _inward(e, x, 2.0 * r_a + 2.0 * s_a, nonneg)
        if e is None:
            raise GeneralPositionError("no hyperplane detected")
        maps = []
        ok = True
        for side in (1.0, -1.0):
            base = x + side * r_a * e
            lam = reconstruct_affine(oracle, base, s_a)
            probe = x + side * 2.0 * r_a * e
            scale = 1.0 + abs(lam.b) + float(np.abs(lam.w) @ np.abs(probe))
            if abs(lam(probe) - oracle.query(probe)) > PREDICT_NOISE * scale:
                ok = False
                break
            maps.append(lam)
        if not ok:
            continue
        dw = maps[0].w - maps[1].w
        db = maps[0].b - maps[1].b
        norm = math.sqrt(dw.dot(dw))
        noise = PLANE_NOISE * (1.0 + abs(maps[0].b) + abs(maps[1].b)) * math.sqrt(d) / s_a
        if norm <= max(noise, NORMAL_FLOOR):
            continue
        normal, offset = dw / norm, float(db / norm)
        if abs(float(normal @ x + offset)) > r_a:
            continue
        normal, offset = _canonical(normal, offset)
        grads = np.array([maps[0].w, maps[1].w])
        if float(normal @ (x + r_a * e) + offset) < 0.0:
            grads = grads[::-1]
        return normal, offset, grads
    raise GeneralPositionError("no hyperplane detected")
