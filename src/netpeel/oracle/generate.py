"""Random test networks with verified recovery margins.

Extraction is exact only in general position (see `margins`).  Each generator
places crossings constructively and rejects draws that miss a margin: the
fixed constants of `config` are the pass marks, and `margins` measures the
plane gap and the conditioning of a depth-3 first layer.

All randomness flows through a caller-supplied `numpy.random.Generator`.
"""
from __future__ import annotations

import math

import numpy as np

from ..config import (
    ASSUMPTION_PROBES,
    AXIS_COSINE,
    AXIS_WINDOW,
    CLEARANCE,
    JUMP_MARGIN,
    LEAVE_ONE_OUT,
    LINE_WINDOW,
    MIN_AXIS_COSINE,
    PARTIAL_MARGIN,
    PLANE_GAP,
    REJECTION_LIMIT,
    SEPARATION,
    SIGMA_MIN,
    V_HIGH,
    V_LOW,
)
from ..margins import leave_one_out, least_singular_value, plane_gap
from ..orthant import (
    _LP_MARGIN,
    _SCREEN_MARGIN,
    hits,
    linprog,  # noqa: F401 - bound for `TRACED_LOCAL` in perfbench/spans.py
)
from .nets import ThreeLayerNet, TwoLayerNet, relu


# Designated axis crossings of the depth-2 units are drawn from this range.
_CROSSING_LO = 0.5
_CROSSING_HI = 9.5
# Random signs are drawn by index into this array, which consumes the same
# stream as `rng.choice((-1.0, 1.0), size=n)` and gives the same values.
_SIGNS = np.array([-1.0, 1.0])


class GenerationError(RuntimeError):
    """Could not produce a network meeting the margins within the retry budget."""


def _unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        n = math.sqrt(v.dot(v))
        if n > 1e-6:
            return v / n


def _positive_axis_crossings(w, b, window: float) -> list[tuple[int, float]]:
    """Crossings of {w.x + b = 0} with the rays {t e_i : t > 0}, t <= window."""
    out = []
    for i, wi in enumerate(w):
        if abs(wi) < 1e-9:
            continue
        t = -b / wi
        if 0.0 < t <= window:
            out.append((i, float(t)))
    return out


def _crossing_conflict(cands, accepted) -> bool:
    for axis, t in cands:
        if t < CLEARANCE:
            return True
        for axis2, t2 in accepted:
            if axis == axis2 and abs(t - t2) < SEPARATION:
                return True
    return False


def generate_two_layer(d: int, d1: int, rng: np.random.Generator) -> TwoLayerNet:
    """Sum of `d1` signed ReLU units over `R^d`, probed on the nonnegative orthant.

    Unit `j` is guaranteed to cross the axis ray `t e_{j mod d}` somewhere in
    `[0.5, 9.5]`, and every crossing of every unit with every axis ray is
    isolated per `SEPARATION` and `CLEARANCE`.  The orientation of each
    `(w, b)` pair is symmetric about zero, so recovery sees both unit
    orientations.
    """
    rows, offs, signs = np.empty((d1, d)), np.empty(d1), np.empty(d1)
    taken: list[tuple[int, float]] = []
    for j in range(d1):
        axis = j % d
        for _ in range(REJECTION_LIMIT):
            w = _unit_vector(rng, d)
            if abs(w[axis]) < AXIS_COSINE:
                continue
            if float(np.min(np.abs(w))) < MIN_AXIS_COSINE:
                continue
            t = rng.uniform(_CROSSING_LO, _CROSSING_HI)
            b = -t * w[axis]
            if plane_gap(w, b, rows[:j], offs[:j]) < PLANE_GAP:
                continue
            cands = _positive_axis_crossings(w, b, np.inf)
            if any(t > AXIS_WINDOW for _, t in cands):
                continue
            if _crossing_conflict(cands, taken):
                continue
            rows[j], offs[j], signs[j] = w, b, (-1, 1)[rng.integers(2)]
            taken.extend(cands)
            break
        else:
            raise GenerationError(
                f"two-layer unit {j}: no draw met the margins in "
                f"{REJECTION_LIMIT} tries"
            )
    return TwoLayerNet(rows, offs, signs)


# Scales of the random probe points of the pattern walk; one is drawn per
# point by index, which consumes the same stream as `rng.choice(_SCALES)`.
_SCALES = np.array([0.5, 2.0, 8.0])
# Magnitudes of the fixed probe points placed on each hidden axis.
_AXIS_STEPS = np.array([0.3, 1.0, 3.0, 8.0])


def _orthant_reachable(V, c) -> bool:
    """True when some y >= 0 drives every second-layer pre-activation negative.

    The question is whether V y + c < 0 has a solution y >= 0, and two steps
    answer it, the second only where the first is unsure:

    1. When every c_k is below -(`_LP_MARGIN` + `_SCREEN_MARGIN`), y = 0
       already reaches.  This certificate needs no kernel and no solver.
    2. `orthant.hits` decides the negative-orthant problem of
       W = [V; -I], b = [c; 0], whose margin optimum t* is positive exactly
       when the LP max s s.t. V y + s <= -c, y >= 0, 0 <= s <= 1 has a
       positive optimum: an x >= t > 0 with V x + t <= -c is a feasible y,
       and a feasible y with s > 0 moves to x = y + eps*1.  So the two
       problems decide alike.  `hits` sends the problem to the exact vertex
       kernel or to HiGHS by its cost, and HiGHS settles what the kernel
       cannot (dependent rows, a margin at the threshold).

    Raises `SolverError` when HiGHS fails, so a solver failure never passes
    for an answer.
    """
    if np.all(c < -(_LP_MARGIN + _SCREEN_MARGIN)):
        return True
    d1 = V.shape[1]
    W = np.vstack([V, -np.eye(d1)])
    b = np.concatenate([c, np.zeros(d1)])
    return bool(hits(W[None], b[None])[0])


def _partials_walk(V, c, u, rng: np.random.Generator, margin: float) -> bool:
    """Sampled half of `check_nonzero_partials`: every probed pattern passes.

    Probes the origin, four points on each axis and random points of the
    orthant up to `ASSUMPTION_PROBES`, drawn in a fixed order from `rng`.  At
    each point and along each axis `e_i`, the active units are the interior
    ones plus those on their boundary that a move along `+e_i` activates.  A
    (point, axis) pattern fails when no unit is active or when the signed
    column sum `sum_k u_k V[k, i]` over the active units is below `margin`.
    """
    d1 = V.shape[1]
    n_axis = 1 + 4 * d1
    n = max(ASSUMPTION_PROBES, n_axis)
    P = np.zeros((n, d1))
    steps = np.arange(4 * d1)
    P[1 + steps, steps // 4] = np.tile(_AXIS_STEPS, d1)
    # The random points keep their per-point draw order (normal, scale,
    # mask) so the stream, and every generated network, stays fixed.
    G = np.empty((n - n_axis, d1))
    R = np.empty((n - n_axis, d1))
    S = np.empty(n - n_axis, dtype=np.int64)
    normal, pick, uniform = rng.standard_normal, rng.integers, rng.random
    for j in range(n - n_axis):
        normal(out=G[j])
        S[j] = pick(3)
        uniform(out=R[j])
    G = np.abs(G) * _SCALES[S][:, None]
    G[R < 0.35] = 0.0
    P[n_axis:] = G

    Z = P @ V.T + c
    tol = 1e-12 * (1.0 + np.abs(c))
    # A unit resting exactly on its boundary contributes to the one-sided
    # partial along +e_i only if that move activates it.
    active = (Z > tol)[:, None, :] | (
        (np.abs(Z) <= tol)[:, None, :] & (V.T > 0.0))
    sums = np.einsum("nik,ik->ni", active, (u[:, None] * V).T)
    return bool(np.all(active.any(axis=2) & (np.abs(sums) >= margin)))


def check_nonzero_partials(V: np.ndarray, c: np.ndarray, u, rng: np.random.Generator) -> bool:
    """Test that the top map has one-sided partials of at least `PARTIAL_MARGIN`.

    The top map is `F(y) = sum_k u_k relu(V_k.y + c_k)` over `y >= 0`.  The
    test has two halves, and passes when both do.  The exact half is a
    linear program on `(V, c)` alone: no region of the orthant may leave
    every unit inactive, which would make the map locally constant there.
    The sampled half walks activation patterns: a one-sided partial along a
    coordinate equals the signed column sum of `V` over the locally active
    units, so patterns at interior points, boundary faces and the origin are
    checked against `PARTIAL_MARGIN`, the generator's pass mark.  Points are
    drawn from `rng` only when the LP passes.  They are the caller's own
    probes, not a replay of the generator's walk, so this check can reject a
    net the generator accepted.  It is the public check, which the tests
    call and `perfbench/spans.py` traces; `generate_three_layer` calls the
    halves directly, deciding the LP once per `(V, c)` and walking once per
    sign vector `u`.
    """
    V, c, u = (np.asarray(a, dtype=float) for a in (V, c, u))
    return not _orthant_reachable(V, c) and _partials_walk(V, c, u, rng, PARTIAL_MARGIN)


def _first_layer_block(d, d1, rng):
    W, offs = np.empty((d1, d)), np.empty(d1)
    ts: list[float] = []
    for i in range(d1):
        for _ in range(REJECTION_LIMIT):
            w = _unit_vector(rng, d)
            if abs(w[0]) < AXIS_COSINE:
                continue
            t = rng.uniform(-4.0, 4.0)
            if abs(t) < CLEARANCE:
                continue
            if any(abs(t - t2) < SEPARATION for t2 in ts):
                continue
            b = -t * w[0]
            if plane_gap(w, b, W[:i], offs[:i]) < PLANE_GAP:
                continue
            W[i], offs[i] = w, b
            ts.append(t)
            break
        else:
            return None
    if least_singular_value(W) < SIGMA_MIN:
        return None
    if any(np.linalg.norm(row) < LEAVE_ONE_OUT for row in leave_one_out(W)):
        return None
    return W, offs


def _second_layer_block(d1, d2, rng):
    V = np.zeros((d2, d1))
    c = np.zeros(d2)
    taken: list[tuple[int, float]] = []
    for k in range(d2):
        axis = k % d1
        for _ in range(REJECTION_LIMIT):
            row = rng.uniform(V_LOW, V_HIGH, size=d1) * _SIGNS[rng.integers(2, size=d1)]
            t = rng.uniform(0.5, 4.5)
            off = -t * row[axis]
            if plane_gap(row, off, V[:k], c[:k]) < PLANE_GAP:
                continue
            cands = _positive_axis_crossings(row, off, LINE_WINDOW)
            if _crossing_conflict(cands, taken):
                continue
            V[k] = row
            c[k] = off
            taken.extend(cands)
            break
        else:
            return None
    return V, c


def _probe_line_events(W, b, V, c):
    """All slope breaks of t -> N(t e_1), or None if one lies past `LINE_WINDOW`.

    Exact arithmetic on the piecewise structure: between consecutive first-layer
    crossings the hidden activations are affine in t, so each second-layer
    pre-activation is affine there and its root is explicit.
    """
    w0 = W[:, 0]
    t_first = np.sort(-b / w0)
    events = list(t_first)
    bounds = [-np.inf, *t_first, np.inf]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = np.clip((lo + hi) / 2.0, -2 * LINE_WINDOW, 2 * LINE_WINDOW)
        if not np.isfinite(mid):
            mid = lo + 1.0 if np.isfinite(lo) else hi - 1.0
        act = (mid * w0 + b) > 0
        alpha = np.where(act, w0, 0.0)
        beta = np.where(act, b, 0.0)
        slopes = V @ alpha
        vals = V @ beta + c
        for k in range(V.shape[0]):
            if abs(slopes[k]) < 1e-12:
                continue
            root = -vals[k] / slopes[k]
            if lo < root < hi:
                if abs(root) > LINE_WINDOW:
                    return None
                events.append(float(root))
    if np.max(np.abs(t_first)) > LINE_WINDOW:
        return None
    return sorted(events)


def _slope_at(W, b, V, c, u, t: float) -> float:
    z1 = t * W[:, 0] + b
    h = relu(z1)
    dh = np.where(z1 > 0, W[:, 0], 0.0)
    z2 = V @ h + c
    return float(np.sum(np.where(z2 > 0, u, 0.0) * (V @ dh)))


def generate_three_layer(
    d: int, d1: int, d2: int, rng: np.random.Generator
) -> ThreeLayerNet:
    """Three-layer network with the margins the full pipeline relies on.

    First layer: unit rows, well separated from singularity, each crossing the
    line `t e_1` at an isolated |t| <= 4.  Second layer: entry magnitudes in
    `[V_LOW, V_HIGH]`, each unit crossing an axis ray of the hidden orthant,
    one-sided partials of the top map bounded away from zero.  Probe-line
    geometry (crossing isolation, gradient jumps, window) is checked exactly
    on the assembled network.

    A net with `d1 = 1` can be drawn but not extracted: with one hidden
    unit every second-layer crease is parallel to the first-layer plane, so
    `extract_three_layer`'s filter cannot tell them apart.  The CLI accepts
    depth 3 only for `2 <= d1 <= d`.
    """
    if not (1 <= d1 <= d):
        raise ValueError("need 1 <= d1 <= d")
    for _ in range(REJECTION_LIMIT):
        first = _first_layer_block(d, d1, rng)
        if first is None:
            continue
        W, b = first
        second = _second_layer_block(d1, d2, rng)
        if second is None:
            continue
        V, c = second
        # A fresh sign vector is free, so give each (V, c) draw several
        # chances before discarding the weights along with it.  The LP
        # depends on (V, c) alone; when it finds a dead region, every u
        # fails, but the 96 u draws still run so the stream stays fixed.
        reachable = _orthant_reachable(V, c)
        for _ in range(96):
            u = _SIGNS[rng.integers(2, size=d2)]
            if not reachable and _partials_walk(V, c, u, rng, PARTIAL_MARGIN):
                break
        else:
            continue
        events = _probe_line_events(W, b, V, c)
        if events is None:
            continue
        if any(e2 - e1 < SEPARATION for e1, e2 in zip(events[:-1], events[1:])):
            continue
        if min(abs(e) for e in events) < CLEARANCE:
            continue
        # One slope per gap between consecutive breaks; each break's jump is
        # the difference of the slopes on its two sides.
        probes = [events[0] - 1.0, *events, events[-1] + 1.0]
        slopes = [_slope_at(W, b, V, c, u, (lo + hi) / 2.0)
                  for lo, hi in zip(probes[:-1], probes[1:])]
        if any(abs(right - left) < JUMP_MARGIN
               for left, right in zip(slopes[:-1], slopes[1:])):
            continue
        return ThreeLayerNet(W=W, b=b, top=TwoLayerNet(V, c, u))
    raise GenerationError(
        f"three-layer draw (d={d}, d1={d1}, d2={d2}) failed margins "
        f"{REJECTION_LIMIT} times"
    )
