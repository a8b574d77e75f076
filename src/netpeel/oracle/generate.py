"""Random test networks with verified recovery margins.

The extraction routines assume the target is in "general position": hyperplanes
are distinct, crossings along probe lines are isolated, and gradient jumps are
large enough to detect at the working step size.  Rather than sampling blindly
and hoping, each generator places crossings constructively and then rejects
draws that violate an explicit margin.  The margins live in `GeneratorMargins`
so tests can tighten or relax them.

All randomness flows through a caller-supplied `numpy.random.Generator`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..config import ASSUMPTION_PROBES, REJECTION_LIMIT
from .nets import Neuron, ThreeLayerNet, TwoLayerNet, relu


# Designated axis crossings of the depth-2 units are drawn from this range.
_CROSSING_LO = 0.5
_CROSSING_HI = 9.5


class GenerationError(RuntimeError):
    """Could not produce a network meeting the margins within the retry budget."""


@dataclass(frozen=True)
class GeneratorMargins:
    """Minimum separations a generated network must respect.

    axis_cosine: least |w_i| along the axis a unit is designated to cross,
        so the crossing is well conditioned.
    min_axis_cosine: least |w_i| along every axis, so any incidental axis
        crossing still bends the restriction detectably.
    separation: least gap between any two crossings on the same probe line.
    clearance: least distance of any crossing from the line origin.
    plane_gap: least parameter distance between two unit hyperplanes,
        up to orientation.
    sigma_min: least singular value of the first-layer weight matrix.
    leave_one_out: least norm of a first-layer row after projecting out
        the span of the other rows (used when recovering orientations).
    v_low, v_high: magnitude range for second-layer weight entries.
    partial_margin: least |one-sided directional derivative| of the
        second-layer map over the nonnegative orthant.
    jump_margin: least gradient jump across any crossing of the probe line.
    line_window: all probe-line crossings must fall within this |t|.
    axis_window: every positive axis-ray crossing must fall within this t
        (draws with a farther crossing are rejected), and separation is
        enforced among all of them.  Keeping crossings near the origin keeps
        function values at the recovery probes small, which keeps the
        phantom kinks left by subtracting recovered units below the slope
        tolerance floor of the scanner.
    """

    axis_cosine: float = 0.2
    min_axis_cosine: float = 5e-3
    separation: float = 0.05
    clearance: float = 0.05
    plane_gap: float = 1e-3
    sigma_min: float = 0.1
    leave_one_out: float = 0.1
    v_low: float = 0.8
    v_high: float = 1.4
    partial_margin: float = 0.02
    jump_margin: float = 1e-3
    line_window: float = 50.0
    axis_window: float = 50.0


DEFAULT_MARGINS = GeneratorMargins()


def _unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def _planes_close(w1, b1, w2, b2, gap: float) -> bool:
    for s in (1.0, -1.0):
        if max(float(np.max(np.abs(w1 - s * w2))), abs(b1 - s * b2)) < gap:
            return True
    return False


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


def _crossing_conflict(cands, accepted, m: GeneratorMargins) -> bool:
    for axis, t in cands:
        if t < m.clearance:
            return True
        for axis2, t2 in accepted:
            if axis == axis2 and abs(t - t2) < m.separation:
                return True
    return False


def generate_two_layer(
    d: int,
    d1: int,
    rng: np.random.Generator,
    *,
    margins: GeneratorMargins = DEFAULT_MARGINS,
    retries: int = REJECTION_LIMIT,
) -> TwoLayerNet:
    """Sum of `d1` signed ReLU units over `R^d`, probed on the nonnegative orthant.

    Unit `j` is guaranteed to cross the axis ray `t e_{j mod d}` somewhere in
    `[0.5, 9.5]`, and every crossing of every unit with every axis ray is
    isolated per `margins`.  The orientation of each `(w, b)` pair is
    symmetric about zero, so recovery sees both unit orientations.
    """
    neurons: list[Neuron] = []
    taken: list[tuple[int, float]] = []
    for j in range(d1):
        axis = j % d
        for _ in range(retries):
            w = _unit_vector(rng, d)
            if abs(w[axis]) < margins.axis_cosine:
                continue
            if float(np.min(np.abs(w))) < margins.min_axis_cosine:
                continue
            t = rng.uniform(_CROSSING_LO, _CROSSING_HI)
            b = -t * w[axis]
            if any(_planes_close(w, b, n.w, n.b, margins.plane_gap) for n in neurons):
                continue
            cands = _positive_axis_crossings(w, b, np.inf)
            if any(t > margins.axis_window for _, t in cands):
                continue
            if _crossing_conflict(cands, taken, margins):
                continue
            neurons.append(Neuron(w, b, int(rng.choice((-1, 1)))))
            taken.extend(cands)
            break
        else:
            raise GenerationError(
                f"two-layer unit {j}: no draw met the margins in {retries} tries"
            )
    return TwoLayerNet(d=d, neurons=tuple(neurons), skip=None)


def _orthant_reachable(V, c) -> bool:
    """True when some y >= 0 drives every second-layer pre-activation negative."""
    d2, d1 = V.shape
    # max s  s.t.  V y + s <= -c,  y >= 0,  0 <= s <= 1; reachable iff s* > 0.
    cobj = np.zeros(d1 + 1)
    cobj[-1] = -1.0
    A = np.hstack([V, np.ones((d2, 1))])
    res = linprog(cobj, A_ub=A, b_ub=-c, bounds=[(0, None)] * d1 + [(0, 1)],
                  method="highs")
    return bool(res.status == 0 and -res.fun > 1e-9)


def check_nonzero_partials(
    V: np.ndarray,
    c: np.ndarray,
    u,
    rng: np.random.Generator,
    *,
    margin: float = 0.0,
) -> bool:
    """Sampled test that the top map has nonvanishing one-sided partials.

    The top map is `F(y) = sum_k u_k relu(V_k.y + c_k)` over `y >= 0`.  Its
    one-sided partial along any coordinate equals the signed column sum of `V`
    over the locally active units, so the test samples activation patterns
    (interior points, boundary faces, and the origin) and checks each pattern's
    column sums against `margin`.  It also rules out a region where every unit
    is inactive, which would make the map locally constant; that part is exact,
    via a linear program.
    """
    V = np.asarray(V, dtype=float)
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    d2, d1 = V.shape

    if _orthant_reachable(V, c):
        return False

    points = [np.zeros(d1)]
    for i in range(d1):
        for t in (0.3, 1.0, 3.0, 8.0):
            e = np.zeros(d1)
            e[i] = t
            points.append(e)
    while len(points) < ASSUMPTION_PROBES:
        y = np.abs(rng.standard_normal(d1)) * rng.choice((0.5, 2.0, 8.0))
        mask = rng.random(d1) < 0.35
        y[mask] = 0.0
        points.append(y)

    seen: set[tuple] = set()
    tol = 1e-12 * (1.0 + np.abs(c))
    for y in points:
        z = V @ y + c
        interior = z > tol
        boundary = np.abs(z) <= tol
        for i in range(d1):
            # A unit resting exactly on its boundary contributes to the
            # one-sided partial along +e_i only if that move activates it.
            active = interior | (boundary & (V[:, i] > 0.0))
            key = (i, tuple(bool(a) for a in active))
            if key in seen:
                continue
            seen.add(key)
            if not active.any():
                return False
            if abs(float(u[active] @ V[active, i])) < margin:
                return False
    return True


def _first_layer_block(d, d1, rng, m: GeneratorMargins):
    rows: list[np.ndarray] = []
    offs: list[float] = []
    ts: list[float] = []
    for i in range(d1):
        for _ in range(REJECTION_LIMIT):
            w = _unit_vector(rng, d)
            if abs(w[0]) < m.axis_cosine:
                continue
            t = rng.uniform(-4.0, 4.0)
            if abs(t) < m.clearance:
                continue
            if any(abs(t - t2) < m.separation for t2 in ts):
                continue
            b = -t * w[0]
            if any(_planes_close(w, b, w2, b2, m.plane_gap)
                   for w2, b2 in zip(rows, offs)):
                continue
            rows.append(w)
            offs.append(b)
            ts.append(t)
            break
        else:
            return None
    W = np.stack(rows)
    if np.linalg.svd(W, compute_uv=False)[-1] < m.sigma_min:
        return None
    for i in range(d1):
        others = np.delete(W, i, axis=0)
        if others.size:
            q, _ = np.linalg.qr(others.T, mode="reduced")
            resid = W[i] - q @ (q.T @ W[i])
            if np.linalg.norm(resid) < m.leave_one_out:
                return None
    return W, np.asarray(offs), np.asarray(ts)


def _second_layer_block(d1, d2, rng, m: GeneratorMargins):
    V = np.zeros((d2, d1))
    c = np.zeros(d2)
    taken: list[tuple[int, float]] = []
    for k in range(d2):
        axis = k % d1
        for _ in range(REJECTION_LIMIT):
            row = rng.uniform(m.v_low, m.v_high, size=d1) * rng.choice((-1.0, 1.0), size=d1)
            t = rng.uniform(0.5, 4.5)
            off = -t * row[axis]
            if any(_planes_close(row, off, V[k2], c[k2], m.plane_gap)
                   for k2 in range(k)):
                continue
            cands = _positive_axis_crossings(row, off, m.line_window)
            if _crossing_conflict(cands, taken, m):
                continue
            V[k] = row
            c[k] = off
            taken.extend(cands)
            break
        else:
            return None
    return V, c


def _probe_line_events(W, b, V, c, u, window: float):
    """All slope breaks of t -> N(t e_1), or None if one falls outside the window.

    Exact arithmetic on the piecewise structure: between consecutive first-layer
    crossings the hidden activations are affine in t, so each second-layer
    pre-activation is affine there and its root is explicit.
    """
    w0 = W[:, 0]
    t_first = np.sort(-b / w0)
    events = list(t_first)
    bounds = [-np.inf, *t_first, np.inf]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = np.clip((lo + hi) / 2.0, -2 * window, 2 * window)
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
                if abs(root) > window:
                    return None
                events.append(float(root))
    if np.max(np.abs(t_first)) > window:
        return None
    return sorted(events)


def _slope_at(W, b, V, c, u, t: float) -> float:
    z1 = t * W[:, 0] + b
    h = relu(z1)
    dh = np.where(z1 > 0, W[:, 0], 0.0)
    z2 = V @ h + c
    return float(np.sum(np.where(z2 > 0, u, 0.0) * (V @ dh)))


def generate_three_layer(
    d: int,
    d1: int,
    d2: int,
    rng: np.random.Generator,
    *,
    margins: GeneratorMargins = DEFAULT_MARGINS,
) -> ThreeLayerNet:
    """Three-layer network with the margins the full pipeline relies on.

    First layer: unit rows, well separated from singularity, each crossing the
    line `t e_1` at an isolated |t| <= 4.  Second layer: entry magnitudes in
    `[v_low, v_high]`, each unit crossing an axis ray of the hidden orthant,
    one-sided partials of the top map bounded away from zero.  Probe-line
    geometry (crossing isolation, gradient jumps, window) is checked exactly
    on the assembled network.
    """
    if not (1 <= d1 <= d):
        raise ValueError("need 1 <= d1 <= d")
    m = margins
    for _ in range(REJECTION_LIMIT):
        first = _first_layer_block(d, d1, rng, m)
        if first is None:
            continue
        W, b, _ = first
        second = _second_layer_block(d1, d2, rng, m)
        if second is None:
            continue
        V, c = second
        # A fresh sign vector is free, so give each (V, c) draw several
        # chances before discarding the weights along with it.
        for _ in range(96):
            u = rng.choice((-1, 1), size=d2).astype(int)
            if check_nonzero_partials(V, c, u, rng, margin=m.partial_margin):
                break
        else:
            continue
        events = _probe_line_events(W, b, V, c, u, m.line_window)
        if events is None:
            continue
        if any(e2 - e1 < m.separation for e1, e2 in zip(events[:-1], events[1:])):
            continue
        if min(abs(e) for e in events) < m.clearance:
            continue
        ok = True
        probes = [events[0] - 1.0, *events, events[-1] + 1.0]
        for j in range(1, len(probes) - 1):
            left = (probes[j - 1] + probes[j]) / 2.0
            right = (probes[j] + probes[j + 1]) / 2.0
            jump = _slope_at(W, b, V, c, u, right) - _slope_at(W, b, V, c, u, left)
            if abs(jump) < m.jump_margin:
                ok = False
                break
        if not ok:
            continue
        top = tuple(Neuron(V[k], c[k], u[k]) for k in range(d2))
        return ThreeLayerNet(W=W, b=b, top=TwoLayerNet(d=d1, neurons=top))
    raise GenerationError(
        f"three-layer draw (d={d}, d1={d1}, d2={d2}) failed margins "
        f"{REJECTION_LIMIT} times"
    )
