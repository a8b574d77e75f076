"""Shared synthesis helpers for the test suite."""

import numpy as np

from netpeel.config import CANON_FLOOR
from netpeel.oracle.generate import generate_three_layer, generate_two_layer
from netpeel.oracle.nets import ThreeLayerNet, TwoLayerNet
from netpeel.oracle.query import QueryOracle, axis_ray


def unit_plane(w, b):
    """The plane {x : w . x + b = 0} as (normal, offset) with a unit normal
    whose first entry above `CANON_FLOOR` is positive."""
    scale = float(np.linalg.norm(w))
    normal, offset = np.asarray(w, dtype=float) / scale, float(b) / scale
    if normal[np.abs(normal) > CANON_FLOOR][0] < 0:
        return -normal, -offset
    return normal, offset


def three_layer(W, b, V, c, signs):
    """The net s . relu(V relu(W x + b) + c): first layer W, b under a top
    of units V[k], c[k], signs[k] with no affine term."""
    return ThreeLayerNet(W=W, b=b, top=TwoLayerNet(np.atleast_2d(V), c, signs))


def flat_probe_line_net():
    """The seed-0 (2, 2, 6) depth-3 draw with a zero first input column.

    The net lives on R^3 but ignores x_1, so it is constant along the probe
    line t * e_1 while bending along both other axes.
    """
    net = generate_three_layer(2, 2, 6, np.random.default_rng(0))
    W = np.hstack([np.zeros((net.d1, 1)), net.W])
    return ThreeLayerNet(W=W, b=net.b, top=net.top)


def near_coincident_net(seed, gap):
    """A generated (4, 8) net plus a ninth unit crossing axis 0 `gap` past unit 0.

    The ninth unit's row is unit 0's row plus N(0, 0.3^2) noise per
    coordinate, so the two planes cross axis 0 at t0 and t0 + gap and part
    ways off the ray.  Everything is drawn from one `default_rng(seed)`:
    the net, then the noise, then the sign.
    """
    rng = np.random.default_rng(seed)
    net = generate_two_layer(4, 8, rng)
    t0 = -net.b[0] / net.W[0, 0]
    w = net.W[0] + rng.normal(0.0, 0.3, 4)
    b = -(t0 + gap) * w[0]
    sign = int(rng.choice((-1, 1)))
    return TwoLayerNet(np.vstack([net.W, w]), np.append(net.b, b), np.append(net.s, sign),
                       net.skip)


def near_coincident_rows(seed, gap):
    """A generated (4, 3, 9) net whose first-layer row 1 crosses the probe
    line t * e_1 `gap` past row 0.

    Row 1 becomes row 0 plus N(0, 0.3^2) noise per coordinate, normalised,
    so the two planes cross e_1 at t0 and t0 + gap and part ways off the
    line.  The net and then the noise are drawn from one `default_rng(seed)`.
    """
    rng = np.random.default_rng(seed)
    net = generate_three_layer(4, 3, 9, rng)
    W, b = net.W.copy(), net.b.copy()
    t0 = -b[0] / W[0, 0]
    w = W[0] + rng.normal(0.0, 0.3, 4)
    W[1] = w / np.linalg.norm(w)
    b[1] = -(t0 + gap) * W[1, 0]
    return ThreeLayerNet(W=W, b=b, top=net.top)


def scalar_line(fn):
    """Wrap a scalar function as a line t -> fn(t) whose queries a 1-d oracle counts."""
    return axis_ray(QueryOracle(lambda x: fn(float(x[0])), 1), 0)


def synth_pwl(rng, max_kinks=6, lo=-8.0, hi=8.0, min_sep=0.2):
    """Random continuous piecewise-linear scalar function with known kinks.

    Kink positions are resampled until pairwise separation reaches
    `min_sep`; slope jumps stay in +/-[0.5, 2] so every kink is visible.
    Returns (fn, kinks) where fn accepts scalars and numpy arrays alike.
    """
    k = int(rng.integers(0, max_kinks + 1))
    while True:
        kinks = np.sort(rng.uniform(lo, hi, size=k))
        if k < 2 or float(np.min(np.diff(kinks))) >= min_sep:
            break
    jumps = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    slope = float(rng.uniform(-2.0, 2.0))
    intercept = float(rng.uniform(-3.0, 3.0))

    def fn(t):
        t = np.asarray(t, dtype=float)
        acc = intercept + slope * t
        for c, pos in zip(jumps, kinks):
            acc = acc + c * np.maximum(t - pos, 0.0)
        return acc if acc.shape else float(acc)

    return fn, kinks


def dense_grid_kinks(fn, lo, hi, pitch):
    """Kink positions of a scalar PWL function from a dense grid scan.

    Completely independent of the bisection machinery: flags curvature via
    second differences on a uniform grid, then pins each flagged spot by
    intersecting straight-line fits taken a safe distance to either side.
    Assumes kinks are separated by well over 40 * pitch and sit at least
    that far inside [lo, hi].
    """
    g = np.arange(lo, hi + pitch, pitch)
    v = fn(g)
    bend = np.abs(v[:-2] + v[2:] - 2.0 * v[1:-1])
    flagged = np.nonzero(bend > 0.05 * pitch)[0] + 1
    if flagged.size == 0:
        return []
    positions = []
    cluster = [int(flagged[0])]
    for idx in flagged[1:]:
        if idx - cluster[-1] <= 4:
            cluster.append(int(idx))
        else:
            positions.append(_pin_kink(g, v, cluster))
            cluster = [int(idx)]
    positions.append(_pin_kink(g, v, cluster))
    return positions


def _pin_kink(g, v, cluster):
    i = int(round(float(np.mean(cluster))))
    a, b = i - 30, i - 10
    c, d = i + 10, i + 30
    sl = (v[b] - v[a]) / (g[b] - g[a])
    sr = (v[d] - v[c]) / (g[d] - g[c])
    # Lines through (g[b], v[b]) and (g[c], v[c]) meet at the kink.
    return float((v[c] - v[b] + sl * g[b] - sr * g[c]) / (sl - sr))
