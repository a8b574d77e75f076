"""Shared synthesis helpers for the test suite."""

import numpy as np

from netpeel.oracle.nets import Neuron, ThreeLayerNet, TwoLayerNet
from netpeel.oracle.query import LineOracle, QueryOracle


def three_layer(W, b, V, c, signs):
    """The net s . relu(V relu(W x + b) + c): first layer W, b under a top
    of units V[k], c[k], signs[k] with no affine term."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    units = tuple(Neuron(v, ck, s) for v, ck, s in zip(V, c, signs))
    return ThreeLayerNet(W=W, b=b, top=TwoLayerNet(d=V.shape[1], neurons=units))


def scalar_line(fn):
    """Wrap a scalar function as a 1-d line oracle; its parent counts queries."""
    oracle = QueryOracle(lambda x: fn(float(x[0])), 1)
    return LineOracle(oracle, np.zeros(1), np.ones(1))


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
