"""Recovery of a sum of signed ReLU units from queries on the nonnegative orthant.

The loop: scan the coordinate rays for the leftmost slope break, bracket it,
read the unit's sign off the direction of its slope jump, read its weights
off the change in the tangent affine map, subtract the recovered unit from
the oracle, and repeat.  A refinement pass then refits every recovered unit
far from all the other planes, where a wide stencil pins it down to near
machine precision.
Units that never bend on the probed orthant are linear there; they end up in
the affine remainder reconstructed at the end, which also absorbs the
orientation ambiguity of each recovered unit (sigma(-z) = sigma(z) - z).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .config import (
    JUMP_FLOOR,
    KINK_NOISE,
    MIN_AXIS_COSINE,
    NORMAL_FLOOR,
    PLANE_NOISE,
    RESIDUAL_TOL,
    SEPARATION,
)
from .oracle.nets import AffineMap, TwoLayerNet, evaluator
from .oracle.query import DOMAIN_NONNEG, QueryOracle, axis_ray
from .pwl import (
    GeneralPositionError,
    PieceBudgetError,
    iter_critical_points_1d,
    reconstruct_affine,
    sweep_step,
)

_BRACKET_CAP = 0.01
# Half the least distance to a neighbouring unit's plane in general position;
# see `recover_neuron`.
_STEP_CAP = SEPARATION * MIN_AXIS_COSINE / 2.0
_SCAN_START = 1e-4
_SKIP_SEED = 20240817
_REFINE_SEED = 20240818
_REFINE_CANDIDATES = 64


@dataclass
class ExtractedTwoLayer:
    """Result of a depth-2 run: the recovered network, its query split and
    the wall seconds of each phase.

    `net` carries the recovered units and the affine remainder as its skip.
    `residual_headroom` is the worst ratio of the final affine-residual
    check's deviation to its tolerance; the run fails above 1.
    """

    net: TwoLayerNet
    phase_queries: dict[str, int]
    phase_seconds: dict[str, float]
    residual_headroom: float

    @property
    def total_queries(self) -> int:
        return sum(self.phase_queries.values())


def find_neuron_crossing(
    oracle: QueryOracle,
    delta: float,
    *,
    start_axis: int = 0,
):
    """Bracket the first remaining slope break on a coordinate ray.

    Scans rays t -> t*e_i, t <= 1/delta, for i = start_axis..oracle.dim-1
    and, on the first ray with a break at t0, returns (x1, x2, axis) with
    x1 = (t0-eps)*e_i and x2 = (t0+eps)*e_i, each written into a zero
    vector as `axis_ray` writes its points.  The half-width eps is half the
    gap to the next break t1 on that ray, capped at min(0.01, t0/2) and
    floored at delta/4, so exactly one unit changes state between x1 and x2.
    Returns None when every scanned ray is break-free.

    The gap can only lower eps when it is below the reach min(0.02, t0), so
    t1 is sought by a second sweep that starts delta/2 past t0 and ends at
    the reach plus four sweep steps, the sweep's resolution; a ray with no
    break there gets the same eps as one whose next break is far away.

    Scans start a small offset inside the ray rather than at t = 0: an oracle
    built by subtraction or peeling carries residual micro-kinks hugging the
    orthant boundary, and a break search anchored on top of one mislocates it
    as a break at ~delta with no actual slope jump.
    """
    hi = 1.0 / delta
    lo = min(_SCAN_START, hi / 16.0)
    for axis in range(start_axis, oracle.dim):
        ray = axis_ray(oracle, axis)
        t0 = next(iter_critical_points_1d(ray, delta, (lo, hi)), None)
        if t0 is None:
            continue
        reach = min(2.0 * _BRACKET_CAP, t0)
        end = min(hi, t0 + reach + 4.0 * sweep_step(delta, t0 + reach))
        t1 = next(iter_critical_points_1d(ray, delta, (t0 + delta / 2.0, end)), None)
        gap = (t1 - t0) if t1 is not None else math.inf
        eps = max(delta / 4.0, min(gap / 2.0, _BRACKET_CAP, t0 / 2.0))
        x1, x2 = np.zeros(oracle.dim), np.zeros(oracle.dim)
        x1[axis], x2[axis] = t0 - eps, t0 + eps
        return x1, x2, axis
    return None


def recover_neuron(oracle, x1, x2, delta: float) -> tuple[np.ndarray, float, int]:
    """(w, b, sign) of the unit changing state between x1 and x2, up to orientation.

    Reconstructs the tangent affine maps at both endpoints; their difference
    (right minus left) is the unit's pre-activation map, up to a global sign
    that cannot be observed and is later compensated by the affine remainder.
    The sign is that of the slope jump along the bracket: a +1 unit is a
    convex kink, so the slope grows across it, and a -1 unit a concave one.

    The probe step is chosen in two stages.  Four queries along the bracket
    direction measure the slope jump, which equals the component of the
    hidden weight vector along that direction; the endpoints' distance to
    the crossing hyperplane is the bracket half-width times that component,
    and the off-axis probes must move by less than it or the affine fits
    would straddle the very plane being measured.  The step is also capped
    so the probes cannot reach a neighboring unit's hyperplane, whose
    distance is at worst the crossing separation times the smallest axis
    component that general position allows (`config.SEPARATION` and
    `config.MIN_AXIS_COSINE`).  Finally the fit bases are nudged off
    the scan ray into the domain interior: when the oracle is itself a
    peeled network, the ray lies exactly on the hidden orthant's boundary
    faces, where peeling leaves micro-kinks that would bias the fits.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    span = x2 - x1
    eps = math.sqrt(span.dot(span)) / 2.0
    e = span / (2.0 * eps)
    h = max(delta / 8.0, min(eps / 8.0, 1e-3))
    f1 = oracle.query(x1)
    f2 = oracle.query(x2)
    m1 = (oracle.query(x1 + h * e) - f1) / h
    m2 = (oracle.query(x2 + h * e) - f2) / h
    jump = abs(m2 - m1)
    scale = 1.0 + max(abs(f1), abs(f2))
    if jump <= max(KINK_NOISE * scale / h, JUMP_FLOOR):
        raise GeneralPositionError("endpoints in same linear region")
    plane_dist = eps * jump
    step = max(min(eps / 8.0, plane_dist / 4.0, _STEP_CAP), delta / 64.0)
    root_d = math.sqrt(x1.size)
    nudge = min(step / 8.0, plane_dist / (4.0 * root_d))
    lam1 = reconstruct_affine(oracle, x1 + nudge, step)
    lam2 = reconstruct_affine(oracle, x2 + nudge, step)
    w = lam2.w - lam1.w
    b = lam2.b - lam1.b
    noise = PLANE_NOISE * scale * root_d / step
    if math.sqrt(w.dot(w)) <= max(noise, NORMAL_FLOOR):
        raise GeneralPositionError("endpoints in same linear region")
    return w, b, 1 if m2 > m1 else -1


def subtracted_oracle(oracle: QueryOracle, recovered: TwoLayerNet) -> QueryOracle:
    """Oracle for oracle(x) - recovered(x); one query per call.

    The recovered units are subtracted through their net's evaluator.
    The returned oracle has `oracle` as its parent, with the same dim and
    domain: `oracle` checks each point before the units see it, so the
    returned oracle does not check it again.
    """
    units = evaluator(recovered)
    fn = lambda x: oracle.query(x) - units(x)
    return QueryOracle(fn, oracle.dim, oracle.domain, label=f"{oracle.label}-peel",
                       parent=oracle)


def _refine_points(normals: np.ndarray, offsets: np.ndarray, rng) -> list:
    """For each plane, a point on it inside the orthant, far from every other plane.

    A plane meets the orthant in the convex hull of its positive axis
    crossings plus the cone of in-plane directions that stay nonnegative, so
    random combinations of those generators are points of that set.  Each
    plane that meets the orthant, in order, draws `_REFINE_CANDIDATES`
    candidates from `rng`: their Dirichlet(1, ..., 1) weights on the
    crossings, then their uniform ray coefficients.  One product scores
    them all, and each plane's candidate whose clearance (distance to the
    nearest other plane or to the orthant boundary) is largest wins.  Uses
    no queries.  Returns one (point, clearance) pair per plane: (None, 0.0)
    for a plane that misses the orthant, and a clearance that is not
    positive when no candidate lies inside.
    """
    m, d = normals.shape
    size = _REFINE_CANDIDATES
    with np.errstate(divide="ignore"):
        T = np.where(normals != 0.0, -offsets[:, None] / normals, -np.inf)
    hit = T > 0.0
    pivots = np.argmax(np.where(hit, np.abs(normals), -1.0), axis=1)
    owners = np.flatnonzero(hit.any(axis=1))
    out = [(None, 0.0)] * m
    if not owners.size:
        return out
    # A ray along axis j moves the pivot axis by -n_j / n_pivot to stay on the plane.
    ratio = normals[owners] / normals[owners, pivots[owners], None]
    eye = np.eye(d)
    pts = np.empty((owners.size * size, d))
    for k, i in enumerate(owners):
        h = hit[i]
        free = ~h
        t = T[i, h]
        # Dirichlet(1, ..., 1) as `rng.dirichlet` draws it: exponentials over
        # their running total, bit for bit.
        lam = rng.standard_exponential((size, t.size))
        lam *= 1.0 / lam.cumsum(axis=1)[:, -1:]
        mu = rng.uniform(0.0, t.sum() / t.size, size=(size, d - t.size))
        rays = eye[free]
        rays[:, pivots[i]] -= ratio[k, free]
        # A point is its ray part plus lam * t on the hit axes, and each hit
        # entry of lam * t is one product, so the sum is exact in any order.
        # `mu @ rays` stays one gemm: a gemv rounds the pivot column otherwise.
        block = pts[k * size:(k + 1) * size]
        np.matmul(mu, rays, out=block)
        block[:, h] += lam * t
    dist = normals @ pts.T
    dist += offsets[:, None]
    np.abs(dist, out=dist)
    dist = dist.reshape(m, owners.size, size)
    dist[owners, np.arange(owners.size)] = np.inf
    clearance = np.minimum(pts.min(axis=1).reshape(owners.size, -1), dist.min(axis=0))
    best = np.argmax(clearance, axis=1)
    for k, i in enumerate(owners):
        out[i] = pts[k * size + best[k]], float(clearance[k, best[k]])
    return out


def refine_units(oracle: QueryOracle, net: TwoLayerNet) -> TwoLayerNet:
    """Refit every recovered unit where no other recovered plane is near.

    Unit i is fitted on `oracle` itself on each side of plane i, a distance r
    (half the clearance of the point from `_refine_points`) off the plane with
    step r/4.  Both stencils stay at least 3r/4 from every other recovered
    plane, so each other unit is one affine map over both and cancels in
    right - left, which leaves the unit's jump, sign * (right - left).  The
    stencil is hundreds of times wider than the crossing bracket allowed, so
    the fit's round-off shrinks by as much.  A refit reads only the oracle
    and its own point, never another unit.  A unit whose clearance would not
    widen the stencil past the recovery's own step keeps its recovered
    parameters.
    """
    scale = np.linalg.norm(net.W, axis=1)
    normals, offsets = net.W / scale[:, None], net.b / scale
    W, b = net.W.copy(), net.b.copy()
    spots = _refine_points(normals, offsets, np.random.default_rng(_REFINE_SEED))
    for i, ((point, clearance), sign) in enumerate(zip(spots, net.s)):
        r = clearance / 2.0
        if r / 4.0 <= _STEP_CAP:
            continue
        left = reconstruct_affine(oracle, point - r * normals[i], r / 4.0)
        right = reconstruct_affine(oracle, point + r * normals[i], r / 4.0)
        W[i] = sign * (right.w - left.w)
        b[i] = sign * (right.b - left.b)
    return TwoLayerNet(W, b, net.s, net.skip)


def _check_affine_residual(work: QueryOracle, skip: AffineMap, rng) -> float:
    """Worst |residual - skip| over its tolerance at 16 random points."""
    worst = 0.0
    for x in rng.uniform(0.0, 4.0, size=(16, work.dim)):
        got = work.query(x)
        worst = max(worst, abs(got - skip(x)) / (RESIDUAL_TOL * (1.0 + abs(got))))
    if worst > 1.0:
        raise GeneralPositionError(
            f"residual is not affine (deviation {worst:.3g} x tolerance)")
    return worst


def extract_two_layer(
    oracle: QueryOracle,
    d: int,
    delta: float,
    d1_max: int,
) -> ExtractedTwoLayer:
    """Full depth-2 recovery loop.

    Alternates crossing search, unit recovery, and subtraction until no
    coordinate ray bends any more, refines every recovered unit, then reads
    the affine remainder off the residual at a generic interior point and
    validates that the residual really is affine at a handful of random
    points.

    Each ray is scanned up to t = 1/delta.  A `GeneralPositionError` or
    `PieceBudgetError` is re-raised naming the phase whose queries were
    being counted (scan, recover, refine or skip).  Raises
    PieceBudgetError("recover phase: too many neurons") past `d1_max`.
    """
    if oracle.domain != DOMAIN_NONNEG:
        raise ValueError("depth-2 extraction queries the nonnegative orthant")
    counts = {"scan": 0, "recover": 0, "refine": 0, "skip": 0}
    seconds = dict.fromkeys(counts, 0.0)
    found = TwoLayerNet(np.empty((0, d)), [], [])
    work = oracle
    start_axis = 0
    try:
        while True:
            phase, mark, t0 = "scan", oracle.count, perf_counter()
            hit = find_neuron_crossing(work, delta, start_axis=start_axis)
            counts[phase] += oracle.count - mark
            seconds[phase] += perf_counter() - t0
            if hit is None:
                break
            x1, x2, start_axis = hit
            phase, mark, t0 = "recover", oracle.count, perf_counter()
            w, b, sign = recover_neuron(work, x1, x2, delta)
            counts[phase] += oracle.count - mark
            seconds[phase] += perf_counter() - t0
            found = TwoLayerNet(np.vstack((found.W, w)), np.append(found.b, b),
                                np.append(found.s, sign))
            if found.width > d1_max:
                raise PieceBudgetError("too many neurons")
            work = subtracted_oracle(oracle, found)
        phase, mark, t0 = "refine", oracle.count, perf_counter()
        net = refine_units(oracle, found)
        work = subtracted_oracle(oracle, net)
        counts[phase] += oracle.count - mark
        seconds[phase] += perf_counter() - t0
        phase, mark, t0 = "skip", oracle.count, perf_counter()
        rng = np.random.default_rng(_SKIP_SEED)
        base = rng.uniform(0.7, 1.7, size=d)
        skip = reconstruct_affine(work, base, 0.25)
        headroom = _check_affine_residual(work, skip, rng)
        counts[phase] += oracle.count - mark
        seconds[phase] += perf_counter() - t0
    except (GeneralPositionError, PieceBudgetError) as err:
        raise type(err)(f"{phase} phase: {err}") from err
    return ExtractedTwoLayer(TwoLayerNet(net.W, net.b, net.s, skip), counts, seconds,
                             headroom)
