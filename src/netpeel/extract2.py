"""Recovery of a sum of signed ReLU units from queries on the nonnegative orthant.

The loop: scan the coordinate rays for the leftmost slope break, bracket it,
read the unit's sign off the local convexity, read its weights off the change
in the tangent affine map, subtract the recovered unit from the oracle, and
repeat.  A refinement pass then refits every recovered unit far from all the
other planes, where a wide stencil pins it down to near machine precision.
Units that never bend on the probed orthant are linear there; they end up in
the affine remainder reconstructed at the end, which also absorbs the
orientation ambiguity of each recovered unit (sigma(-z) = sigma(z) - z).
"""
from __future__ import annotations

from dataclasses import dataclass

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
_REFINE_CANDIDATES = 256


@dataclass
class ExtractedTwoLayer:
    """Result of a depth-2 run: the recovered network and its query split.

    `net` carries the recovered units and the affine remainder as its skip.
    `residual_headroom` is the worst ratio of the final affine-residual
    check's deviation to its tolerance; the run fails above 1.
    """

    net: TwoLayerNet
    phase_queries: dict[str, int]
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
    x1 = (t0-eps)*e_i and x2 = (t0+eps)*e_i.  The half-width eps is half the
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
        gap = (t1 - t0) if t1 is not None else np.inf
        eps = max(delta / 4.0, min(gap / 2.0, _BRACKET_CAP, t0 / 2.0))
        e = np.eye(oracle.dim)[axis]
        return (t0 - eps) * e, (t0 + eps) * e, axis
    return None


def recover_sign_u(oracle, x1, x2, f1: float, f2: float) -> int:
    """Sign of the bracketed unit from the bend direction of the restriction.

    A +1 unit contributes a convex kink, so the second difference
    f(x1) + f(x2) - 2 f(midpoint) is positive; a -1 unit makes it negative.
    The caller passes the endpoint values f1 = f(x1) and f2 = f(x2), so only
    the midpoint is queried.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    fm = oracle.query((x1 + x2) / 2.0)
    second = f1 + f2 - 2.0 * fm
    tau = KINK_NOISE * (1.0 + max(abs(f1), abs(f2), abs(fm)))
    if abs(second) <= tau:
        raise GeneralPositionError("no kink in segment")
    return 1 if second > 0 else -1


def recover_neuron(oracle, x1, x2, delta: float) -> tuple[np.ndarray, float, int]:
    """(w, b, sign) of the unit changing state between x1 and x2, up to orientation.

    Reconstructs the tangent affine maps at both endpoints; their difference
    (right minus left) is the unit's pre-activation map, up to a global sign
    that cannot be observed and is later compensated by the affine remainder.

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
    eps = float(np.linalg.norm(span)) / 2.0
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
    nudge = min(step / 8.0, plane_dist / (4.0 * np.sqrt(x1.size)))
    shift = nudge * np.ones_like(x1)
    lam1 = reconstruct_affine(oracle, x1 + shift, step)
    lam2 = reconstruct_affine(oracle, x2 + shift, step)
    w = lam2.w - lam1.w
    b = lam2.b - lam1.b
    noise = PLANE_NOISE * scale * np.sqrt(x1.size) / step
    if float(np.linalg.norm(w)) <= max(noise, NORMAL_FLOOR):
        raise GeneralPositionError("endpoints in same linear region")
    return w, b, recover_sign_u(oracle, x1, x2, f1, f2)


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
    random combinations of those generators are points of that set.  The
    planes draw their candidates from `rng` in order, one product scores
    them all, and each plane's candidate whose clearance (distance to the
    nearest other plane or to the orthant boundary) is largest wins.  Uses
    no queries.  Returns one (point, clearance) pair per plane: (None, 0.0)
    for a plane that misses the orthant, and a clearance that is not
    positive when no candidate lies inside.
    """
    m, d = normals.shape
    with np.errstate(divide="ignore"):
        T = np.where(normals != 0.0, -offsets[:, None] / normals, -np.inf)
    hit = T > 0.0
    pivots = np.argmax(np.where(hit, np.abs(normals), -1.0), axis=1)
    owners = np.flatnonzero(hit.any(axis=1))
    blocks = []
    for i in owners:
        t, h, n = T[i], hit[i], normals[i]
        corners = np.diag(np.where(h, t, 0.0))[h]
        rays = np.eye(d)[~h]
        rays[:, pivots[i]] -= n[~h] / n[pivots[i]]
        lam = rng.dirichlet(np.ones(corners.shape[0]), size=_REFINE_CANDIDATES)
        reach = float(np.mean(t[h]))
        mu = rng.uniform(0.0, reach, size=(_REFINE_CANDIDATES, rays.shape[0]))
        blocks.append(lam @ corners + mu @ rays)
    out = [(None, 0.0)] * m
    if not blocks:
        return out
    pts = np.concatenate(blocks)
    dist = normals @ pts.T
    dist += offsets[:, None]
    np.abs(dist, out=dist)
    dist = dist.reshape(m, owners.size, _REFINE_CANDIDATES)
    dist[owners, np.arange(owners.size)] = np.inf
    clearance = np.minimum(pts.min(axis=1).reshape(owners.size, -1), dist.min(axis=0))
    for k, i in enumerate(owners):
        best = int(np.argmax(clearance[k]))
        out[i] = pts[k * _REFINE_CANDIDATES + best], float(clearance[k, best])
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
    for _ in range(16):
        x = rng.uniform(0.0, 4.0, size=work.dim)
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

    Each ray is scanned up to t = 1/delta.  A `GeneralPositionError` is
    re-raised naming the phase whose queries were being counted (scan,
    recover, refine or skip).  Raises PieceBudgetError("too many neurons")
    past `d1_max`.
    """
    if oracle.domain != DOMAIN_NONNEG:
        raise ValueError("depth-2 extraction queries the nonnegative orthant")
    counts = {"scan": 0, "recover": 0, "refine": 0, "skip": 0}
    rows, offs, signs = [], [], []
    work = oracle
    start_axis = 0
    try:
        while True:
            phase, mark = "scan", oracle.count
            hit = find_neuron_crossing(work, delta, start_axis=start_axis)
            counts[phase] += oracle.count - mark
            if hit is None:
                break
            x1, x2, start_axis = hit
            phase, mark = "recover", oracle.count
            w, b, sign = recover_neuron(work, x1, x2, delta)
            counts[phase] += oracle.count - mark
            rows.append(w)
            offs.append(b)
            signs.append(sign)
            if len(rows) > d1_max:
                raise PieceBudgetError("too many neurons")
            work = subtracted_oracle(oracle, TwoLayerNet(rows, offs, signs))
        phase, mark = "refine", oracle.count
        net = refine_units(oracle, TwoLayerNet(np.reshape(rows, (-1, d)), offs, signs))
        work = subtracted_oracle(oracle, net)
        counts[phase] += oracle.count - mark
        phase, mark = "skip", oracle.count
        rng = np.random.default_rng(_SKIP_SEED)
        base = rng.uniform(0.7, 1.7, size=d)
        skip = reconstruct_affine(work, base, 0.25)
        headroom = _check_affine_residual(work, skip, rng)
        counts[phase] += oracle.count - mark
    except GeneralPositionError as err:
        raise GeneralPositionError(f"{phase} phase: {err}") from err
    return ExtractedTwoLayer(TwoLayerNet(net.W, net.b, net.s, skip), counts, headroom)
