"""Recovery of depth-3 ReLU networks by peeling the first layer.

The pipeline makes one pass over four phases.  Collect: walk the probe
line t * e_1 through the origin, reconstruct the critical hyperplane at
every slope break, dedup.  Each plane is a unit normal and an offset, and
the candidates travel as stacked arrays: `normals` (m, d), `offsets` (m,).
Filter: keep the candidates that stay critical across every transversal
candidate, which separates genuine first-layer planes (critical
everywhere) from flat extensions of bent second-layer surfaces.  Signs:
orient each surviving plane by testing on which side of it the network
actually bends, probing along a direction orthogonal to all other
survivors so only one hidden unit changes state.  Peel: compose the
oracle with a right inverse of the recovered first layer, which exposes
the top two layers as a depth-2 network on the nonnegative orthant and
hands off to the depth-2 extractor, then compares the composed network
with the oracle at 16 seeded points.  No other probe line is tried: the
generator keeps t * e_1 in general position, and a `GeneralPositionError`
names the phase and the axis it came from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    DEDUP_TOL,
    INVERSE_TOL,
    KINK_NOISE,
    OUTPUT_TOL,
    PROBE_FLOOR,
    RANK_TOL,
    SIGN_ATTEMPTS,
)
from .extract2 import ExtractedTwoLayer, extract_two_layer
from .margins import leave_one_out, least_singular_value, plane_gap
from .oracle.nets import ThreeLayerNet, batch_eval
from .oracle.query import DOMAIN_FULL, DOMAIN_NONNEG, QueryOracle, axis_ray
from .pwl import (
    GeneralPositionError,
    PieceBudgetError,
    all_critical_points_1d,
    is_critical_point,
    reconstruct_critical_hyperplane,
)

_PARALLEL_SIN = 0.02
_FOLD_CLEARANCE = 80.0
_FOLD_TRUST = 1e3
_FILTER_STEP = 4.0
_SIGN_STEP_CAP = 0.01
_OUTPUT_SEED = 20240819
_PHASES = ("collect", "filter", "signs", "peel")


@dataclass
class ExtractedThreeLayer:
    """The recovered network, the depth-2 result for its peeled top, and the
    run's candidate counts and query split."""

    net: ThreeLayerNet
    top: ExtractedTwoLayer
    n_candidates: int
    n_survivors: int
    phase_queries: dict[str, int]

    @property
    def total_queries(self) -> int:
        return sum(self.phase_queries.values())


def collect_candidate_hyperplanes(
    oracle: QueryOracle,
    delta: float,
    m_max: int,
    *,
    rng,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Critical hyperplanes met by the probe line {t * e_1}, deduplicated.

    Every slope break of the restriction with |t| <= 1/delta is localized,
    then the hyperplane through it is reconstructed from a ball around the
    break point.  The reconstruction uses a wider radius, and with it a
    wider step, than the scan because breaks on the line are far apart
    compared to delta and the larger stencil cuts the slope noise of the fits.
    A plane within `DEDUP_TOL` of a kept one, by `plane_gap`, is dropped.

    Returns `(normals, offsets, sources)`: the kept planes' unit normals
    (m, d), canonically oriented, their offsets (m,), and the break points
    (m, d) they were reconstructed at.
    """
    lim = 1.0 / delta
    found = all_critical_points_1d(axis_ray(oracle, 0), delta, m_max, window=(-lim, lim))
    e1 = np.eye(oracle.dim)[0]
    normals, offsets, sources = [], [], []
    for i, t in enumerate(found):
        x = t * e1
        gap = math.inf
        if i > 0:
            gap = t - found[i - 1]
        if i + 1 < len(found):
            gap = min(gap, found[i + 1] - t)
        # The stencil radius follows the crossing gaps, not delta: the
        # plane's offset noise shrinks linearly in the probe step, and the
        # fold test downstream needs the plane to be good to well under
        # delta even when delta is tiny.
        radius = max(min(gap / 8.0, max(8.0 * delta, 2e-4)), 2.0 * delta)
        normal, offset = reconstruct_critical_hyperplane(oracle, x, delta, rng, radius=radius)
        if plane_gap(normal, offset, normals, offsets) > DEDUP_TOL:
            normals.append(normal)
            offsets.append(offset)
            sources.append(x)
    shape = (len(offsets), oracle.dim)
    return np.reshape(normals, shape), np.array(offsets), np.reshape(sources, shape)


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to `normal`, d x (d-1)."""
    d = normal.size
    a = np.eye(d) - np.outer(normal, normal)
    q, r = np.linalg.qr(a)
    keep = np.abs(np.diag(r)) > 1e-10
    return q[:, keep][:, : d - 1]


def is_first_layer_plane(
    oracle: QueryOracle,
    normals: np.ndarray,
    offsets: np.ndarray,
    i: int,
    delta: float,
    *,
    source: np.ndarray,
    rng,
) -> bool:
    """Is candidate i critical on both sides of every transversal candidate?

    A first-layer plane is critical along its entirety, so it stays critical
    across any other candidate crossing it.  A candidate that is really the
    flat extension of a second-layer critical surface stops being critical
    past the plane the surface folds at, and that plane is itself among the
    candidates.  For each transversal candidate, two test points are taken
    well clear on either side of the fold line (clearance scaled by the
    inverse sine of the crossing angle, so near-parallel candidates are
    skipped), each perturbed uniformly inside the plane, and both must be
    bend points of the oracle.
    """
    p = np.asarray(source, dtype=float)
    n = normals[i]
    tangent = _tangent_basis(n)
    for j, other in enumerate(normals):
        if j == i:
            continue
        g = other - float(other @ n) * n
        s = math.sqrt(g.dot(g))
        if s < _PARALLEL_SIN:
            continue
        g /= s
        h = float(other @ p + offsets[j])
        move = -h / s
        if abs(move) > _FOLD_TRUST:
            continue
        fold_pt = p + move * g
        offset = _FOLD_CLEARANCE * delta / s
        for side in (1.0, -1.0):
            jitter = tangent @ _ball_sample(rng, tangent.shape[1], delta)
            z = fold_pt + side * offset * g + jitter
            if not is_critical_point(oracle, z, _FILTER_STEP * delta, rng=rng):
                return False
    return True


def _ball_sample(rng, dim: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = math.sqrt(v.dot(v))
    if norm < 1e-12:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return (r / norm) * v


def recover_row_signs(
    oracle: QueryOracle,
    normals: np.ndarray,
    offsets: np.ndarray,
    delta: float,
    *,
    rng,
):
    """Orient each surviving plane; returns the signed rows (W, b).

    For plane i, pick x on it but at least 2*delta off every other plane,
    and a unit direction z orthogonal to all the other normals with
    n_i . z > 0.  Moving along z changes only unit i's pre-activation, and
    only on the side where the unit is active does the network value move.
    If the value changes toward +z the candidate orientation is the true
    row; if toward -z it is flipped.  Ambiguous reads (both sides moving,
    or neither) retry with a fresh x and, halfway through the budget, a
    larger probe step.
    """
    m = len(offsets)
    W = np.zeros((m, oracle.dim))
    b = np.zeros(m)
    resid = leave_one_out(normals)
    for i, n_i in enumerate(normals):
        norm = float(np.linalg.norm(resid[i]))
        if norm < 1e-6:
            raise GeneralPositionError(
                f"sign recovery: plane {i} lies in the span of the others")
        z = resid[i] / norm
        if float(z @ n_i) < 0:
            z = -z
        tangent = _tangent_basis(n_i)
        base = -offsets[i] * n_i
        # Moving along z leaves every other first-layer pre-activation
        # unchanged, so the probe step owes nothing to delta; a floor keeps
        # the active-side signal above value noise when delta is tiny.
        step = max(delta / 2.0, 1e-4)
        decided = False
        for attempt in range(SIGN_ATTEMPTS):
            if attempt == SIGN_ATTEMPTS // 2:
                step = min(8.0 * step, _SIGN_STEP_CAP)
            x = base + tangent @ _ball_sample(rng, tangent.shape[1], 2.0)
            if any(abs(float(normals[j] @ x + offsets[j])) < 2.0 * delta
                   for j in range(m) if j != i):
                continue
            f0 = oracle.query(x)
            dp = abs(oracle.query(x + step * z) - f0)
            dm = abs(oracle.query(x - step * z) - f0)
            tau = max(PROBE_FLOOR * step, KINK_NOISE * (1.0 + abs(f0)))
            moved_p = dp > tau
            moved_m = dm > tau
            if moved_p == moved_m:
                continue
            if moved_p:
                W[i] = n_i
                b[i] = offsets[i]
            else:
                W[i] = -n_i
                b[i] = -offsets[i]
            decided = True
            break
        if not decided:
            raise GeneralPositionError(
                f"sign recovery: plane {i} stayed ambiguous after "
                f"{SIGN_ATTEMPTS} probes")
    return W, b


def right_inverse(W: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse of a full-row-rank matrix."""
    W = np.asarray(W, dtype=float)
    if least_singular_value(W) < RANK_TOL:
        raise GeneralPositionError("W not right invertible")
    M = np.linalg.pinv(W)
    if float(np.max(np.abs(W @ M - np.eye(W.shape[0])))) > INVERSE_TOL:
        raise GeneralPositionError("W not right invertible")
    return M


def peel_first_layer(oracle: QueryOracle, W: np.ndarray, b: np.ndarray) -> QueryOracle:
    """Oracle for the top two layers over the nonnegative hidden orthant.

    With M a right inverse of W, the point M(y - b) has first-layer
    pre-activation exactly y - b + b = y, so for y >= 0 the hidden layer
    passes y through and the returned oracle evaluates the top function
    directly.  One underlying query per call.  The returned oracle lives in
    another dimension and domain than `oracle`, so it checks its own points:
    its orthant check is what keeps y >= 0.
    """
    M = right_inverse(W)
    b = np.asarray(b, dtype=float)

    def fn(y):
        return oracle.query(M @ (y - b))

    return QueryOracle(fn, W.shape[0], DOMAIN_NONNEG, label=f"{oracle.label}-top",
                       parent=oracle)


def _check_output(oracle: QueryOracle, net: ThreeLayerNet) -> None:
    """Compare `net` with the oracle f at 16 seeded points of [-5, 5]^d.

    Raises `GeneralPositionError`, naming the worst point, when the largest
    |net - f| / (1 + |f|) exceeds `OUTPUT_TOL`.  The peeled stage sees f only
    through the right inverse of the recovered first layer, so it cannot
    tell when a first-layer plane is missing: f then varies along the null
    space of W while the composed net does not.  16 queries.
    """
    xs = np.random.default_rng(_OUTPUT_SEED).uniform(-5.0, 5.0, size=(16, oracle.dim))
    want = np.array([oracle.query(x) for x in xs])
    dev = np.abs(batch_eval(net, xs) - want) / (1.0 + np.abs(want))
    k = int(np.argmax(dev))
    if dev[k] > OUTPUT_TOL:
        raise GeneralPositionError(
            f"composed network deviates {dev[k]:.3g} > {OUTPUT_TOL:g} from the "
            f"oracle at x = {np.array2string(xs[k], precision=4)}")


def extract_three_layer(
    oracle: QueryOracle,
    delta: float,
    *,
    m_max: int = 256,
    d1_max: int | None = None,
    d2_max: int = 512,
) -> ExtractedThreeLayer:
    """Full depth-3 recovery: collect, filter, orient, peel, extract.

    One pass over the four phases on the probe line t * e_1, which the
    generator keeps in general position.  There is no fallback to another
    line: a `GeneralPositionError` from any phase is re-raised naming the
    phase and the axis, and `phase_queries` accounts for every oracle query
    of a run that returns.  The peel ends by checking the composed network
    against the oracle, so a run that misses a first-layer plane raises.
    The probe line and the axis scans of the peeled depth-2 stage reach
    |t| = 1/delta.
    """
    if oracle.domain != DOMAIN_FULL:
        raise ValueError("depth-3 extraction queries all of R^d")
    rng = np.random.default_rng(12345)
    # oracle.count as each phase starts; marks[-1] belongs to the running phase.
    marks = [oracle.count]
    try:
        normals, offsets, sources = collect_candidate_hyperplanes(oracle, delta, m_max, rng=rng)
        if len(offsets) == 0:
            raise GeneralPositionError("probe line met no critical points")
        marks.append(oracle.count)

        keep = [is_first_layer_plane(oracle, normals, offsets, i, delta,
                                     source=sources[i], rng=rng)
                for i in range(len(offsets))]
        if not any(keep):
            raise GeneralPositionError("no candidate survived the fold test")
        if d1_max is not None and sum(keep) > d1_max:
            raise PieceBudgetError("too many first-layer planes")
        marks.append(oracle.count)

        W, b = recover_row_signs(oracle, normals[keep], offsets[keep], delta, rng=rng)
        marks.append(oracle.count)

        top_oracle = peel_first_layer(oracle, W, b)
        top = extract_two_layer(top_oracle, W.shape[0], delta, d2_max)
        net = ThreeLayerNet(W=W, b=b, top=top.net)
        _check_output(oracle, net)
        marks.append(oracle.count)
    except GeneralPositionError as err:
        phase = _PHASES[len(marks) - 1]
        raise GeneralPositionError(f"{phase} phase (axis 0): {err}") from err
    counts = {phase: hi - lo for phase, lo, hi in zip(_PHASES, marks, marks[1:])}
    return ExtractedThreeLayer(net, top, len(offsets), sum(keep), counts)
