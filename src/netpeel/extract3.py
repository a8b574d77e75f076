"""Recovery of depth-3 ReLU networks by peeling the first layer.

The pipeline makes one pass over four phases.  Collect: walk the probe
line t * e_1 through the origin, reconstruct the critical hyperplane at
every slope break, dedup.  Each plane is a unit normal and an offset, and
the candidates travel as stacked arrays: `normals` (m, d), `offsets` (m,).
Filter: keep the candidates that stay critical across every live transversal
candidate, which separates genuine first-layer planes (critical
everywhere) from flat extensions of bent second-layer surfaces.  Signs:
orient each surviving plane by reading, off the two side fits collect
already took, on which side the network's slope along a direction
orthogonal to all other survivors vanishes; no queries.  Peel: compose the
oracle with a right inverse of the recovered first layer, which exposes
the top two layers as a depth-2 network on the nonnegative orthant and
hands off to the depth-2 extractor, then compares the composed network
with the oracle at 16 seeded points.  No other probe line is tried: the
generator keeps t * e_1 in general position, and a `GeneralPositionError`
or `PieceBudgetError` names the phase and the axis it came from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .config import (
    DEDUP_TOL,
    INVERSE_TOL,
    OUTPUT_TOL,
    RANK_TOL,
    SIDE_RATIO,
)
from .extract2 import extract_two_layer
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
_OUTPUT_SEED = 20240819
_PHASES = ("collect", "filter", "signs", "peel")


@dataclass
class ExtractedThreeLayer:
    """The recovered network, the number m of collected candidates, the query
    split, the wall seconds of each phase and the `residual_headroom` of the
    depth-2 run on its peeled top."""

    net: ThreeLayerNet
    n_candidates: int
    phase_queries: dict[str, int]
    phase_seconds: dict[str, float]
    residual_headroom: float

    @property
    def total_queries(self) -> int:
        return sum(self.phase_queries.values())


def collect_candidate_hyperplanes(
    oracle: QueryOracle,
    delta: float,
    m_max: int,
    *,
    rng,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Critical hyperplanes met by the probe line {t * e_1}, deduplicated.

    Every slope break of the restriction with |t| <= 1/delta is localized,
    then the hyperplane through it is reconstructed from a ball around the
    break point.  The reconstruction uses a wider radius, and with it a
    wider step, than the scan because breaks on the line are far apart
    compared to delta and the larger stencil cuts the slope noise of the fits.
    A plane within `DEDUP_TOL` of a kept one, by `plane_gap`, is dropped.

    Returns `(normals, offsets, sources, grads)`: the kept planes' unit
    normals (m, d), canonically oriented, their offsets (m,), the break
    points (m, d) they were reconstructed at, and the gradients (m, 2, d) of
    the fits on their + and - sides (see `reconstruct_critical_hyperplane`).
    """
    lim = 1.0 / delta
    found = all_critical_points_1d(axis_ray(oracle, 0), delta, m_max, window=(-lim, lim))
    e1 = np.eye(oracle.dim)[0]
    normals, offsets, sources, grads = [], [], [], []
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
        normal, offset, sides = reconstruct_critical_hyperplane(oracle, x, delta, rng,
                                                                radius=radius)
        if plane_gap(normal, offset, normals, offsets) > DEDUP_TOL:
            normals.append(normal)
            offsets.append(offset)
            sources.append(x)
            grads.append(sides)
    shape = (len(offsets), oracle.dim)
    return (np.reshape(normals, shape), np.array(offsets), np.reshape(sources, shape),
            np.reshape(grads, (len(offsets), 2, oracle.dim)))


def _fold(normals: np.ndarray, offsets: np.ndarray, i: int, j: int, p: np.ndarray):
    """Where candidate j's plane crosses candidate i's, nearest the point p of plane i.

    Returns `(fold_pt, g, s)`: the fold point, the unit direction within plane
    i that crosses plane j, and the sine of the crossing angle.  Returns None
    when the planes are within `_PARALLEL_SIN` of parallel or the fold lies
    more than `_FOLD_TRUST` from p.
    """
    n, other = normals[i], normals[j]
    g = other - float(other @ n) * n
    s = math.sqrt(g.dot(g))
    if s < _PARALLEL_SIN:
        return None
    move = -float(other @ p + offsets[j]) / s
    if abs(move) > _FOLD_TRUST:
        return None
    g /= s
    return p + move * g, g, s


def is_first_layer_plane(oracle: QueryOracle, normal: np.ndarray, fold, delta: float) -> bool:
    """One fold test: does the candidate with unit `normal` bend across `fold`?

    A first-layer plane is critical along its entirety, so it stays critical
    across any other candidate crossing it.  A candidate that is really the
    flat extension of a second-layer critical surface stops being critical
    past the plane the surface folds at, and that plane is itself among the
    candidates.  Two test points are taken well clear on either side of the
    fold line `fold` (from `_fold`), the clearance scaled by the inverse sine
    of the crossing angle, and at both the oracle must bend along the
    candidate's own normal: across a first-layer plane the gradient jumps
    along its normal.  Two `is_critical_point` tests, 3 queries each; the
    second is skipped when the first reads flat.
    """
    fold_pt, g, s = fold
    offset = _FOLD_CLEARANCE * delta / s
    return all(is_critical_point(oracle, fold_pt + side * offset * g, normal,
                                 _FILTER_STEP * delta)
               for side in (1.0, -1.0))


def filter_candidates(
    oracle: QueryOracle,
    normals: np.ndarray,
    offsets: np.ndarray,
    sources: np.ndarray,
    delta: float,
) -> np.ndarray:
    """Which candidates stay critical across every live transversal candidate?

    The filter runs in rounds.  In each round every undecided candidate i
    takes one fold test (`is_first_layer_plane`) across the next candidate
    after it, cyclically, that is still alive and whose fold with i is
    testable from i's base point (`_fold`).  A failed test rejects i, and i
    leaves the fold set at once: no later test folds across it.  A candidate
    that has met every other one is kept.  So each candidate takes at most
    m - 1 tests, and the filter at most 6m(m - 1) queries.

    A candidate's base point is its source.  One that gets no test from there,
    every fold being near parallel or too far, is folded again from the
    projection, onto its own plane, of the other source nearest that plane;
    when that gives no test either, `GeneralPositionError` names it.  A lone
    candidate has nothing to fold across and is kept.  Returns a bool mask.
    """
    m = len(offsets)
    alive = [True] * m
    base = list(sources)
    met = [0] * m        # how many candidates after i its cursor has passed

    def next_fold(i):
        while met[i] < m - 1:
            met[i] += 1
            j = (i + met[i]) % m
            if alive[j]:
                fold = _fold(normals, offsets, i, j, base[i])
                if fold is not None:
                    return fold
        return None

    undecided = list(range(m)) if m > 1 else []
    first_round = True
    while undecided:
        still = []
        for i in undecided:
            fold = next_fold(i)
            if fold is None and first_round:
                n, o = normals[i], offsets[i]
                dist = np.abs(sources @ n + o)
                dist[i] = math.inf
                q = sources[int(np.argmin(dist))]
                base[i], met[i] = q - float(n @ q + o) * n, 0
                fold = next_fold(i)
                if fold is None:
                    raise GeneralPositionError(
                        f"candidate {i} got no fold test: every fold from its source "
                        f"and from the nearest other source is near parallel or "
                        f"beyond {_FOLD_TRUST:g}")
            if fold is None:
                continue
            if is_first_layer_plane(oracle, normals[i], fold, delta):
                still.append(i)
            else:
                alive[i] = False
        undecided, first_round = still, False
    return np.array(alive, dtype=bool)


def recover_row_signs(normals: np.ndarray, offsets: np.ndarray, grads: np.ndarray):
    """Orient each surviving plane; returns the signed rows (W, b).  No queries.

    With z the leave-one-out residual of plane i, every other first-layer
    normal is orthogonal to z, so along z only unit i changes state and the
    network's slope g . z vanishes on the side of plane i where unit i is
    inactive.  `grads[i]` holds the fitted gradients on the + side
    (normals[i] . y + offsets[i] > 0) and the - side; the side whose slope
    along z does not vanish is where the unit is active, and the candidate
    orientation is kept when that is the + side and flipped otherwise.
    Raises when the smaller |g . z| is not below `SIDE_RATIO` times the
    larger.
    """
    W = np.array(normals, dtype=float)
    b = np.array(offsets, dtype=float)
    resid = leave_one_out(normals)
    for i, r in enumerate(resid):
        norm = float(np.linalg.norm(r))
        if norm < 1e-6:
            raise GeneralPositionError(
                f"sign recovery: plane {i} lies in the span of the others")
        moves = np.abs(grads[i] @ r) / norm
        if moves.min() >= SIDE_RATIO * moves.max():
            raise GeneralPositionError(
                f"sign recovery: plane {i} stayed ambiguous (moves {moves[0]:.3g} and "
                f"{moves[1]:.3g} along z on its + and - sides; the smaller is not "
                f"below {SIDE_RATIO:g} x the larger)")
        if moves[0] < moves[1]:
            W[i], b[i] = -W[i], -b[i]
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
    its orthant check is what keeps y >= 0.  The right inverse is applied
    with `M.dot`, the same matrix-vector product as `M @` with less
    dispatch per call.
    """
    M = right_inverse(W)
    b = np.asarray(b, dtype=float)

    def fn(y):
        return oracle.query(M.dot(y - b))

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
    line: a `GeneralPositionError` or `PieceBudgetError` from any phase is
    re-raised naming the phase and the axis, and `phase_queries` accounts
    for every oracle query of a run that returns.  The peel ends by checking
    the composed network against the oracle, so a run that misses a
    first-layer plane raises.  The probe line and the axis scans of the
    peeled depth-2 stage reach |t| = 1/delta.
    """
    if oracle.domain != DOMAIN_FULL:
        raise ValueError("depth-3 extraction queries all of R^d")
    # (oracle.count, clock) as each phase starts; marks[-1] belongs to the
    # running phase.
    marks = [(oracle.count, perf_counter())]
    try:
        normals, offsets, sources, grads = collect_candidate_hyperplanes(
            oracle, delta, m_max, rng=np.random.default_rng(12345))
        if len(offsets) == 0:
            raise GeneralPositionError("probe line met no critical points")
        marks.append((oracle.count, perf_counter()))

        keep = filter_candidates(oracle, normals, offsets, sources, delta)
        if not any(keep):
            raise GeneralPositionError("no candidate survived the fold test")
        if d1_max is not None and sum(keep) > d1_max:
            raise PieceBudgetError("too many first-layer planes")
        marks.append((oracle.count, perf_counter()))

        W, b = recover_row_signs(normals[keep], offsets[keep], grads[keep])
        marks.append((oracle.count, perf_counter()))

        top_oracle = peel_first_layer(oracle, W, b)
        top = extract_two_layer(top_oracle, W.shape[0], delta, d2_max)
        net = ThreeLayerNet(W=W, b=b, top=top.net)
        _check_output(oracle, net)
        marks.append((oracle.count, perf_counter()))
    except (GeneralPositionError, PieceBudgetError) as err:
        phase = _PHASES[len(marks) - 1]
        raise type(err)(f"{phase} phase (axis 0): {err}") from err
    counts, seconds = {}, {}
    for phase, (q0, t0), (q1, t1) in zip(_PHASES, marks, marks[1:]):
        counts[phase], seconds[phase] = q1 - q0, t1 - t0
    return ExtractedThreeLayer(net, len(offsets), counts, seconds, top.residual_headroom)
