"""Recovery of depth-3 ReLU networks by peeling the first layer.

The pipeline has four phases.  Collect: walk a probe line through the
origin, reconstruct the critical hyperplane at every slope break, dedup.
Filter: keep the candidates that stay critical across every transversal
candidate, which separates genuine first-layer planes (critical everywhere)
from flat extensions of bent second-layer surfaces.  Signs: orient each
surviving plane by testing on which side of it the network actually bends,
probing along a direction orthogonal to all other survivors so only one
hidden unit changes state.  Peel: compose the oracle with a right inverse
of the recovered first layer, which exposes the top two layers as a
depth-2 network on the nonnegative orthant and hands off to the depth-2
extractor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    DEDUP_TOL,
    INVERSE_TOL,
    KINK_NOISE,
    PROBE_FLOOR,
    RANK_TOL,
    SIGN_ATTEMPTS,
)
from .extract2 import ExtractedTwoLayer, extract_two_layer
from .oracle.nets import ThreeLayerNet, batch_eval
from .oracle.query import DOMAIN_FULL, DOMAIN_NONNEG, LineOracle, QueryOracle
from .pwl import (
    GeneralPositionError,
    Hyperplane,
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


@dataclass
class CandidateList:
    """Deduplicated critical hyperplanes with the points they were seen at."""

    planes: list[Hyperplane] = field(default_factory=list)
    sources: list[np.ndarray] = field(default_factory=list)

    def add(self, plane: Hyperplane, source: np.ndarray) -> bool:
        """Record a plane unless an equivalent one is already present."""
        for known in self.planes:
            if known.close_to(plane, DEDUP_TOL):
                return False
        self.planes.append(plane)
        self.sources.append(np.asarray(source, dtype=float))
        return True

    def __len__(self) -> int:
        return len(self.planes)


@dataclass
class ExtractedThreeLayer:
    """Recovered first layer plus the depth-2 result for the peeled top."""

    d: int
    W: np.ndarray
    b: np.ndarray
    top: ExtractedTwoLayer
    probe_axis: int
    n_candidates: int
    n_survivors: int
    flipped: int
    phase_queries: dict[str, int] = field(default_factory=dict)

    @property
    def d1(self) -> int:
        return self.W.shape[0]

    @property
    def total_queries(self) -> int:
        return sum(self.phase_queries.values())

    def network(self) -> ThreeLayerNet:
        return ThreeLayerNet(W=self.W, b=self.b, top=self.top.network())

    def __call__(self, x) -> float:
        return float(batch_eval(self.network(), np.atleast_2d(x))[0])


def collect_candidate_hyperplanes(
    oracle: QueryOracle,
    d: int,
    delta: float,
    m_max: int,
    *,
    axis: int = 0,
    rng=None,
) -> CandidateList:
    """Critical hyperplanes met by the line {t * e_axis}, deduplicated.

    Every slope break of the restriction with |t| <= 1/delta is localized,
    then the hyperplane through it is reconstructed from a ball around the
    break point.  The reconstruction uses a wider radius and step than the
    scan because breaks on the line are far apart compared to delta and the
    larger stencil cuts the slope noise of the fits.
    """
    rng = np.random.default_rng(12345) if rng is None else rng
    e = np.zeros(d)
    e[axis] = 1.0
    lim = 1.0 / delta
    line = LineOracle(oracle, np.zeros(d), e)
    found = all_critical_points_1d(line, delta, m_max, window=(-lim, lim))
    cands = CandidateList()
    for i, t in enumerate(found):
        x = t * e
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
        plane = reconstruct_critical_hyperplane(
            oracle, x, delta, rng, radius=radius, step=radius / 4.0)
        cands.add(plane, x)
    return cands


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to `normal`, d x (d-1)."""
    d = normal.size
    a = np.eye(d) - np.outer(normal, normal)
    q, r = np.linalg.qr(a)
    keep = np.abs(np.diag(r)) > 1e-10
    return q[:, keep][:, : d - 1]


def is_first_layer_plane(
    oracle: QueryOracle,
    plane: Hyperplane,
    others,
    delta: float,
    *,
    source: np.ndarray,
    rng=None,
) -> bool:
    """Is the candidate critical on both sides of every transversal candidate?

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
    rng = np.random.default_rng(12345) if rng is None else rng
    p = np.asarray(source, dtype=float)
    n = plane.normal
    tangent = _tangent_basis(n)
    for other in others:
        g = other.normal - float(other.normal @ n) * n
        s = float(np.linalg.norm(g))
        if s < _PARALLEL_SIN:
            continue
        g /= s
        h = float(other.normal @ p + other.offset)
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
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return (r / norm) * v


def recover_row_signs(
    oracle: QueryOracle,
    planes,
    eps: float,
    delta: float,
    *,
    rng=None,
):
    """Orient each surviving plane; returns (W, b, flipped count).

    For plane i, pick x on it but at least 2*delta off every other plane,
    and a unit direction z orthogonal to all the other normals with
    n_i . z > 0.  Moving along z changes only unit i's pre-activation, and
    only on the side where the unit is active does the network value move.
    If the value changes toward +z the candidate orientation is the true
    row; if toward -z it is flipped.  Ambiguous reads (both sides moving,
    or neither) retry with a fresh x and, halfway through the budget, a
    larger eps.
    """
    rng = np.random.default_rng(12345) if rng is None else rng
    d = oracle.dim
    m = len(planes)
    W = np.zeros((m, d))
    b = np.zeros(m)
    flipped = 0
    for i, plane in enumerate(planes):
        n_i = plane.normal
        rest = [p.normal for j, p in enumerate(planes) if j != i]
        if rest:
            a = np.stack(rest)
            q, _ = np.linalg.qr(a.T)
            z = n_i - q @ (q.T @ n_i)
        else:
            z = n_i.copy()
        norm = float(np.linalg.norm(z))
        if norm < 1e-6:
            raise GeneralPositionError(
                f"sign recovery: plane {i} lies in the span of the others")
        z /= norm
        if float(z @ n_i) < 0:
            z = -z
        tangent = _tangent_basis(n_i)
        base = -plane.offset * n_i
        # Moving along z leaves every other first-layer pre-activation
        # unchanged, so the probe step owes nothing to delta; a floor keeps
        # the active-side signal above value noise when delta is tiny.
        step = max(eps, 1e-4)
        decided = False
        for attempt in range(SIGN_ATTEMPTS):
            if attempt == SIGN_ATTEMPTS // 2:
                step = min(8.0 * step, _SIGN_STEP_CAP)
            x = base + tangent @ _ball_sample(rng, tangent.shape[1], 2.0)
            if any(abs(float(p.normal @ x + p.offset)) < 2.0 * delta
                   for j, p in enumerate(planes) if j != i):
                continue
            f0 = float(oracle(x))
            dp = abs(float(oracle(x + step * z)) - f0)
            dm = abs(float(oracle(x - step * z)) - f0)
            tau = max(PROBE_FLOOR * step, KINK_NOISE * (1.0 + abs(f0)))
            moved_p = dp > tau
            moved_m = dm > tau
            if moved_p == moved_m:
                continue
            if moved_p:
                W[i] = n_i
                b[i] = plane.offset
            else:
                W[i] = -n_i
                b[i] = -plane.offset
                flipped += 1
            decided = True
            break
        if not decided:
            raise GeneralPositionError(
                f"sign recovery: plane {i} stayed ambiguous after "
                f"{SIGN_ATTEMPTS} probes")
    return W, b, flipped


def right_inverse(W: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse of a full-row-rank matrix."""
    W = np.asarray(W, dtype=float)
    svals = np.linalg.svd(W, compute_uv=False)
    if svals.size == 0 or svals[-1] < RANK_TOL:
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
    directly.  One underlying query per call.
    """
    M = right_inverse(W)
    b = np.asarray(b, dtype=float)

    def fn(y):
        return oracle.query(M @ (np.asarray(y, dtype=float) - b))

    return QueryOracle(fn, W.shape[0], DOMAIN_NONNEG, label=f"{oracle.label}-top")


def extract_three_layer(
    oracle: QueryOracle,
    d: int,
    delta: float,
    *,
    m_max: int = 256,
    d1_max: int | None = None,
    d2_max: int = 512,
) -> ExtractedThreeLayer:
    """Full depth-3 recovery: collect, filter, orient, peel, extract.

    The probe line uses the first axis; if a phase fails on geometric
    grounds the remaining axes are tried in turn before giving up, and the
    axis that succeeded is recorded in the result.  The probe line and the
    axis scans of the peeled depth-2 stage reach |t| = 1/delta.  Budget
    violations are not retried.
    """
    if oracle.domain != DOMAIN_FULL:
        raise ValueError("depth-3 extraction queries all of R^d")
    rng = np.random.default_rng(12345)
    last: GeneralPositionError | None = None
    for axis in range(d):
        counts = {"collect": 0, "filter": 0, "signs": 0, "peel": 0}
        phase = "collect"
        try:
            mark = oracle.count
            cands = collect_candidate_hyperplanes(
                oracle, d, delta, m_max, axis=axis, rng=rng)
            counts["collect"] = oracle.count - mark
            if len(cands) == 0:
                raise GeneralPositionError("probe line met no critical points")

            phase = "filter"
            mark = oracle.count
            survivors: list[Hyperplane] = []
            for i, plane in enumerate(cands.planes):
                rest = cands.planes[:i] + cands.planes[i + 1:]
                if is_first_layer_plane(oracle, plane, rest, delta,
                                        source=cands.sources[i], rng=rng):
                    survivors.append(plane)
            counts["filter"] = oracle.count - mark
            if not survivors:
                raise GeneralPositionError("no candidate survived the fold test")
            if d1_max is not None and len(survivors) > d1_max:
                raise PieceBudgetError("too many first-layer planes")

            phase = "signs"
            mark = oracle.count
            W, b, flipped = recover_row_signs(
                oracle, survivors, eps=delta / 2.0, delta=delta, rng=rng)
            counts["signs"] = oracle.count - mark

            phase = "peel"
            mark = oracle.count
            top_oracle = peel_first_layer(oracle, W, b)
            top = extract_two_layer(top_oracle, W.shape[0], delta, d2_max)
            counts["peel"] = oracle.count - mark

            return ExtractedThreeLayer(
                d=d, W=W, b=b, top=top, probe_axis=axis,
                n_candidates=len(cands), n_survivors=len(survivors),
                flipped=flipped, phase_queries=counts)
        except GeneralPositionError as err:
            last = GeneralPositionError(f"{phase} phase (axis {axis}): {err}")
            continue
    assert last is not None
    raise last
