"""Equivalence checks, the negative-orthant experiment, and query benchmarks.

Everything here sits on the consumer side of an extraction run: compare a
recovered network against the ground truth on a sampled box, measure how
often a random affine image meets the open negative orthant, and fit query
counts against their expected growth.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .extract2 import extract_two_layer
from .extract3 import extract_three_layer
from .oracle.generate import generate_three_layer, generate_two_layer
from .oracle.nets import ThreeLayerNet, TwoLayerNet, batch_eval
from .oracle.query import as_oracle

__all__ = [
    "EquivalenceReport",
    "BoundExperiment",
    "BenchRow",
    "BenchFit",
    "functional_equivalence",
    "intersects_negative_orthant",
    "empirical_orthant_bound",
    "orthant_bound_value",
    "query_complexity_bench",
    "fit_query_bound",
    "bench_to_csv",
    "bound_to_csv",
]

_LP_MARGIN = 1e-9
_SCREEN_MARGIN = 1e-6
_SCREEN_ROWS = 8
_CHUNK = 4096
# Undecided trials per block-diagonal LP: the per-trial solver cost is flat
# up to about 256 blocks and grows beyond.
_LP_BLOCK = 128


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two networks on sampled points."""

    n_samples: int
    max_abs_err: float
    max_rel_err: float
    domain: str
    tau: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tau

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: max rel err {self.max_rel_err:.3e} "
            f"(abs {self.max_abs_err:.3e}) over {self.n_samples} points "
            f"in {self.domain}, tau {self.tau:g}"
        )


@dataclass(frozen=True)
class BoundExperiment:
    """Monte-Carlo estimate of P(random affine image meets the open negative orthant)."""

    d: int
    d1: int
    trials: int
    hits: int
    bound: float

    @property
    def rate(self) -> float:
        return self.hits / self.trials

    def rows(self) -> list[dict]:
        return [
            {
                "d": self.d,
                "d1": self.d1,
                "trials": self.trials,
                "hits": self.hits,
                "rate": self.rate,
                "bound": self.bound,
            }
        ]


def _network(net):
    """The network container of `net`, which may be an extraction result."""
    net = net.network() if hasattr(net, "network") else net
    if not isinstance(net, (TwoLayerNet, ThreeLayerNet)):
        raise TypeError(f"cannot evaluate {type(net).__name__}")
    return net


def functional_equivalence(
    net_a,
    net_b,
    lo: float,
    hi: float,
    *,
    n_samples: int = 10_000,
    tau: float = 1e-6,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare two networks on uniform samples from the box [lo, hi]^d.

    The relative error at a point is |a - b| / (1 + max(|a|, |b|)), which
    makes the report symmetric in its two arguments.  Either argument may be
    a network or an extraction result.  Deterministic per seed.  A network
    that evaluates to inf or NaN at a sample is invalid input (ValueError).
    """
    net_a, net_b = _network(net_a), _network(net_b)
    da = net_a.d
    if da != net_b.d:
        raise ValueError(f"input dimensions differ: {da} vs {net_b.d}")
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError("need finite lo < hi")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, da))
    with np.errstate(over="ignore", invalid="ignore"):
        fa = batch_eval(net_a, pts)
        fb = batch_eval(net_b, pts)
    for name, values in (("first", fa), ("second", fb)):
        if not np.all(np.isfinite(values)):
            raise ValueError(
                f"the {name} network evaluates to a non-finite value on the box"
            )
    abs_err = np.abs(fa - fb)
    rel_err = abs_err / (1.0 + np.maximum(np.abs(fa), np.abs(fb)))
    return EquivalenceReport(
        n_samples=n_samples,
        max_abs_err=float(np.max(abs_err)) if n_samples else 0.0,
        max_rel_err=float(np.max(rel_err)) if n_samples else 0.0,
        domain=f"[{lo:g}, {hi:g}]^{da}",
        tau=tau,
    )


def _orthant_margins(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Margin optima of m independent negative-orthant problems in one LP.

    Trial i asks for max t_i subject to W_i x_i + t_i <= -b_i and t_i <= 1.
    All m blocks go into one sparse block-diagonal program that maximizes
    sum_i t_i; the blocks share no variables, so each t_i of the joint
    optimum is that block's own optimum.  One solver call replaces m,
    which saves the per-call set-up that dominates small programs.

    W has shape (m, d1, d), b has shape (m, d1).  Returns the m optima t_i.
    """
    m, d1, d = W.shape
    width = d + 1
    data = np.concatenate([W, np.ones((m, d1, 1))], axis=2).reshape(-1)
    cols = np.arange(m)[:, None, None] * width + np.arange(width)
    A_ub = sparse.csr_array(
        (data, np.broadcast_to(cols, (m, d1, width)).reshape(-1),
         np.arange(0, m * d1 * width + 1, width)),
        shape=(m * d1, m * width),
    )
    c = np.zeros((m, width))
    c[:, d] = -1.0
    bounds = np.full((m, width, 2), [-np.inf, np.inf])
    bounds[:, d, 1] = 1.0
    res = linprog(
        c=c.reshape(-1),
        A_ub=A_ub,
        b_ub=-b.reshape(-1),
        bounds=bounds.reshape(-1, 2),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(
            f"negative-orthant LP: solver status {res.status} ({res.message})"
        )
    return res.x[d::width]


def intersects_negative_orthant(W: np.ndarray, b: np.ndarray) -> bool:
    """Decide whether some x satisfies Wx + b < 0 in every component.

    Solved as a margin problem: maximize t subject to Wx + t <= -b and
    t <= 1.  The strict system is feasible exactly when the optimum is
    positive; a small threshold keeps boundary cases (measure zero for
    continuous draws) from flipping on rounding.
    """
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ValueError("W must be (d1, d) and b must be (d1,)")
    return bool(_orthant_margins(W[None], b[None])[0] > _LP_MARGIN)


def orthant_bound_value(d: int, d1: int) -> float:
    """Closed-form tail bound (e*d1/d)^(d+1) / 2^d1."""
    return (math.e * d1 / d) ** (d + 1) / 2.0**d1


def _screen_misses(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mark trials certified to have no negative-orthant point.

    By weak duality, any y >= 0 with sum_j y_j w_j = 0 bounds the margin
    optimum by -(y.b)/(y.1); a comfortably negative bound settles the
    trial without a solver call.  Candidate y come from triples among the
    rows with the largest offsets, where the constraints bind hardest.
    The test is one-sided: an uncertified trial is merely undecided.

    W has shape (n, d1, d) with d = 2, b has shape (n, d1).  Returns a
    boolean mask of certified misses.
    """
    n, d1, d = W.shape
    k = min(_SCREEN_ROWS, d1)
    top = np.argsort(-b, axis=1)[:, :k]
    rows = np.take_along_axis(W, top[:, :, None], axis=1)
    offs = np.take_along_axis(b, top, axis=1)

    certified = np.zeros(n, dtype=bool)
    idx = [(i, j, l) for i in range(k) for j in range(i + 1, k) for l in range(j + 1, k)]
    for i, j, l in idx:
        wi, wj, wl = rows[:, i], rows[:, j], rows[:, l]
        # Null vector of the 3x2 stack via 2x2 cofactors: y . [wi wj wl] = 0.
        yi = wj[:, 0] * wl[:, 1] - wj[:, 1] * wl[:, 0]
        yj = wl[:, 0] * wi[:, 1] - wl[:, 1] * wi[:, 0]
        yl = wi[:, 0] * wj[:, 1] - wi[:, 1] * wj[:, 0]
        y = np.stack([yi, yj, yl], axis=1)
        y *= np.sign(np.sum(y, axis=1, keepdims=True) + 1e-300)
        scale = np.max(np.abs(y), axis=1)
        valid = (np.min(y, axis=1) >= 0.0) & (scale > 1e-12)
        ysum = np.sum(y, axis=1)
        num = (
            y[:, 0] * offs[:, i] + y[:, 1] * offs[:, j] + y[:, 2] * offs[:, l]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = -num / ysum
        certified |= valid & (upper <= -_SCREEN_MARGIN)
        if certified.all():
            break
    return certified


def empirical_orthant_bound(
    d: int,
    d1: int,
    trials: int,
    *,
    seed: int = 0,
) -> BoundExperiment:
    """Draw standard-normal (W, b) pairs and count negative-orthant intersections.

    Trials run in chunks of 4096, each drawn from its own child of `seed`,
    so the count is reproducible per seed.  For planar inputs a duality
    screen settles most misses in bulk; the trials it leaves open are
    solved as block-diagonal LPs of up to 128 trials each.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    ss = np.random.SeedSequence(seed)
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    children = ss.spawn(n_chunks)
    hits = 0
    done = 0
    for k, child in enumerate(children):
        n = min(_CHUNK, trials - done)
        rng = np.random.default_rng(child)
        W = rng.standard_normal((n, d1, d))
        b = rng.standard_normal((n, d1))
        if d == 2 and d1 >= 3:
            undecided = np.flatnonzero(~_screen_misses(W, b))
        else:
            undecided = np.arange(n)
        for lo in range(0, len(undecided), _LP_BLOCK):
            block = undecided[lo : lo + _LP_BLOCK]
            try:
                margins = _orthant_margins(W[block], b[block])
            except RuntimeError as err:
                raise RuntimeError(
                    f"chunk {k}, trials {done + block[0]}..{done + block[-1]}: {err}"
                ) from err
            hits += int(np.count_nonzero(margins > _LP_MARGIN))
        done += n
    return BoundExperiment(
        d=d, d1=d1, trials=trials, hits=hits, bound=orthant_bound_value(d, d1)
    )


@dataclass(frozen=True)
class BenchRow:
    """One extraction run in the query-complexity benchmark."""

    depth: int
    d: int
    d1: int
    d2: int
    delta: float
    seed: int
    ok: bool
    total_queries: int
    phase_queries: dict = field(default_factory=dict)
    error: str = ""
    seconds: float = 0.0

    @property
    def predictor(self) -> float:
        log_term = math.log2(1.0 / self.delta)
        if self.depth == 2:
            return self.d * self.d1 * log_term
        return self.d * self.d1 * self.d2 * log_term + self.d1**2 * self.d2**2


@dataclass(frozen=True)
class BenchFit:
    """Least-squares constant for queries ~ C * predictor, with spread."""

    depth: int
    constant: float
    worst_ratio: float
    n_rows: int


def _bench_cell(depth: int, d: int, d1: int, d2: int, delta: float, seed: int) -> BenchRow:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    ok, total, phases, error = True, 0, {}, ""
    try:
        if depth == 2:
            net = generate_two_layer(d, d1, rng)
            oracle = as_oracle(net)
            result = extract_two_layer(oracle, d, delta, d1 + 4)
        else:
            net = generate_three_layer(d, d1, d2, rng)
            oracle = as_oracle(net)
            result = extract_three_layer(oracle, d, delta)
        total, phases = oracle.count, dict(result.phase_queries)
    except Exception as err:  # noqa: BLE001 - recorded per cell, table survives
        ok, error = False, str(err)
    return BenchRow(
        depth=depth,
        d=d,
        d1=d1,
        d2=d2,
        delta=delta,
        seed=seed,
        ok=ok,
        total_queries=total,
        phase_queries=phases,
        error=error,
        seconds=time.perf_counter() - t0,
    )


def query_complexity_bench(
    shapes: Iterable[tuple[int, int, int, int]],
    deltas: Sequence[float] = (1e-4,),
    seeds: Sequence[int] = (0,),
) -> list[BenchRow]:
    """Run extractions over (depth, d, d1, d2) shapes and record query counts.

    Failures are recorded in their row rather than aborting the sweep.
    """
    rows = []
    for depth, d, d1, d2 in shapes:
        for delta in deltas:
            for seed in seeds:
                rows.append(_bench_cell(depth, d, d1, d2, delta, seed))
    return rows


def fit_query_bound(rows: Sequence[BenchRow], depth: int) -> BenchFit:
    """Calibrate the constant in queries ~ C * predictor for one depth.

    C is the geometric midrange of the per-cell ratios, which minimizes the
    worst multiplicative residual; worst_ratio is that residual, so a value
    of 2 means every cell sits within a factor 2 of the fitted curve.
    """
    good = [r for r in rows if r.ok and r.depth == depth]
    if not good:
        raise ValueError(f"no successful depth-{depth} rows to fit")
    q = np.array([r.total_queries for r in good], dtype=float)
    p = np.array([r.predictor for r in good], dtype=float)
    ratios = q / p
    constant = float(np.sqrt(np.max(ratios) * np.min(ratios)))
    worst = float(np.sqrt(np.max(ratios) / np.min(ratios)))
    return BenchFit(depth=depth, constant=constant, worst_ratio=worst, n_rows=len(good))


_BENCH_FIELDS = [
    "depth",
    "d",
    "d1",
    "d2",
    "delta",
    "seed",
    "ok",
    "total_queries",
    "predictor",
    "seconds",
    "phases",
    "error",
]


def bench_to_csv(rows: Sequence[BenchRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
        writer.writeheader()
        for r in rows:
            writer.writerow(
                {
                    "depth": r.depth,
                    "d": r.d,
                    "d1": r.d1,
                    "d2": r.d2,
                    "delta": r.delta,
                    "seed": r.seed,
                    "ok": r.ok,
                    "total_queries": r.total_queries,
                    "predictor": f"{r.predictor:.6g}",
                    "seconds": f"{r.seconds:.4f}",
                    "phases": ";".join(f"{k}={v}" for k, v in r.phase_queries.items()),
                    "error": r.error,
                }
            )


def bound_to_csv(experiments: Sequence[BoundExperiment], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["d", "d1", "trials", "hits", "rate", "bound"]
        )
        writer.writeheader()
        for exp in experiments:
            for row in exp.rows():
                writer.writerow(row)
