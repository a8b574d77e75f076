"""Equivalence checks, the negative-orthant experiment, and query benchmarks.

Everything here sits on the consumer side of an extraction run: compare a
recovered network against the ground truth on a sampled box, measure how
often a random affine image meets the open negative orthant, and fit query
counts against their expected growth.  Each orthant trial is decided by
`orthant`; `intersects_negative_orthant` is re-exported from there.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .extract2 import extract_two_layer
from .extract3 import extract_three_layer
from .oracle.generate import generate_three_layer, generate_two_layer
from .oracle.nets import evaluator
from .oracle.query import as_oracle
from . import orthant
from .orthant import (
    _LP_BLOCK,
    SolverError,
    _kernel_pays,
    _screen_misses,
    intersects_negative_orthant,  # noqa: F401 - imported from here by perfbench/warmup.py
    linprog,  # noqa: F401 - bound for `TRACED_LOCAL` in perfbench/spans.py
)

# Row counts of the duality screen's passes: the whole chunk on the kernel
# at its 8 largest offsets, then the trials still open at their 12 largest,
# then those still open at their 20 largest.  Each pass runs only where it
# can certify a miss and costs the kernel at most one HiGHS call a block.
_SCREEN_ROWS = (8, 12, 20)
_CHUNK = 4096


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
    makes the report symmetric in its two arguments.  Both must be
    networks: anything else, an extraction result included, is a TypeError
    naming its class.  Deterministic per seed.  A network that evaluates to
    inf or NaN at a sample is invalid input (ValueError).
    """
    eval_a, eval_b = evaluator(net_a), evaluator(net_b)
    da = net_a.d
    if da != net_b.d:
        raise ValueError(f"input dimensions differ: {da} vs {net_b.d}")
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError("need finite lo < hi")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, da))
    with np.errstate(over="ignore", invalid="ignore"):
        fa = eval_a(pts)
        fb = eval_b(pts)
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


def orthant_bound_value(d: int, d1: int) -> float:
    """Closed-form tail bound (e*d1/d)^(d+1) / 2^d1."""
    return (math.e * d1 / d) ** (d + 1) / 2.0**d1


def empirical_orthant_bound(
    d: int,
    d1: int,
    trials: int,
    *,
    seed: int = 0,
) -> BoundExperiment:
    """Draw standard-normal (W, b) pairs and count negative-orthant intersections.

    Trials run in chunks of 4096, each drawn from its own child of `seed`,
    so the count is reproducible per seed.  A duality screen settles most
    misses in bulk: the vertex kernel on each trial's 8 largest offsets,
    then on the 12 and then the 20 largest for the trials still open (see
    `orthant._screen_misses`).  A pass runs only when d < rows < d1 and the
    kernel's work at that row count on a block of the open trials, up to
    `_LP_BLOCK` of them as the screen runs, is at most one HiGHS call on
    that block (`orthant._kernel_pays`).  The trials it leaves open
    go in blocks of up to 128 to `orthant.hits`, which gives a block to the
    kernel on all rows by the same rule and solves the rest as one
    block-diagonal LP.  A solver failure raises
    `SolverError` naming the chunk, the number of trials in the failed
    block and the range they span.
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
        undecided = np.arange(n)
        for rows in _SCREEN_ROWS:
            # On at most d rows the kernel certifies no miss, on d1 rows the
            # pass would be the full kernel, and past one HiGHS call of work
            # a block the pass would cost more than solving the open trials.
            if d < rows < d1 and _kernel_pays(min(undecided.size, _LP_BLOCK), rows, d):
                # Only a pass after one that certified a miss screens a copy.
                part = (W, b) if undecided.size == n else (W[undecided], b[undecided])
                undecided = undecided[~_screen_misses(*part, rows)]
        for lo in range(0, len(undecided), _LP_BLOCK):
            block = undecided[lo : lo + _LP_BLOCK]
            try:
                hit = orthant.hits(W[block], b[block])
            except SolverError as err:
                raise SolverError(
                    f"chunk {k}, {len(block)} trials in "
                    f"{done + block[0]}..{done + block[-1]}: {err}"
                ) from err
            hits += int(np.count_nonzero(hit))
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
    phase_seconds: dict = field(default_factory=dict)
    error: str = ""
    seconds: float = 0.0

    @property
    def predictor(self) -> float:
        """The paper's query bound up to a constant: d d1 log2(1/delta) at
        depth 2, d d1 d2 log2(1/delta) + d1^2 d2^2 at depth 3.

        Its log2(1/delta) factor is that of plain bisection.  The break
        search bisects only where its line-intersection test fails, so the
        counts grow slower than that factor: the predictor is an upper bound
        on their growth with 1/delta, and fits their shape at a fixed delta.
        """
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
    ok, total, phases, phase_seconds, error = True, 0, {}, {}, ""
    try:
        if depth == 2:
            net = generate_two_layer(d, d1, rng)
            oracle = as_oracle(net)
            result = extract_two_layer(oracle, d, delta, d1 + 4)
        else:
            net = generate_three_layer(d, d1, d2, rng)
            oracle = as_oracle(net)
            result = extract_three_layer(oracle, delta)
        total, phases = oracle.count, dict(result.phase_queries)
        phase_seconds = dict(result.phase_seconds)
    except SolverError:
        raise
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
        phase_seconds=phase_seconds,
        error=error,
        seconds=time.perf_counter() - t0,
    )


def query_complexity_bench(
    shapes: Iterable[tuple[int, int, int, int]],
    deltas: Sequence[float] = (1e-4,),
    seeds: Sequence[int] = (0,),
) -> list[BenchRow]:
    """Run extractions over (depth, d, d1, d2) shapes and record query counts.

    Failures are recorded in their row rather than aborting the sweep, except
    an LP solver failure (`SolverError`), which says nothing about the cell.
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
    "phase_seconds",
    "error",
]


def bench_to_csv(rows: Sequence[BenchRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for r in rows:
            writer.writerow({
                **vars(r),
                "predictor": f"{r.predictor:.6g}",
                "seconds": f"{r.seconds:.4f}",
                "phases": ";".join(f"{k}={v}" for k, v in r.phase_queries.items()),
                "phase_seconds": ";".join(f"{k}={v:.6f}" for k, v in r.phase_seconds.items()),
            })


def bound_to_csv(exp: BoundExperiment, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["d", "d1", "trials", "hits", "rate", "bound"]
        )
        writer.writeheader()
        writer.writerow({"d": exp.d, "d1": exp.d1, "trials": exp.trials,
                         "hits": exp.hits, "rate": exp.rate, "bound": exp.bound})
