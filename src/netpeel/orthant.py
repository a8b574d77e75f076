"""The package's one decision of negative-orthant problems.

Whether Wx + b < 0 has a solution is the sign of the margin optimum
max t s.t. Wx + t <= -b, t <= 1.  Two callers ask it: the verifier's
orthant experiment (`verify.empirical_orthant_bound`), which screens
misses with `_screen_misses` and decides the rest with `hits`, and the
depth-3 generator's dead-region test (`oracle.generate._orthant_reachable`),
which asks `hits` about the problem W = [V; -I], b = [c; 0].

`hits` routes each block of trials by cost.  The exact vertex kernel
`_vertex_margins` finds the optimum without a solver by enumerating the
vertices of its dual; HiGHS solves one block-diagonal program
(`_orthant_margins`).  The kernel settles what it is sure of, and HiGHS the
rest.  Importing `scipy.optimize` takes most of a `netpeel` process's
start-up, so nothing here imports scipy until `linprog` is first called.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# A margin optimum above this is a hit.
_LP_MARGIN = 1e-9
# The kernel's optimum decides only when it lies further than this from
# `_LP_MARGIN`; the duality screen certifies a miss at this distance below 0.
_SCREEN_MARGIN = 1e-6
# A d-row minor counts as nonzero when it exceeds this share of Hadamard's
# bound on it, the product of its rows' norms.
_MINOR_FLOOR = 1e-6
# Trials per block-diagonal LP: the per-trial solver cost is flat up to
# about 256 blocks and grows beyond.  The screen's kernel calls take as many
# trials: chunk-wide calls had tables large enough to page-fault anew.
_LP_BLOCK = 128
# Entries, one (row subset, trial) each, per table of the kernel's last
# level: a wider level runs in slices of subsets.  Larger tables went back
# to the system after each call and page-faulted anew: an orthant-bound
# pass over (2, 30) and (3, 12) trials took about 240 minor faults at
# 16,384 entries and none at 8,192.
_SLICE = 8192
# HiGHS's cost per block program and per trial in it, in units of kernel
# work: one (trial, row subset, column) of the minor table's largest level,
# so m trials of d columns cost the kernel m * _table_size(d1, d) * (d + 1).
# `hits` gives a block to the kernel when that is at most one HiGHS call.
# Warm, best of 5 (2-vCPU VM, BLAS on one thread), kernel against HiGHS:
# 13 (30, 2) trials 1.7-3.9 against 5.1-5.6 ms, 64 of them 17 against
# 12-14 ms, 128 (12, 3) trials 2.2 against 21 ms, 61 (18, 3) trials 14
# against 12 ms, 6 (24, 4) trials 31 against 3.7 ms, one (20, 5) problem
# 4.3 against 3.7 ms and one (16, 5) problem 1.3 against 3.5 ms.
_HIGHS_CALL = 131_072
_HIGHS_TRIAL = 10_240


class SolverError(RuntimeError):
    """HiGHS neither solved a program nor proved it infeasible."""


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported at the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


@functools.cache
def _minor_plan(d1: int, d: int) -> tuple:
    """Index tables of the Laplace expansions behind `_vertex_margins`.

    Level k, for k = 0 .. min(d + 1, d1), lists the k-row subsets of
    range(d1) in `itertools.combinations` order as a pair (rows, sub), both
    of shape (k, C(d1, k)): rows[j] holds each subset's j-th row, and
    sub[j] the index in level k - 1 of the subset without that row.

    Each level comes from the one before in array passes: the k-row subsets
    are the (k-1)-row ones in order, each followed by every row past its
    last.  The index of a subset s of k rows is its lexicographic rank
    C(d1, k) - 1 - sum_i C(d1 - 1 - s_i, k - i), so each sub[j] is that sum
    over the rows of s without s_j, each at its position in the smaller
    subset.
    """
    top = min(d + 1, d1)
    binom = np.array(
        [[math.comb(n, k) for k in range(top + 1)] for n in range(d1)],
        dtype=np.intp,
    )
    rows = np.zeros((0, 1), dtype=np.intp)
    plan = [(rows, rows)]
    for k in range(1, top + 1):
        last = rows[-1] if k > 1 else np.full(1, -1)
        counts = d1 - 1 - last
        parent = np.repeat(np.arange(len(last)), counts)
        starts = np.cumsum(counts) - counts
        new = last[parent] + 1 + np.arange(len(parent)) - starts[parent]
        rows = np.vstack([rows[:, parent], new])
        pos = np.arange(k)[:, None]
        # Rank terms of row i of s: at position i when a later row is
        # dropped (stay), at position i - 1 when an earlier one is (shift).
        stay = np.cumsum(binom[d1 - 1 - rows, k - 1 - pos], axis=0)
        shift = np.cumsum(binom[d1 - 1 - rows, k - pos][::-1], axis=0)[::-1]
        sub = np.full(rows.shape, math.comb(d1, k - 1) - 1, dtype=np.intp)
        sub[1:] -= stay[:-1]
        sub[:-1] -= shift[1:]
        plan.append((rows, sub))
    return tuple(plan)


def _table_size(d1: int, d: int) -> int:
    """Row subsets in the largest level of `_minor_plan(d1, d)`."""
    return max(math.comb(d1, k) for k in range(min(d + 1, d1) + 1))


def _kernel_pays(m: int, d1: int, d: int) -> bool:
    """Whether the kernel's work on m trials of d1 rows costs at most one HiGHS call.

    The kernel's work is m * _table_size(d1, d) * (d + 1), and one HiGHS
    call on the m trials costs `_HIGHS_CALL` + `_HIGHS_TRIAL` * m.
    """
    return m * _table_size(d1, d) * (d + 1) <= _HIGHS_CALL + _HIGHS_TRIAL * m


def _vertex_margins(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The margin optima of m negative-orthant problems, by enumerating dual vertices.

    The dual of max t s.t. Wx + t <= -b, t <= 1 minimizes 1 - y.1 - y.b
    over y >= 0 with W^T y = 0 and y.1 <= 1.  Its vertices are y = 0 and
    points with y.1 = 1.  When no d rows of W are dependent, each of the
    latter is supported on d + 1 rows S, on which y is the null vector of
    W_S^T, unique up to scale: by Cramer's rule its j-th entry is
    (-1)^(j+d) times the d-row minor of S without its j-th row.  So
    t* = min(1, -(y.b_S)/(y.1)) over the subsets S whose y has one sign.

    Every minor comes from one table built column by column: the k-row
    minors on the first k columns are the Laplace expansions of the
    (k-1)-row minors along column k - 1.  Its level min(d, d1) is the
    general-position test: a minor is clear when it exceeds `_MINOR_FLOOR`
    times Hadamard's bound on it, and a trial is in general position when
    every minor is.  For d1 > d that level holds every minor y is made of;
    for d1 <= d it is one minor, and when that is clear W has full row
    rank, no y but 0 exists and t* = 1.

    Outside general position the enumeration may miss vertices, but each
    one-signed subset whose d + 1 minors are all clear still gives a dual
    point, so the least of their bounds lies above t* by weak duality.  At
    most -`_SCREEN_MARGIN` that bound certifies a miss and is returned;
    otherwise the trial gets NaN.  In general position every minor is
    clear, so the mask changes nothing and the optimum is exact.

    Arrays run trials last, so each gather copies whole rows of m values.
    W has shape (m, d1, d), b has shape (m, d1).  Returns the m optima, or
    certified bounds at most -`_SCREEN_MARGIN`, and NaN where neither is known.
    """
    m, d1, d = W.shape
    plan = _minor_plan(d1, d)
    cols = np.ascontiguousarray(W.transpose(2, 1, 0))
    level = min(d, d1)
    minors = np.ones((1, m))
    for k in range(1, level + 1):
        rows, sub = plan[k]
        expansion = np.zeros((rows.shape[1], m))
        for j in range(k):
            term = cols[k - 1][rows[j]] * minors[sub[j]]
            if (j + k - 1) % 2:
                expansion -= term
            else:
                expansion += term
        minors = expansion
    norms = np.linalg.norm(cols[:level], axis=0)
    hadamard = np.prod(norms[plan[level][0]], axis=0)
    clear = np.abs(minors) > _MINOR_FLOOR * hadamard
    general = clear.all(axis=0)
    margins = np.ones(m)
    if d1 > d:
        offs = b.T
        plan_rows, plan_sub = plan[d + 1]
        # The last level runs in slices of subsets, so no table of it
        # outgrows `_SLICE` entries; the minimum over slices is exact.
        step = max(1, _SLICE // m)
        for lo in range(0, plan_rows.shape[1], step):
            rows, sub = plan_rows[:, lo:lo + step], plan_sub[:, lo:lo + step]
            num = np.zeros((rows.shape[1], m))
            den = np.zeros_like(num)
            positive = np.ones(num.shape, dtype=bool)
            negative = np.ones(num.shape, dtype=bool)
            for j in range(d + 1):
                y = minors[sub[j]]
                if (j + d) % 2:
                    np.negative(y, out=y)
                num += y * offs[rows[j]]
                den += y
                positive &= y > 0.0
                negative &= y < 0.0
            signed = (positive | negative) & clear[sub].all(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                bounds = np.where(signed, -num / den, np.inf)
            np.minimum(margins, bounds.min(axis=0), out=margins)
    margins[~general & (margins > -_SCREEN_MARGIN)] = np.nan
    return margins


def _unsure(margins: np.ndarray) -> np.ndarray:
    """Where a kernel optimum cannot decide: NaN, or within `_SCREEN_MARGIN` of `_LP_MARGIN`."""
    # NaN compares false, so an incomplete enumeration is unsure too.
    return ~(np.abs(margins - _LP_MARGIN) > _SCREEN_MARGIN)


def _orthant_margins(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Margin optima of m independent negative-orthant problems in one LP.

    Trial i asks for max t_i subject to W_i x_i + t_i <= -b_i and t_i <= 1.
    All m blocks go into one sparse block-diagonal program that maximizes
    sum_i t_i; the blocks share no variables, so each t_i of the joint
    optimum is that block's own optimum.  One solver call replaces m,
    which saves the per-call set-up that dominates small programs.
    Presolve is off: on these blocks it took an eighth to a fifth of each
    solve, and the margins without it match the presolved ones to 1.4e-14.

    W has shape (m, d1, d), b has shape (m, d1).  Returns the m optima t_i.
    Raises `SolverError` when HiGHS reports any status but solved.
    """
    from scipy import sparse

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
        options={"presolve": False},
    )
    if res.status != 0:
        raise SolverError(
            f"negative-orthant LP: solver status {res.status} ({res.message})"
        )
    return res.x[d::width]


def hits(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Decide m negative-orthant trials, by the vertex kernel where it is sure.

    The block goes to `_vertex_margins` when `_kernel_pays`: small and
    narrow blocks run on the kernel, wide ones and large blocks of middling
    width go to HiGHS.  The kernel settles a trial when its optimum lies
    more than `_SCREEN_MARGIN` from `_LP_MARGIN`, or when, outside general
    position, its one-signed subsets with clear minors certify a miss.  One
    block LP solves the rest (margins near the threshold, and trials outside
    general position with no certified miss), and every trial of a block
    routed to HiGHS.  W has shape (m, d1, d), b has shape (m, d1).  Returns
    the boolean mask of hits.
    """
    m, d1, d = W.shape
    margins = np.full(m, np.nan)
    if _kernel_pays(m, d1, d):
        margins = _vertex_margins(W, b)
    todo = np.flatnonzero(_unsure(margins))
    if todo.size:
        margins[todo] = _orthant_margins(W[todo], b[todo])
    return margins > _LP_MARGIN


def _screen_misses(W: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """Mark trials certified to have no negative-orthant point.

    Dropping rows can only raise the margin optimum, so the vertex kernel's
    margin on the `rows` rows of largest offset, where the constraints bind
    hardest, bounds the trial's: the exact optimum in general position, a
    bound from the subsets with clear minors outside it.  At most
    -`_SCREEN_MARGIN` it certifies a miss, and NaN certifies nothing.  Each
    block of `_LP_BLOCK` trials is sorted, gathered and screened on its own,
    which keeps every table small.  W has shape (n, d1, d), b has shape
    (n, d1).  Returns a boolean mask of misses.
    """
    misses = np.empty(len(b), dtype=bool)
    for lo in range(0, len(b), _LP_BLOCK):
        part = slice(lo, lo + _LP_BLOCK)
        top = np.argsort(-b[part], axis=1)[:, :rows]
        i = np.arange(len(top))[:, None]
        misses[part] = _vertex_margins(W[part][i, top], b[part][i, top]) <= -_SCREEN_MARGIN
    return misses


def intersects_negative_orthant(W: np.ndarray, b: np.ndarray) -> bool:
    """Decide whether some x satisfies Wx + b < 0 in every component.

    Solved as a margin problem: maximize t subject to Wx + t <= -b and
    t <= 1.  The strict system is feasible exactly when the optimum is
    positive; a small threshold keeps boundary cases (measure zero for
    continuous draws) from flipping on rounding.  `hits` decides it as a
    block of one trial: small inputs by vertex enumeration, exact in
    general position and a certified miss outside it where one exists, the
    rest by HiGHS.  W and b must be finite: a NaN or an infinity raises
    `ValueError`.
    """
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ValueError("W must be (d1, d) and b must be (d1,)")
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
        raise ValueError("W and b must be finite")
    return bool(hits(W[None], b[None])[0])
