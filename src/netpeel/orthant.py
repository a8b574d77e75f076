"""The exact negative-orthant kernel: dual vertices from a table of minors.

Whether Wx + b < 0 has a solution is the sign of the margin optimum
max t s.t. Wx + t <= -b, t <= 1.  `_vertex_margins` finds that optimum
without a solver by enumerating the vertices of its dual, the alternative
system of Motzkin's transposition theorem.  Three callers ask the
question: the verifier's duality screen (`verify._screen_misses`), on the
rows of largest offset, its orthant experiment (`verify._orthant_hits`)
and the depth-3 generator's dead-region test
(`oracle.generate._orthant_reachable`).  Each takes from here only what
the kernel is sure of; the last two pass the rest to their own HiGHS
call.  Nothing here imports scipy.
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
# The kernel's budget in row subsets per problem.  The verifier sends a
# block of m trials to the kernel when m times the largest level of its
# minor table is at most this times its block size: on 128-trial blocks the
# kernel took 1.4-2.1x less time than one HiGHS call at about 2000 subsets
# and tied with it at 3000-4000.  The generator sends its one problem when
# the table is at most this: at 1287 subsets the kernel took 0.36 ms
# against 2.5 ms for HiGHS (2-vCPU VM, BLAS on one thread).
_VERTEX_LIMIT = 2048


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
    general-position test.  For d1 > d it holds every minor y is made of;
    for d1 <= d it is one minor, and when that is nonzero W has full row
    rank, no y but 0 exists and t* = 1.  A trial with a minor at that
    level below `_MINOR_FLOOR` times Hadamard's bound gets NaN.

    Arrays run trials last, so each gather copies whole rows of m values.
    W has shape (m, d1, d), b has shape (m, d1).  Returns the m optima, NaN
    where the enumeration is not known to be complete.
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
    general = np.all(np.abs(minors) > _MINOR_FLOOR * hadamard, axis=0)
    margins = np.ones(m)
    if d1 > d:
        rows, sub = plan[d + 1]
        offs = b.T
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
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = np.where(positive | negative, -num / den, np.inf)
        np.minimum(margins, bounds.min(axis=0), out=margins)
    margins[~general] = np.nan
    return margins


def _unsure(margins: np.ndarray) -> np.ndarray:
    """Where a kernel optimum cannot decide: NaN, or within `_SCREEN_MARGIN` of `_LP_MARGIN`."""
    # NaN compares false, so an incomplete enumeration is unsure too.
    return ~(np.abs(margins - _LP_MARGIN) > _SCREEN_MARGIN)
