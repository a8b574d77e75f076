"""Equivalence reports, negative-orthant experiment, query benchmarks."""

import ast
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import netpeel.verify as verify
from netpeel import orthant
from netpeel.extract2 import extract_two_layer
from netpeel.orthant import SolverError
from netpeel.oracle.generate import generate_two_layer
from netpeel.oracle.nets import AffineMap, TwoLayerNet
from netpeel.oracle.query import as_oracle
from netpeel.verify import (
    BenchRow,
    bench_to_csv,
    bound_to_csv,
    empirical_orthant_bound,
    fit_query_bound,
    functional_equivalence,
    intersects_negative_orthant,
    orthant_bound_value,
    query_complexity_bench,
)


# ----------------------------------------------------------- equivalence


def test_net_equals_itself():
    net = generate_two_layer(3, 4, np.random.default_rng(0))
    rep = functional_equivalence(net, net, 0.0, 10.0)
    assert rep.max_abs_err == 0.0 and rep.max_rel_err == 0.0
    assert rep.passed


def test_constant_offset_shows_up_as_absolute_error():
    net = generate_two_layer(3, 4, np.random.default_rng(0))
    shifted = TwoLayerNet(net.W, net.b, net.s, AffineMap(np.zeros(3), 1.0))
    rep = functional_equivalence(net, shifted, 0.0, 10.0)
    assert abs(rep.max_abs_err - 1.0) < 1e-12
    assert not rep.passed


def test_extraction_passes_equivalence():
    net = generate_two_layer(3, 4, np.random.default_rng(11))
    got = extract_two_layer(as_oracle(net), 3, 1e-4, 8)
    rep = functional_equivalence(net, got.net, 0.0, 10.0, tau=1e-6)
    assert rep.passed


def test_equivalence_takes_networks_only():
    """An extraction result is not a network: pass its `net`."""
    net = generate_two_layer(2, 2, np.random.default_rng(0))
    got = extract_two_layer(as_oracle(net), 2, 1e-4, 4)
    for a, b in ((net, got), (got, net)):
        with pytest.raises(TypeError, match="Extraction"):
            functional_equivalence(a, b, 0.0, 10.0)


def test_equivalence_is_symmetric():
    a = generate_two_layer(3, 4, np.random.default_rng(1))
    b = generate_two_layer(3, 5, np.random.default_rng(2))
    r_ab = functional_equivalence(a, b, 0.0, 10.0, seed=7)
    r_ba = functional_equivalence(b, a, 0.0, 10.0, seed=7)
    assert r_ab.max_abs_err == r_ba.max_abs_err
    assert r_ab.max_rel_err == r_ba.max_rel_err


# ------------------------------------------------- negative-orthant test


def test_single_halfspace_intersects():
    assert intersects_negative_orthant(np.array([[1.0]]), np.array([0.0]))


def test_opposed_halfspaces_do_not():
    assert not intersects_negative_orthant(
        np.array([[1.0], [-1.0]]), np.array([0.0, 0.0])
    )


@pytest.mark.parametrize("W, b", [
    ([[1.0, 0.0]], [math.nan]),
    ([[1.0, 0.0]], [-math.inf]),
    ([[math.nan, 0.0]], [1.0]),
    ([[math.inf, 0.0]], [1.0]),
], ids=["nan-offset", "inf-offset", "nan-weight", "inf-weight"])
def test_non_finite_input_is_refused(W, b):
    with pytest.raises(ValueError, match="must be finite"):
        intersects_negative_orthant(np.array(W), np.array(b))


def _strict_feasible_1d(pairs):
    """Is there an x with a*x + c < 0 for every (a, c) pair?"""
    lo, hi = -math.inf, math.inf
    for a, c in pairs:
        if a > 0:
            hi = min(hi, -c / a)
        elif a < 0:
            lo = max(lo, -c / a)
        elif c >= 0:
            return False
    return lo < hi


def _brute_negative_orthant(W, b):
    """Exact strict feasibility for d <= 2 by eliminating the second variable."""
    W = np.asarray(W, dtype=float)
    if W.shape[1] == 1:
        return _strict_feasible_1d([(W[i, 0], b[i]) for i in range(len(b))])
    uppers, lowers, rest = [], [], []
    for (a1, a2), c in zip(W, b):
        if a2 > 0:
            uppers.append((a1 / a2, c / a2))
        elif a2 < 0:
            lowers.append((a1 / a2, c / a2))
        else:
            rest.append((a1, c))
    for pu, qu in uppers:
        for pl, ql in lowers:
            rest.append((pu - pl, qu - ql))
    return _strict_feasible_1d(rest)


def test_lp_agrees_with_exact_elimination_on_small_shapes():
    for d in (1, 2):
        for d1 in (1, 2, 3):
            for seed in range(100):
                rng = np.random.default_rng(1000 * d + 100 * d1 + seed)
                W = rng.standard_normal((d1, d))
                b = rng.standard_normal(d1)
                assert intersects_negative_orthant(W, b) == _brute_negative_orthant(
                    W, b
                ), (d, d1, seed)


def test_lp_confirms_every_sampled_witness():
    """A dense random search is one-sided; the solver must cover its hits."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        W = rng.standard_normal((2, 5))
        b = rng.standard_normal(2)
        hit = False
        for scale in (1.0, 10.0, 100.0):
            xs = scale * rng.standard_normal((333_334, 5))
            if np.any(np.all(xs @ W.T + b < 0.0, axis=1)):
                hit = True
                break
        if hit:
            assert intersects_negative_orthant(W, b)


def _single_margin(W, b):
    """The margin optimum of one trial as its own dense LP: the reference."""
    d1, d = W.shape
    res = linprog(
        c=np.concatenate([np.zeros(d), [-1.0]]),
        A_ub=np.hstack([W, np.ones((d1, 1))]),
        b_ub=-b,
        bounds=[(None, None)] * d + [(None, 1.0)],
        method="highs",
    )
    assert res.status == 0
    return float(-res.fun)


@pytest.mark.parametrize("d, d1", [(1, 2), (2, 4), (3, 6), (4, 8)])
def test_block_margins_match_one_trial_margins(d, d1):
    rng = np.random.default_rng(100 * d + d1)
    decisions = []
    for m in (1, 7, 128):
        W = rng.standard_normal((m, d1, d))
        b = rng.standard_normal((m, d1))
        block = orthant._orthant_margins(W, b)
        single = np.array([_single_margin(W[i], b[i]) for i in range(m)])
        assert block.shape == (m,)
        assert np.max(np.abs(block - single)) <= 1e-10, (d, d1, m)
        assert np.array_equal(block > orthant._LP_MARGIN, single > orthant._LP_MARGIN)
        decisions.extend(block > orthant._LP_MARGIN)
    assert any(decisions) and not all(decisions)


def test_solver_failure_names_the_chunk_and_trials(monkeypatch):
    class Failed:
        status, message = 4, "numerical difficulties"

    monkeypatch.setattr(orthant, "linprog", lambda *args, **kwargs: Failed())
    # An unsure kernel certifies nothing in the screen, so the whole block
    # of 50 (4, 24) trials reaches HiGHS.
    monkeypatch.setattr(orthant, "_vertex_margins", lambda W, b: np.full(len(W), np.nan))
    with pytest.raises(SolverError, match=r"chunk 0, 50 trials in 0\.\.49: .*status 4 "
                       r"\(numerical difficulties\)"):
        empirical_orthant_bound(4, 24, 50, seed=0)


# ---------------------------------------------------------- vertex kernel


@pytest.mark.parametrize("d, d1", [(1, 2), (2, 4), (3, 6), (3, 12), (4, 8)])
def test_vertex_kernel_matches_the_block_lp(d, d1):
    rng = np.random.default_rng(10 * d + d1)
    W = rng.standard_normal((128, d1, d))
    b = rng.standard_normal((128, d1))
    kernel = orthant._vertex_margins(W, b)
    lp = orthant._orthant_margins(W, b)
    assert not np.isnan(kernel).any()
    assert np.max(np.abs(kernel - lp)) <= 1e-10
    hits = kernel > orthant._LP_MARGIN
    assert np.array_equal(hits, lp > orthant._LP_MARGIN)
    assert hits.any() and not hits.all()


@pytest.fixture
def solver_calls(monkeypatch):
    """The trial count of every block LP that reaches the solver."""
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(int(np.count_nonzero(kwargs["c"])))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(orthant, "linprog", counting_linprog)
    return calls


# Degenerate hits: outside general position the kernel certifies only
# misses, so these reach HiGHS.  Each d = 2 case meets the orthant at
# x = (0.2, -0.3).
_DEGENERATE = {
    "repeated-row": ([[1.0, 2.0], [1.0, 2.0], [-1.0, 0.5], [0.3, -1.0]],
                     [0.2, -0.3, 0.3, -0.4]),
    "zero-row": ([[1.0, 2.0], [0.0, 0.0], [-1.0, 0.5], [0.3, -1.0]],
                 [0.2, -0.3, 0.3, -0.4]),
    "antiparallel-pair": ([[1.0, 2.0], [-0.5, -1.0], [-1.0, 0.5], [0.3, -1.0]],
                          [0.2, -0.3, 0.3, -0.4]),
    "rank-deficient-wide": ([[1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]], [0.5, 0.5]),
}


@pytest.mark.parametrize("case", sorted(_DEGENERATE))
def test_degenerate_inputs_go_to_highs(case, solver_calls):
    W, b = (np.array(a) for a in _DEGENERATE[case])
    assert np.isnan(orthant._vertex_margins(W[None], b[None])).all()
    expected = _single_margin(W, b) > orthant._LP_MARGIN
    assert expected or case == "rank-deficient-wide"
    assert intersects_negative_orthant(W, b) == expected
    assert solver_calls == [1]


@pytest.mark.parametrize("case", ["antiparallel-pair", "repeated-row", "zero-row"])
def test_degenerate_misses_are_certified_without_highs(case, solver_calls):
    """The d = 2 cases with offsets that leave them 0.012 short of the orthant:
    a one-signed subset with clear minors certifies each miss."""
    W, b = np.array(_DEGENERATE[case][0]), np.array([0.2, -0.1, 0.4, -0.3])
    margin = orthant._vertex_margins(W[None], b[None])[0]
    assert margin <= -orthant._SCREEN_MARGIN
    assert _single_margin(W, b) <= margin + 1e-12
    assert not intersects_negative_orthant(W, b)
    assert solver_calls == []


def test_a_margin_at_the_threshold_goes_to_highs(solver_calls):
    W, b = np.array([[1.0], [-1.0]]), np.array([0.0, 0.0])
    assert orthant._vertex_margins(W[None], b[None])[0] == 0.0
    assert not intersects_negative_orthant(W, b)
    assert solver_calls == [1]


def test_the_kernel_settles_general_trials_and_passes_on_the_rest(solver_calls):
    rng = np.random.default_rng(5)
    W, b = rng.standard_normal((40, 12, 3)), rng.standard_normal((40, 12))
    expected = orthant._orthant_margins(W, b) > orthant._LP_MARGIN
    solver_calls.clear()
    assert np.array_equal(orthant.hits(W, b), expected)
    assert solver_calls == []
    W[7, 3] = W[7, 5]  # a repeated row
    W[21, 0] = 0.0  # a zero row
    b[[7, 21]] = -np.abs(b[[7, 21]])  # x = 0 meets the orthant
    W[30, 4] = -2.0 * W[30, 9]  # an antiparallel pair
    expected = orthant._orthant_margins(W, b) > orthant._LP_MARGIN
    assert expected[[7, 21]].all() and not expected[30]
    solver_calls.clear()
    assert np.array_equal(orthant.hits(W, b), expected)
    # The kernel certifies the degenerate miss and leaves the degenerate hits.
    assert solver_calls == [2]


_DEGENERACIES = ("repeated", "zero", "antiparallel", "near-parallel")


@pytest.mark.parametrize("d1, d", [(4, 2), (8, 2), (12, 3), (9, 4), (6, 3), (30, 2)])
def test_the_kernel_certifies_degenerate_misses_as_highs_decides(d1, d):
    """Blocks of trials with a repeated, zero, antiparallel or near-parallel
    (1e-13) row: the kernel returns a margin only as a certified miss, a
    bound on the block LP's optimum, and leaves the rest as NaN."""
    rng = np.random.default_rng(d1 * d)
    settled = 0
    for case in _DEGENERACIES:
        W, b = rng.standard_normal((50, d1, d)), rng.standard_normal((50, d1))
        if case == "repeated":
            W[:, 1] = W[:, 0]
        elif case == "zero":
            W[:, 1] = 0.0
        elif case == "antiparallel":
            W[:, 1] = -rng.uniform(0.5, 2.0, (50, 1)) * W[:, 0]
        else:
            W[:, 1] = -W[:, 0] + 1e-13 * rng.standard_normal((50, d))
        kernel = orthant._vertex_margins(W, b)
        lp = orthant._orthant_margins(W, b)
        sure = ~np.isnan(kernel)
        assert np.all(kernel[sure] <= -orthant._SCREEN_MARGIN), case
        assert np.all(lp[sure] <= kernel[sure] + 1e-9), case
        assert not np.any(lp[sure] > orthant._LP_MARGIN), case
        settled += np.count_nonzero(sure)
    assert settled > 0


_ROUTES = {
    # The largest open blocks of the benchmark pool and of (3, 18, 1500).
    (13, 30, 2): "kernel",
    (16, 12, 3): "kernel",
    (61, 18, 3): "kernel",
    # One (40, 3) input to `intersects_negative_orthant`, a (4, 24) tail
    # block and the generator's (5, 15) embedding.
    (1, 40, 3): "highs",
    (6, 24, 4): "highs",
    (1, 20, 5): "highs",
}


@pytest.mark.parametrize("m, d1, d", sorted(_ROUTES))
def test_blocks_go_where_the_cost_rule_sends_them(m, d1, d, monkeypatch, solver_calls):
    kernel_calls = []
    kernel = orthant._vertex_margins

    def recording_kernel(W, b):
        kernel_calls.append(W.shape)
        return kernel(W, b)

    monkeypatch.setattr(orthant, "_vertex_margins", recording_kernel)
    rng = np.random.default_rng(m + d1 + d)
    W, b = rng.standard_normal((m, d1, d)), rng.standard_normal((m, d1))
    orthant.hits(W, b)
    if _ROUTES[m, d1, d] == "kernel":
        assert kernel_calls == [(m, d1, d)] and solver_calls == []
    else:
        assert kernel_calls == [] and solver_calls == [m]
    # The largest level bounds the table even when d + 1 is past d1 / 2.
    assert orthant._table_size(40, 39) == math.comb(40, 20)


def test_verify_names_linprog_once_inside_the_block_kernel():
    """One HiGHS program in the package, inside the block kernel `orthant`
    owns, and no kernel name left in the verifier."""
    owners = [
        (path.name, fn.name)
        for path in sorted(Path(orthant.__file__).parent.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "linprog"
    ]
    assert owners == [("orthant.py", "_orthant_margins")]
    assert verify.linprog is orthant.linprog
    for name in ("_vertex_margins", "_table_size", "_unsure", "_orthant_margins"):
        assert not hasattr(verify, name), name


# --------------------------------------------------------- duality screen


def test_screen_leaves_the_pinned_trials_open_on_the_benchmark_pool():
    """The (2, 30, 1024) draws of bound-experiment seeds 0-31."""
    assert verify._SCREEN_ROWS == (8, 12, 20)
    left_open = dict.fromkeys(verify._SCREEN_ROWS, 0)
    rescreened = dict.fromkeys(verify._SCREEN_ROWS, 0)
    for seed in range(32):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        W, b = rng.standard_normal((1024, 30, 2)), rng.standard_normal((1024, 30))
        undecided = np.arange(1024)
        for rows in verify._SCREEN_ROWS:
            certified = orthant._screen_misses(W, b, rows)
            assert certified.dtype == bool and certified.shape == (1024,)
            left_open[rows] += np.count_nonzero(~certified)
            undecided = undecided[~orthant._screen_misses(W[undecided], b[undecided], rows)]
            rescreened[rows] += undecided.size
    assert left_open == {8: 2104, 12: 202, 20: 3}
    # Each pass certifies every trial the pass before it did, so the cascade
    # leaves what each pass leaves on the whole chunk.  Trial 364 of seed 10
    # has two rows among its 12 largest offsets antiparallel to within a sine
    # of 9.6e-7; its subsets with clear minors certify it at 12 rows at
    # -1.635, its optimum.
    assert rescreened == left_open


@pytest.mark.parametrize("d1", [3, 4, 5, 8, 9, 30])
def test_screen_certifies_only_misses(d1):
    """Every trial the screen certifies has an LP optimum at or below `_LP_MARGIN`."""
    rng = np.random.default_rng(d1)
    n = 250
    certified = total = 0
    cases = ("generic", "parallel", "near-parallel", "zero-row", "scaled-duplicate")
    for d in (1, 2, 3, 4):
        for case in cases:
            W, b = rng.standard_normal((n, d1, d)), rng.standard_normal((n, d1))
            b[:, :3] += 2.0  # keep the altered rows among the largest offsets
            if case == "parallel":
                W[:, 1] = -2.0 * W[:, 0]
                W[:, 2] = 0.5 * W[:, 0]
            elif case == "near-parallel":
                W[:, 1:3] = [[-1.0], [1.0]] * W[:, :1] + 1e-13 * rng.standard_normal((n, 2, d))
            elif case == "zero-row":
                W[:, 1] = 0.0
            elif case == "scaled-duplicate":
                scale = rng.uniform(0.5, 2.0, n)
                W[:, 1] = scale[:, None] * W[:, 0]
                b[:, 1] = scale * b[:, 0]
            misses = np.zeros(n, dtype=bool)
            for rows in verify._SCREEN_ROWS:
                mask = orthant._screen_misses(W, b, rows)
                assert mask.dtype == bool and mask.shape == (n,), (d, case, rows)
                certified += np.count_nonzero(mask)
                misses |= mask
            total += len(verify._SCREEN_ROWS) * n
            if misses.any():
                margins = orthant._orthant_margins(W[misses], b[misses])
                assert np.all(margins <= orthant._LP_MARGIN), (d, case)
    assert 0 < certified < total


def test_screen_passes_run_only_between_d_and_d1(monkeypatch):
    """On at most d rows the kernel certifies nothing, on d1 rows a pass would
    be the full kernel, and a pass whose kernel work on the open trials costs
    more than one HiGHS call on them would be dearer than solving them: a
    pass runs only when d < rows < d1 and `_kernel_pays`."""
    passes = []
    screen = verify._screen_misses

    def recording_screen(W, b, rows):
        passes.append((rows, len(W)))
        return screen(W, b, rows)

    monkeypatch.setattr(verify, "_screen_misses", recording_screen)
    expected = {(1, 1): [], (2, 8): [], (2, 9): [8], (2, 30): [8, 12, 20], (8, 12): [],
                (7, 13): [8, 12], (11, 30): [12], (12, 30): []}
    for (d, d1), rows in expected.items():
        passes.clear()
        empirical_orthant_bound(d, d1, 5, seed=0)
        assert [r for r, _ in passes] == rows, (d, d1)
    # At (4, 24) a 20-row pass costs the kernel C(20, 5) = 15,504 subsets a
    # trial: under one HiGHS call for the one trial of 12 that the 12-row
    # pass leaves open, over it for the 9 of 20.
    for trials, screened in ((12, [(8, 12), (12, 8), (20, 1)]), (20, [(8, 20), (12, 9)])):
        passes.clear()
        empirical_orthant_bound(4, 24, trials, seed=0)
        assert passes == screened, trials
    assert orthant._kernel_pays(1, 20, 4) and not orthant._kernel_pays(9, 20, 4)


def test_a_full_chunk_prices_each_pass_per_screen_block(monkeypatch):
    """The screen and `hits` take the open trials 128 at a time, so a pass is
    priced on one such block: a full chunk at (11, 30) still runs its 12-row
    pass, 924 * 12 units a trial, though on all 4096 trials at once that
    would cost more than one HiGHS call on them."""
    passes = []

    def recording_screen(W, b, rows):
        passes.append((rows, len(W)))
        return np.zeros(len(W), dtype=bool)

    monkeypatch.setattr(verify, "_screen_misses", recording_screen)
    monkeypatch.setattr(orthant, "hits", lambda W, b: np.zeros(len(W), dtype=bool))
    empirical_orthant_bound(11, 30, 4096, seed=0)
    assert passes == [(12, 4096)]
    assert orthant._kernel_pays(orthant._LP_BLOCK, 12, 11)
    assert not orthant._kernel_pays(4096, 12, 11)


def test_a_near_antiparallel_pair_is_certified_without_a_solver(solver_calls):
    """Trial 230 of chunk 19 of the default (2, 30, 100000) run, seed 0: two
    of its 8 largest-offset rows are antiparallel to within a sine of 6e-7,
    which leaves it outside general position on its top rows and on all 30."""
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(25)[19])
    W, b = rng.standard_normal((4096, 30, 2)), rng.standard_normal((4096, 30))
    W, b = W[230:231], b[230:231]
    top = np.argsort(-b[0])[:8]
    unit = W[0, top] / np.linalg.norm(W[0, top], axis=1)[:, None]
    sines = np.abs(np.outer(unit[:, 0], unit[:, 1]) - np.outer(unit[:, 1], unit[:, 0]))
    assert np.min(sines[np.triu_indices(8, 1)]) < 1e-6
    margin = orthant._vertex_margins(W[:, top], b[:, top])[0]
    assert margin <= -orthant._SCREEN_MARGIN
    assert orthant._screen_misses(W, b, 8).all()
    assert math.isclose(orthant._orthant_margins(W, b)[0], -2.469, abs_tol=1e-3)
    solver_calls.clear()
    assert not orthant.hits(W, b).any()
    assert solver_calls == []


def test_the_benchmark_pool_makes_no_solver_call(solver_calls):
    """The three screen passes and the kernel settle every (2, 30, 1024) trial."""
    for seed in range(32):
        assert empirical_orthant_bound(2, 30, 1024, seed=seed).hits == 0
    assert solver_calls == []


# ------------------------------------------------------- bound experiment


def test_bound_value_closed_form():
    got = orthant_bound_value(2, 30)
    assert math.isclose(got, (math.e * 30 / 2) ** 3 / 2**30, rel_tol=1e-12)
    assert 5e-5 < got < 8e-5


def test_vacuous_bound_still_reports_a_rate():
    exp = empirical_orthant_bound(1, 1, 200, seed=3)
    assert exp.bound == math.e**2 / 2 and exp.bound > 1.0
    assert 0.0 <= exp.rate <= 1.0


def test_wide_experiment_stays_under_the_bound():
    exp = empirical_orthant_bound(2, 30, 100_000, seed=0)
    assert exp.rate <= exp.bound


# Hit counts of the per-trial solver, one LP per undecided trial; the block
# LPs must make the same decisions.
_PINNED_HITS = [
    ((2, 16, 20_000, 1), 44),
    ((2, 20, 20_000, 1), 7),
    ((3, 18, 1500, 1), 5),
    ((4, 24, 1000, 1), 0),
    ((3, 12, 5000, 0), 382),
]


@pytest.mark.parametrize(
    "cell, hits", _PINNED_HITS, ids=["-".join(map(str, cell)) for cell, _ in _PINNED_HITS]
)
def test_hit_counts_are_pinned(cell, hits):
    d, d1, trials, seed = cell
    assert empirical_orthant_bound(d, d1, trials, seed=seed).hits == hits


def test_rate_respects_bound_across_shapes():
    for d, d1, trials in ((2, 16, 20_000), (2, 20, 20_000), (3, 18, 1500), (4, 24, 1000)):
        exp = empirical_orthant_bound(d, d1, trials, seed=1)
        assert exp.bound < 1.0
        sigma = math.sqrt(exp.bound * (1.0 - exp.bound) / trials)
        assert exp.rate <= exp.bound + 3.0 * sigma, (d, d1)


# ------------------------------------------------------------ benchmarks


def test_doubling_first_layer_width_scales_queries():
    narrow = query_complexity_bench([(2, 4, 16, 0)], (1e-4,), (0, 1, 2))
    wide = query_complexity_bench([(2, 4, 32, 0)], (1e-4,), (0, 1, 2))
    assert all(r.ok for r in narrow + wide)
    factor = np.mean([r.total_queries for r in wide]) / np.mean(
        [r.total_queries for r in narrow]
    )
    assert 1.5 <= factor <= 3.0


def test_squaring_delta_doubles_the_scan_share():
    coarse = query_complexity_bench([(2, 4, 8, 0)], (1e-4,), (0, 1, 2))
    fine = query_complexity_bench([(2, 4, 8, 0)], (1e-8,), (0, 1, 2))
    assert all(r.ok for r in coarse + fine)
    factor = np.mean([r.phase_queries["scan"] for r in fine]) / np.mean(
        [r.phase_queries["scan"] for r in coarse]
    )
    assert 1.6 <= factor <= 2.4


def test_doubling_second_layer_width_scales_the_filter():
    """Filter work grows with the candidate count.

    A candidate leaves at its first failed fold test, and the others fold
    only across candidates still alive, so the cost is near-linear in the
    list length rather than the quadratic worst case; doubling d2 roughly
    doubles the filter's query bill (2.14 times on these seeds).
    """
    base = query_complexity_bench([(3, 6, 3, 9)], (1e-4,), (0, 1))
    doubled = query_complexity_bench([(3, 6, 3, 18)], (1e-4,), (0, 1))
    assert all(r.ok for r in base + doubled)
    factor = np.mean([r.phase_queries["filter"] for r in doubled]) / np.mean(
        [r.phase_queries["filter"] for r in base]
    )
    assert 1.7 <= factor <= 3.0


def test_predictor_formulas():
    row2 = BenchRow(depth=2, d=4, d1=8, d2=0, delta=1e-4, seed=0, ok=True,
                    total_queries=1)
    assert math.isclose(row2.predictor, 4 * 8 * math.log2(1e4), rel_tol=1e-12)
    row3 = BenchRow(depth=3, d=6, d1=3, d2=9, delta=1e-4, seed=0, ok=True,
                    total_queries=1)
    assert math.isclose(
        row3.predictor, 6 * 3 * 9 * math.log2(1e4) + 9 * 81, rel_tol=1e-12
    )


def test_fit_minimizes_the_worst_ratio():
    rows = [
        BenchRow(depth=2, d=1, d1=1, d2=0, delta=0.5, seed=s, ok=True,
                 total_queries=q)
        for s, q in ((0, 1), (1, 4))
    ]
    fit = fit_query_bound(rows, 2)
    assert math.isclose(fit.constant, 2.0) and math.isclose(fit.worst_ratio, 2.0)
    assert fit.n_rows == 2


def test_fit_requires_successful_rows():
    with pytest.raises(ValueError, match="no successful depth-2 rows"):
        fit_query_bound([], 2)


def test_bench_and_bound_csv_round_trip(tmp_path):
    rows = query_complexity_bench([(2, 2, 2, 0)], (1e-4,), (0,))
    bench_path = tmp_path / "bench.csv"
    bench_to_csv(rows, str(bench_path))
    assert bench_path.read_text().splitlines()[0] == (
        "depth,d,d1,d2,delta,seed,ok,total_queries,predictor,seconds,phases,"
        "phase_seconds,error")
    with open(bench_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 1
    assert parsed[0]["ok"] == "True"
    assert int(parsed[0]["total_queries"]) > 0
    assert "scan=" in parsed[0]["phases"]
    timed = dict(item.split("=") for item in parsed[0]["phase_seconds"].split(";"))
    assert list(timed) == ["scan", "recover", "refine", "skip"]
    assert all(float(t) >= 0.0 for t in timed.values())

    exp = empirical_orthant_bound(2, 4, 50, seed=0)
    bound_path = tmp_path / "bound.csv"
    bound_to_csv(exp, str(bound_path))
    with open(bound_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 1
    assert int(parsed[0]["trials"]) == 50
    assert float(parsed[0]["bound"]) == exp.bound
