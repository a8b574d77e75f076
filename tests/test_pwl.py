"""Affine reconstruction, 1-d break search, hyperplane recovery."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netpeel
import netpeel.pwl as pwl
from helpers import dense_grid_kinks, scalar_line, synth_pwl, unit_plane
from netpeel.config import CANON_FLOOR, PROBE_FLOOR
from netpeel.margins import plane_gap
from netpeel.oracle.generate import generate_three_layer, generate_two_layer
from netpeel.oracle.nets import TwoLayerNet, evaluator
from netpeel.oracle.query import QueryOracle, axis_ray, as_oracle
from netpeel.pwl import (
    GeneralPositionError,
    PieceBudgetError,
    all_critical_points_1d,
    is_critical_point,
    iter_critical_points_1d,
    leftmost_critical_point_1d,
    reconstruct_affine,
    reconstruct_critical_hyperplane,
)


def relu(z):
    return np.maximum(z, 0.0)


def _rng():
    """A fresh copy of the generator `extract_three_layer` seeds collect with."""
    return np.random.default_rng(12345)


# ---------------------------------------------------------------- affine fits


def test_affine_of_constant():
    oracle = QueryOracle(lambda x: 3.0, 2)
    lam = reconstruct_affine(oracle, [0.4, 0.2], 0.1)
    assert np.array_equal(lam.w, np.zeros(2))
    assert lam.b == 3.0


def test_affine_matches_known_coefficients():
    oracle = QueryOracle(lambda x: 2.0 * x[0] - x[1] + 1.0, 2)
    lam = reconstruct_affine(oracle, [1.0, 1.0], 0.01)
    assert np.max(np.abs(lam.w - [2.0, -1.0])) < 1e-9
    assert abs(lam.b - 1.0) < 1e-9


def test_affine_on_active_relu_side():
    """One relu probed deep on its active side looks purely affine."""
    oracle = QueryOracle(lambda x: relu(x[0] - 5.0), 1)
    lam = reconstruct_affine(oracle, [10.0], 0.1)
    assert abs(lam.w[0] - 1.0) < 1e-9
    assert abs(lam.b - (-5.0)) < 1e-9


@given(d=st.integers(1, 6), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_affine_uses_exactly_d_plus_one_queries(d, seed):
    rng = np.random.default_rng(seed)
    w, b = rng.standard_normal(d), float(rng.standard_normal())
    oracle = QueryOracle(lambda x: float(w @ x) + b, d)
    lam = reconstruct_affine(oracle, rng.standard_normal(d), 0.01)
    assert oracle.count == d + 1
    assert np.max(np.abs(lam.w - w)) < 1e-6


def test_affine_queries_the_point_then_one_step_along_each_axis():
    """The probes share one buffer, so each is recorded as a copy when it is
    queried; the oracle sees x, then x + delta*e_i in axis order, and the
    caller's x comes back unchanged."""
    seen = []

    def fn(y):
        seen.append(y.copy())
        return float(y.sum())

    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=5)
    before = x.copy()
    reconstruct_affine(QueryOracle(fn, 5), x, 1e-3)
    want = [before] + [before + 1e-3 * e for e in np.eye(5)]
    assert len(seen) == len(want)
    assert all(np.array_equal(got, w) for got, w in zip(seen, want))
    assert np.array_equal(x, before)


# ------------------------------------------------------------ leftmost break


def test_leftmost_single_kink():
    line = scalar_line(lambda t: relu(t - 0.5))
    t = leftmost_critical_point_1d(line, 1e-4, (0.0, 100.0))
    assert abs(t - 0.5) < 1e-8


def test_leftmost_negative_kink_comes_first():
    line = scalar_line(lambda t: relu(t + 1.0) + relu(t - 1.0))
    t = leftmost_critical_point_1d(line, 1e-4, (-10.0, 10.0))
    assert abs(t - (-1.0)) < 1e-8


def test_leftmost_of_affine_is_none():
    line = scalar_line(lambda t: 2.0 * t + 1.0)
    assert leftmost_critical_point_1d(line, 1e-4, (-10.0, 10.0)) is None


def test_leftmost_walks_seeded_kinks_on_shrinking_windows():
    rng = np.random.default_rng(42)
    kinks = np.sort(rng.uniform(-7.0, 7.0, size=5))
    while np.min(np.diff(kinks)) < 0.3:
        kinks = np.sort(rng.uniform(-7.0, 7.0, size=5))
    jumps = rng.uniform(0.5, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    line = scalar_line(lambda t: sum(c * relu(t - k) for c, k in zip(jumps, kinks)))
    lo = -10.0
    for expected in kinks:
        t = leftmost_critical_point_1d(line, 1e-4, (lo, 10.0))
        assert abs(t - expected) < 1e-8
        lo = t + 0.05
    assert leftmost_critical_point_1d(line, 1e-4, (lo, 10.0)) is None


def test_leftmost_rejects_pieces_with_matching_slopes():
    """A slope jump below the resolution floor is a degeneracy, not a break."""
    line = scalar_line(lambda t: t + 6e-5 * relu(t - 1.0))
    with pytest.raises(GeneralPositionError, match="pieces share affine function"):
        leftmost_critical_point_1d(line, 1e-4, (0.0, 10.0))


def test_leftmost_query_budget():
    for delta, window in ((1e-4, (0.0, 100.0)), (1e-3, (-1e3, 1e3))):
        oracle = QueryOracle(lambda x: relu(float(x[0]) - 0.5), 1)
        t = leftmost_critical_point_1d(axis_ray(oracle, 0), delta, window)
        assert abs(t - 0.5) < 1e-6
        bound = 2 * (math.ceil(math.log2(2.0 / delta**2)) + 1) + 8
        assert oracle.count <= bound


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-8])
def test_leftmost_settles_an_affine_window_with_two_fits(delta):
    oracle = QueryOracle(lambda x: 2.0 * float(x[0]) + 1.0, 1)
    assert leftmost_critical_point_1d(axis_ray(oracle, 0), delta, (0.0, 100.0)) is None
    assert oracle.count == 4


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-8])
def test_leftmost_finds_one_kink_where_the_flanking_lines_cross(delta):
    """The count does not grow like log2(1/delta): the lines meet at the kink."""
    oracle = QueryOracle(lambda x: relu(float(x[0]) - 0.5), 1)
    t = leftmost_critical_point_1d(axis_ray(oracle, 0), delta, (0.0, 100.0))
    assert abs(t - 0.5) < 1e-6
    assert oracle.count <= 20


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-8])
def test_leftmost_rejects_a_crossing_on_the_far_piece(delta):
    """Slopes 0, -1, 2 with kinks at 1 and 2: the flanking lines meet at 2.5,
    on the far piece, where the two lines agree in value by construction."""
    line = scalar_line(lambda t: -relu(t - 1.0) + 3.0 * relu(t - 2.0))
    t = leftmost_critical_point_1d(line, delta, (0.0, 10.0))
    assert abs(t - 1.0) < 1e-6


# ------------------------------------------------------------ full 1-d sweep


def test_all_critical_points_of_affine_is_empty():
    line = scalar_line(lambda t: -0.5 * t + 2.0)
    assert all_critical_points_1d(line, 1e-4, 10, (-10.0, 10.0)) == []


def test_all_critical_points_three_kinks():
    line = scalar_line(lambda t: relu(t - 1.0) + relu(t - 2.0) + relu(t - 3.0))
    pts = all_critical_points_1d(line, 1e-4, 10, (-5.0, 10.0))
    assert np.max(np.abs(np.array(pts) - [1.0, 2.0, 3.0])) < 1e-8


def test_all_critical_points_enforces_budget():
    line = scalar_line(lambda t: relu(t - 1.0) + relu(t - 2.0) + relu(t - 3.0))
    with pytest.raises(PieceBudgetError, match="piece budget exceeded"):
        all_critical_points_1d(line, 1e-4, 2, (-5.0, 10.0))


def test_far_blocks_confirm_emptiness_with_a_wider_step():
    """Cancelling unit pairs keep |f| small while the evaluation noise grows
    with |w t|: a delta step far out reads that noise as a break, the sweep's
    magnitude-scaled step does not."""
    rows, offs = [], []
    for k in range(5):
        w, b = np.array([1e3 * (1 + 0.1 * k), 0.3]), 0.7 * k + 0.1
        rows += [w, w * (1 + 1e-9)]
        offs += [b, b + 1]
    line = axis_ray(as_oracle(TwoLayerNet(rows, offs, [1, -1] * 5)), 0)
    assert all_critical_points_1d(line, 1e-4, 64, (16, 1e4)) == []


def test_a_sweep_reads_each_point_once(monkeypatch):
    """Breaks in the first and third blocks of (-1, 300), none in (16, 256):
    the sweep resumes after each break and crosses two block edges, yet reads
    no t twice, and finds what the same searches find on the bare line."""
    kinks = (2.0, 5.0, 9.0, 270.0, 285.0)
    slopes = (1.0, -2.0, 3.0, -1.5, 0.5)
    reads = []

    def line(t):
        reads.append(t)
        return sum(a * max(t - k, 0.0) for a, k in zip(slopes, kinks))

    window = (-1.0, 300.0)
    found = list(iter_critical_points_1d(line, 1e-4, window))
    assert np.max(np.abs(np.array(found) - kinks)) < 1e-8
    assert len(reads) == len(set(reads))
    reads.clear()
    leftmost = pwl.leftmost_critical_point_1d
    monkeypatch.setattr(pwl, "leftmost_critical_point_1d",
                        lambda _read, step, block: leftmost(line, step, block))
    assert list(iter_critical_points_1d(line, 1e-4, window)) == found
    assert len(reads) > len(set(reads))


def _calls(node, name):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]


def test_only_the_sweep_runs_leftmost_searches():
    """Every ray sweep goes through `iter_critical_points_1d`, so no second copy
    of the block walk and its step rule can grow back."""
    name = "leftmost_critical_point_1d"
    package = Path(netpeel.__file__).resolve().parent
    trees = {str(path.relative_to(package)): ast.parse(path.read_text())
             for path in package.rglob("*.py")}
    assert sum(len(_calls(tree, name)) for tree in trees.values()) == 1
    sites = [func.name for func in ast.walk(trees["pwl.py"])
             if isinstance(func, ast.FunctionDef) and _calls(func, name)]
    assert sites == ["iter_critical_points_1d"]


def test_axis_restriction_yields_exactly_the_axis_crossings():
    """On an axis ray the breaks are the units' positive crossings, no more."""
    net = generate_two_layer(3, 5, np.random.default_rng(3))
    oracle = as_oracle(net)
    for axis in range(3):
        truth = sorted(-b / w[axis] for w, b in zip(net.W, net.b) if w[axis] != 0.0
                       and -b / w[axis] > 0.0)
        found = all_critical_points_1d(axis_ray(oracle, axis), 1e-4, 32, (0.0, 52.0))
        assert len(found) == len(truth)
        assert np.max(np.abs(np.array(found) - np.array(truth))) < 1e-7


def test_sweep_matches_dense_grid_scan():
    delta = 1e-4
    for seed in range(20):
        fn, kinks = synth_pwl(np.random.default_rng(seed))
        expected = dense_grid_kinks(fn, -10.0, 10.0, delta / 4.0)
        found = all_critical_points_1d(scalar_line(fn), delta, 12, (-10.0, 10.0))
        assert len(found) == len(expected) == len(kinks)
        if found:
            assert np.max(np.abs(np.array(found) - np.array(expected))) < 1e-6


# ------------------------------------------------------- hyperplane recovery


def test_hyperplane_from_single_kink():
    oracle = QueryOracle(lambda x: relu(x[0] + x[1] - 1.0), 2)
    normal, offset, _ = reconstruct_critical_hyperplane(oracle, [0.5, 0.5], 1e-4, _rng(),
                                                        radius=1e-4)
    r = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(normal - [r, r])) < 1e-8
    assert abs(offset - (-r)) < 1e-8


def test_hyperplane_matches_ground_truth_at_axis_point():
    """The probes leave the orthant, so the net is queried on all of R^4."""
    net = generate_two_layer(4, 4, np.random.default_rng(17))
    oracle = QueryOracle(evaluator(net), 4)
    for j, (w, b) in enumerate(zip(net.W, net.b)):
        axis = j % 4
        x = np.zeros(4)
        x[axis] = -b / w[axis]
        normal, offset, _ = reconstruct_critical_hyperplane(oracle, x, 1e-4, _rng(),
                                                            radius=1e-4)
        truth_normal, truth_offset = unit_plane(w, b)
        assert plane_gap(normal, offset, [truth_normal], [truth_offset]) <= 1e-8


def test_hyperplane_translation_equivariance():
    shift = np.array([0.3, -0.7])
    base = QueryOracle(lambda x: relu(x[0] + x[1] - 1.0), 2)
    moved = QueryOracle(lambda x: relu((x[0] - 0.3) + (x[1] + 0.7) - 1.0), 2)
    n0, o0, _ = reconstruct_critical_hyperplane(base, [0.5, 0.5], 1e-4, _rng(), radius=1e-4)
    n1, o1, _ = reconstruct_critical_hyperplane(moved, shift + [0.5, 0.5], 1e-4, _rng(),
                                                radius=1e-4)
    assert np.max(np.abs(n1 - n0)) < 1e-8
    assert abs(o1 - (o0 - float(n0 @ shift))) < 1e-8


def test_hyperplane_is_seed_invariant():
    net = generate_two_layer(3, 3, np.random.default_rng(8))
    oracle = QueryOracle(evaluator(net), 3)
    x = np.zeros(3)
    x[0] = -net.b[0] / net.W[0, 0]
    planes = [
        reconstruct_critical_hyperplane(oracle, x, 1e-4, rng=np.random.default_rng(s),
                                        radius=1e-4)
        for s in (1, 2, 3)
    ]
    (n0, o0, _), *rest = planes
    for normal, offset, _ in rest:
        assert np.max(np.abs(normal - n0)) < 1e-8
        assert abs(offset - o0) < 1e-8


def test_hyperplane_fails_off_any_break():
    oracle = QueryOracle(lambda x: x[0] + 2.0, 2)
    with pytest.raises(GeneralPositionError, match="no hyperplane detected"):
        reconstruct_critical_hyperplane(oracle, [1.0, 1.0], 1e-4, _rng(), radius=1e-4)


# --------------------------------------------------------------- criticality


def test_affine_point_is_not_critical():
    oracle = QueryOracle(lambda x: 3.0 * x[0] - x[1], 2)
    assert not is_critical_point(oracle, [1.0, 2.0], [0.6, 0.8], 1e-4)


def test_relu_origin_is_critical():
    oracle = QueryOracle(lambda x: relu(x[0]), 1)
    assert is_critical_point(oracle, [0.0], [1.0], 1e-4)


def test_criticality_test_costs_three_queries():
    oracle = QueryOracle(lambda x: relu(x[0]) + x[1], 2)
    for x, bends in (([0.0, 1.0], True), ([1.0, 1.0], False)):
        before = oracle.count
        assert is_critical_point(oracle, x, [1.0, 0.0], 1e-4) == bends
        assert oracle.count - before == 3


def test_a_faint_bend_reads_as_a_bend_and_a_fainter_one_as_flat():
    """A bend reads as one above `FOLD_BAND` times tau.  A 0.5 tau bend, the
    reading of a true plane where the next layer barely depends on its unit,
    is a bend; a 1e-4 tau bend is flat."""
    delta = 4e-4
    tau = PROBE_FLOOR * delta  # f(0) = 0, so the floor sets tau
    for ratio, bends in ((0.5, True), (1e-4, False)):
        slope = ratio * tau / delta
        oracle = QueryOracle(lambda x, slope=slope: slope * relu(x[0]), 1)
        assert is_critical_point(oracle, [0.0], [1.0], delta) == bends, ratio


def test_criticality_on_and_off_a_known_plane():
    net = generate_three_layer(3, 2, 6, np.random.default_rng(2))
    oracle = as_oracle(net)
    delta = 1e-4
    w0, b0 = net.W[0], float(net.b[0])
    tangent = np.eye(3)[int(np.argmin(np.abs(w0)))]
    tangent = tangent - float(w0 @ tangent) * w0
    tangent /= np.linalg.norm(tangent)
    for s in np.linspace(-3.0, 3.0, 121):
        x = -b0 * w0 + s * tangent
        others = [abs(float(net.W[j] @ x + net.b[j])) for j in (1,)]
        z = net.top.W @ relu(net.W @ x + net.b) + net.top.b
        if min(others) > 0.05 and float(np.min(np.abs(z))) > 0.1:
            break
    else:
        pytest.fail("no well-isolated point found on the plane")
    assert is_critical_point(oracle, x, w0, delta)
    assert not is_critical_point(oracle, x, tangent, delta)
    assert not is_critical_point(oracle, x + 10.0 * delta * w0, w0, delta)


# ---------------------------------------------------------------- invariants


@given(d=st.integers(1, 6), zeros=st.integers(0, 5), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_hyperplane_is_unit_canonical_and_blind_to_the_active_side(d, zeros, seed):
    """relu(w.x + b) and relu(-w.x - b) bend on one plane: both give a unit
    normal whose first entry above CANON_FLOOR is positive, and the same
    (normal, offset).  Up to d - 1 leading entries of w are zero, so the
    orientation may be read past them.  The side gradients tell the two
    apart: with z = normal . y + offset, relu(z) moves only on the + side
    (the first row) and relu(-z) only on the - side."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w[:min(zeros, d - 1)] = 0.0
    w *= rng.uniform(0.5, 2.0) / np.linalg.norm(w)
    b = float(rng.uniform(-1.0, 1.0))
    u = rng.standard_normal(d)
    x = u - float(w @ u + b) / float(w @ w) * w
    found = [
        reconstruct_critical_hyperplane(QueryOracle(lambda y, s=s: relu(s * (w @ y + b)), d),
                                        x, 1e-4, _rng(), radius=1e-4)
        for s in (1.0, -1.0)
    ]
    for normal, _, _ in found:
        assert abs(float(np.linalg.norm(normal)) - 1.0) < 1e-12
        assert normal[np.abs(normal) > CANON_FLOOR][0] > 0.0
    (n0, o0, _), (n1, o1, _) = found
    assert np.max(np.abs(n1 - n0)) < 1e-8 and abs(o1 - o0) < 1e-8
    truth_normal, truth_offset = unit_plane(w, b)
    assert np.max(np.abs(n0 - truth_normal)) < 1e-8 and abs(o0 - truth_offset) < 1e-8
    # relu(s (w.y + b)) = relu(k z) with k = s (n0 . w): the gradient is k n0
    # on the side where k z > 0 and zero on the other.
    for s, (_, _, grads) in zip((1.0, -1.0), found):
        k = s * float(n0 @ w)
        move = np.array([k * n0, np.zeros(d)])
        assert np.max(np.abs(grads - (move if k > 0 else move[::-1]))) < 1e-6


def test_close_to_matches_planes_whose_first_coordinate_straddles_the_floor():
    # One set, 2e-10 apart, whose first coordinates straddle CANON_FLOOR: a
    # canonical orientation would flip only the first normal. Candidate planes
    # are matched by plane_gap, which compares both orientations.
    a, b = np.array([-1.1e-9, 1.0, 0.0]), np.array([0.9e-9, -1.0, 0.0])
    assert plane_gap(a, 0.3, [b], [-0.3]) <= 1e-7 and plane_gap(b, -0.3, [a], [0.3]) <= 1e-7
    assert plane_gap(a, 0.3, [b], [-0.3]) > 1e-10
