"""Affine reconstruction, 1-d break search, hyperplane recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_grid_kinks, scalar_line, synth_pwl
from netpeel.oracle.generate import generate_three_layer, generate_two_layer
from netpeel.oracle.query import QueryOracle, axis_ray, as_oracle
from netpeel.pwl import (
    GeneralPositionError,
    Hyperplane,
    PieceBudgetError,
    all_critical_points_1d,
    is_critical_point,
    leftmost_critical_point_1d,
    reconstruct_affine,
    reconstruct_critical_hyperplane,
)


def relu(z):
    return np.maximum(z, 0.0)


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
        line = scalar_line(lambda t: relu(t - 0.5))
        t = leftmost_critical_point_1d(line, delta, window)
        assert abs(t - 0.5) < 1e-6
        bound = 2 * (math.ceil(math.log2(2.0 / delta**2)) + 1) + 8
        assert line.parent.count <= bound


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


def test_axis_restriction_yields_exactly_the_axis_crossings():
    """On an axis ray the breaks are the units' positive crossings, no more."""
    net = generate_two_layer(3, 5, np.random.default_rng(3))
    oracle = as_oracle(net)
    for axis in range(3):
        truth = sorted(-n.b / n.w[axis] for n in net.neurons if n.w[axis] != 0.0
                       and -n.b / n.w[axis] > 0.0)
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
    plane = reconstruct_critical_hyperplane(oracle, [0.5, 0.5], 1e-4)
    r = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(plane.normal - [r, r])) < 1e-8
    assert abs(plane.offset - (-r)) < 1e-8


def test_hyperplane_matches_ground_truth_at_axis_point():
    net = generate_two_layer(4, 4, np.random.default_rng(17))
    oracle = as_oracle(net)
    for j, neuron in enumerate(net.neurons):
        axis = j % 4
        x = np.zeros(4)
        x[axis] = -neuron.b / neuron.w[axis]
        plane = reconstruct_critical_hyperplane(oracle, x, 1e-4)
        truth = Hyperplane.from_coefficients(neuron.w, neuron.b)
        assert plane.close_to(truth, 1e-8)


def test_hyperplane_translation_equivariance():
    shift = np.array([0.3, -0.7])
    base = QueryOracle(lambda x: relu(x[0] + x[1] - 1.0), 2)
    moved = QueryOracle(lambda x: relu((x[0] - 0.3) + (x[1] + 0.7) - 1.0), 2)
    p0 = reconstruct_critical_hyperplane(base, [0.5, 0.5], 1e-4)
    p1 = reconstruct_critical_hyperplane(moved, shift + [0.5, 0.5], 1e-4)
    assert np.max(np.abs(p1.normal - p0.normal)) < 1e-8
    assert abs(p1.offset - (p0.offset - float(p0.normal @ shift))) < 1e-8


def test_hyperplane_is_seed_invariant():
    net = generate_two_layer(3, 3, np.random.default_rng(8))
    oracle = as_oracle(net)
    x = np.zeros(3)
    x[0] = -net.neurons[0].b / net.neurons[0].w[0]
    planes = [
        reconstruct_critical_hyperplane(oracle, x, 1e-4, rng=np.random.default_rng(s))
        for s in (1, 2, 3)
    ]
    for p in planes[1:]:
        assert np.max(np.abs(p.normal - planes[0].normal)) < 1e-8
        assert abs(p.offset - planes[0].offset) < 1e-8


def test_hyperplane_fails_off_any_break():
    oracle = QueryOracle(lambda x: x[0] + 2.0, 2)
    with pytest.raises(GeneralPositionError, match="no hyperplane detected"):
        reconstruct_critical_hyperplane(oracle, [1.0, 1.0], 1e-4)


# --------------------------------------------------------------- criticality


def test_affine_point_is_not_critical():
    oracle = QueryOracle(lambda x: 3.0 * x[0] - x[1], 2)
    assert not is_critical_point(oracle, [1.0, 2.0], 1e-4)


def test_relu_origin_is_critical():
    oracle = QueryOracle(lambda x: relu(x[0]), 1)
    assert is_critical_point(oracle, [0.0], 1e-4)


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
        z = net.top.weight_matrix() @ relu(net.W @ x + net.b) + net.top.biases()
        if min(others) > 0.05 and float(np.min(np.abs(z))) > 0.1:
            break
    else:
        pytest.fail("no well-isolated point found on the plane")
    assert is_critical_point(oracle, x, delta)
    assert not is_critical_point(oracle, x + 10.0 * delta * w0, delta)


# ---------------------------------------------------------------- invariants


@given(d=st.integers(1, 6), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_canonicalization_is_idempotent_and_sign_invariant(d, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    if np.linalg.norm(w) < 1e-6:
        w = np.ones(d)
    b = float(rng.standard_normal())
    plane = Hyperplane.from_coefficients(w, b).canonical()
    again = plane.canonical()
    assert np.array_equal(again.normal, plane.normal) and again.offset == plane.offset
    flipped = Hyperplane.from_coefficients(-w, -b).canonical()
    assert np.array_equal(flipped.normal, plane.normal)
    assert flipped.offset == plane.offset
