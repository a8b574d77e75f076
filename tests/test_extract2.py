"""Depth-2 recovery: crossing search, sign and weight recovery, peeling loop."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import near_coincident_net, unit_plane
from netpeel import extract2
from netpeel.extract2 import (
    extract_two_layer,
    find_neuron_crossing,
    recover_neuron,
    refine_units,
    subtracted_oracle,
)
from netpeel.margins import plane_gap
from netpeel.extract3 import extract_three_layer
from netpeel.oracle.generate import generate_three_layer, generate_two_layer
from netpeel.oracle.nets import TwoLayerNet, batch_eval, evaluator, relu
from netpeel.oracle.query import QueryOracle, as_oracle, axis_ray
from netpeel.pwl import (
    GeneralPositionError,
    PieceBudgetError,
    all_critical_points_1d,
    iter_critical_points_1d,
)
from netpeel.verify import functional_equivalence

DELTA = 1e-4


def _relu_oracle(w, b, sign=1, d=None):
    d = len(w) if d is None else d
    w = np.asarray(w, dtype=float)
    return QueryOracle(lambda x: sign * relu(float(w @ x) + b), d, "nonneg")


def _bracketed_truth(net, x1, x2):
    """Index of the unique ground-truth unit changing state on [x1, x2]."""
    flips = [
        j
        for j, (w, b) in enumerate(zip(net.W, net.b))
        if (float(w @ x1) + b > 0.0) != (float(w @ x2) + b > 0.0)
    ]
    assert len(flips) == 1
    return flips[0]


# ------------------------------------------------------------ crossing search


def test_crossing_of_single_unit():
    oracle = _relu_oracle([1.0], -2.0)
    x1, x2, axis = find_neuron_crossing(oracle, DELTA)
    assert axis == 0
    assert x1[0] < 2.0 < x2[0]
    assert abs((x1[0] + x2[0]) / 2.0 - 2.0) < 1e-6


def test_crossing_scans_every_axis_of_the_oracle():
    """The rays scanned are the oracle's own: a unit that bends only along
    the last axis is found there, also when the scan starts at that axis."""
    oracle = _relu_oracle([0.0, 0.0, 1.0], -2.0)
    x1, x2, axis = find_neuron_crossing(oracle, DELTA)
    assert axis == 2 and x1.shape == x2.shape == (3,)
    assert x1[:2].tolist() == x2[:2].tolist() == [0.0, 0.0] and x1[2] < 2.0 < x2[2]
    assert find_neuron_crossing(oracle, DELTA, start_axis=2)[2] == 2


def test_crossing_of_affine_is_none():
    oracle = QueryOracle(lambda x: 3.0 * x[0] - x[1] + 1.0, 2, "nonneg")
    assert find_neuron_crossing(oracle, DELTA) is None


def test_crossing_brackets_exactly_one_unit():
    net = generate_two_layer(3, 6, np.random.default_rng(0))
    x1, x2, _ = find_neuron_crossing(as_oracle(net), DELTA)
    _bracketed_truth(net, x1, x2)


def _two_crossings(t0, t1):
    """A 1-d net with units crossing axis 0 at t0 and t1, and the t of every query."""
    net = TwoLayerNet([[1.0], [0.5]], [-t0, -0.5 * t1], [1, -1])
    ev = evaluator(net)
    seen = []

    def fn(x):
        seen.append(float(x[0]))
        return ev(x)

    return net, QueryOracle(fn, 1, "nonneg"), seen


@pytest.mark.parametrize("t0, t1, eps", [
    (2.0, 2.004, 0.002),   # t1 inside the reach 0.02: eps is half the gap
    (2.0, 2.5, 0.01),      # t1 past the reach: eps is the cap
    (0.01, 0.018, 0.004),  # t0 < 0.02, so the reach is t0; t1 inside it
    (0.01, 0.025, 0.005),  # t1 past the reach t0: eps is t0/2
])
def test_crossing_search_looks_for_the_next_break_only_within_reach(t0, t1, eps):
    net, oracle, seen = _two_crossings(t0, t1)
    x1, x2, axis = find_neuron_crossing(oracle, DELTA)
    assert axis == 0
    assert abs((x2[0] - x1[0]) / 2.0 - eps) < 1e-9
    assert _bracketed_truth(net, x1, x2) == 0
    # The search first sweeps the ray for t0 alone ...
    _, alone, first = _two_crossings(t0, t1)
    found = next(iter_critical_points_1d(axis_ray(alone, 0), DELTA, (1e-4, 1 / DELTA)))
    assert abs(found - t0) < 1e-9
    assert seen[:len(first)] == first
    # ... then looks for t1 only up to the reach min(0.02, t0) plus four sweep
    # steps; a located break's last fit reaches one step further.
    assert max(seen[len(first):]) <= t0 + min(0.02, t0) + 5 * DELTA


# ------------------------------------------------------------- sign recovery


def _sign(oracle, x1, x2):
    """The sign `recover_neuron` reads off its slope jump; it costs no query
    beyond the jump probe and the two fits."""
    before = oracle.count
    try:
        return recover_neuron(oracle, x1, x2, DELTA)[2]
    finally:
        assert oracle.count == before + 4 + 2 * (oracle.dim + 1)


def test_sign_of_positive_unit():
    oracle = _relu_oracle([1.0], -2.0)
    assert _sign(oracle, [1.9], [2.1]) == 1


def test_sign_of_negative_unit():
    oracle = _relu_oracle([1.0], -2.0, sign=-1)
    assert _sign(oracle, [1.9], [2.1]) == -1


def test_sign_without_a_kink_fails():
    """A segment inside the active region of a -1 unit has no kink to read."""
    oracle = _relu_oracle([1.0], -2.0, sign=-1)
    with pytest.raises(GeneralPositionError, match="endpoints in same linear region"):
        recover_neuron(oracle, [2.5], [2.9], DELTA)


def test_sign_matches_truth_across_seeds():
    for seed in range(100):
        net = generate_two_layer(2, 3, np.random.default_rng(seed))
        oracle = as_oracle(net)
        x1, x2, _ = find_neuron_crossing(oracle, DELTA)
        j = _bracketed_truth(net, x1, x2)
        assert _sign(oracle, x1, x2) == net.s[j]


# ----------------------------------------------------------- weight recovery


def test_recover_single_unit_exactly():
    oracle = _relu_oracle([1.0], -2.0)
    x1, x2, _ = find_neuron_crossing(oracle, DELTA)
    w, b, sign = recover_neuron(oracle, x1, x2, DELTA)
    assert abs(w[0] - 1.0) < 1e-9
    assert abs(b - (-2.0)) < 1e-9
    assert sign == 1


def test_recover_flipped_unit_is_affinely_equivalent():
    """sigma(-z) = sigma(z) - z, so either orientation is fine up to affine."""
    oracle = _relu_oracle([-1.0], 2.0)
    x1, x2, _ = find_neuron_crossing(oracle, DELTA)
    w, b, sign = recover_neuron(oracle, x1, x2, DELTA)
    errs = [max(abs(s * w[0] - (-1.0)), abs(s * b - 2.0)) for s in (1.0, -1.0)]
    assert min(errs) < 1e-7
    ts = np.linspace(0.0, 4.0, 9)
    diff = relu(2.0 - ts) - sign * relu(w[0] * ts + b)
    line = diff[0] + (diff[1] - diff[0]) / (ts[1] - ts[0]) * (ts - ts[0])
    assert np.max(np.abs(diff - line)) < 1e-9


def test_recover_matches_truth_up_to_orientation():
    net = generate_two_layer(3, 6, np.random.default_rng(0))
    oracle = as_oracle(net)
    x1, x2, _ = find_neuron_crossing(oracle, DELTA)
    j = _bracketed_truth(net, x1, x2)
    w, b, sign = recover_neuron(oracle, x1, x2, DELTA)
    errs = [
        max(float(np.max(np.abs(s * w - net.W[j]))), abs(s * b - net.b[j]))
        for s in (1.0, -1.0)
    ]
    assert min(errs) < 1e-7
    assert sign == net.s[j]


def test_recover_fails_in_a_single_region():
    oracle = _relu_oracle([1.0], -2.0)
    with pytest.raises(GeneralPositionError, match="endpoints in same linear region"):
        recover_neuron(oracle, [0.1], [0.3], DELTA)


# ------------------------------------------------------------------- peeling


def test_subtracting_the_only_unit_leaves_zero():
    oracle = _relu_oracle([1.0], 0.0)
    peeled = subtracted_oracle(oracle, TwoLayerNet([[1.0]], [0.0], [1]))
    for t in (0.0, 0.3, 1.7, 9.0):
        assert abs(peeled.query([t])) < 1e-12


def test_subtracting_flipped_copy_leaves_its_affine_part():
    oracle = _relu_oracle([1.0], 0.0)
    peeled = subtracted_oracle(oracle, TwoLayerNet([[-1.0]], [0.0], [1]))
    for t in (0.1, 0.5, 2.0, 7.0):
        assert abs(peeled.query([t]) - t) < 1e-12


def test_residual_after_full_peel_is_affine():
    net = generate_two_layer(3, 6, np.random.default_rng(4))
    oracle = as_oracle(net)
    got = extract_two_layer(oracle, 3, DELTA, 12)
    residual = subtracted_oracle(as_oracle(net), got.net)
    rng = np.random.default_rng(5)
    base = residual.query([1.0, 1.0, 1.0])
    gx = np.array([residual.query([2.0, 1.0, 1.0]), residual.query([1.0, 2.0, 1.0]),
                   residual.query([1.0, 1.0, 2.0])]) - base
    for x in rng.uniform(0.0, 8.0, size=(100, 3)):
        pred = base + float(gx @ (x - 1.0))
        assert abs(residual.query(x) - pred) < 1e-7 * (1.0 + abs(pred))


# ----------------------------------------------------------------- full loop


def test_extract_single_unit_net():
    oracle = _relu_oracle([1.0], -1.0)
    got = extract_two_layer(oracle, 1, DELTA, 4)
    assert got.net.width == 1
    w, b = got.net.W[0, 0], got.net.b[0]
    s = 1.0 if w > 0 else -1.0
    assert abs(s * w - 1.0) < 1e-7 and abs(s * b - (-1.0)) < 1e-7
    assert got.net.s[0] == 1
    ts = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.max(np.abs(batch_eval(got.net, ts[:, None]) - relu(ts - 1.0))) < 1e-8


def test_extract_affine_net():
    w0, b0 = np.array([0.7, -1.2]), 2.5
    oracle = QueryOracle(lambda x: float(w0 @ x) + b0, 2, "nonneg")
    got = extract_two_layer(oracle, 2, DELTA, 4)
    assert got.net.W.shape == (0, 2)
    assert np.max(np.abs(got.net.skip.w - w0)) < 1e-9
    assert abs(got.net.skip.b - b0) < 1e-9


def test_extract_round_trip_on_wide_net():
    net = generate_two_layer(5, 12, np.random.default_rng(21))
    got = extract_two_layer(as_oracle(net), 5, DELTA, 24)
    pts = np.random.default_rng(22).uniform(0.0, 10.0, size=(10_000, 5))
    want = batch_eval(net, pts)
    have = batch_eval(got.net, pts)
    assert np.max(np.abs(want - have) / (1.0 + np.abs(want))) <= 1e-6
    assert got.total_queries <= 5 * 5 * 12 * math.log2(1.0 / DELTA)


def test_extract_budget_is_enforced():
    net = generate_two_layer(2, 3, np.random.default_rng(1))
    with pytest.raises(PieceBudgetError, match="^recover phase: too many neurons$"):
        extract_two_layer(as_oracle(net), 2, DELTA, 1)


def test_every_visible_unit_is_recovered_with_its_sign():
    """Units crossing a positive axis come back with the exact hyperplane."""
    net = generate_two_layer(3, 6, np.random.default_rng(9))
    got = extract_two_layer(as_oracle(net), 3, DELTA, 12)
    recovered = [(*unit_plane(w, b), s) for w, b, s in zip(got.net.W, got.net.b, got.net.s)]
    for w, b, sign in zip(net.W, net.b, net.s):
        if not any(w[i] != 0.0 and -b / w[i] > 0.0 for i in range(3)):
            continue
        normal, offset = unit_plane(w, b)
        matches = [s for n, o, s in recovered if plane_gap(normal, offset, [n], [o]) <= 1e-7]
        assert len(matches) == 1
        assert matches[0] == sign


def test_recovered_planes_touch_the_positive_orthant():
    net = generate_two_layer(3, 5, np.random.default_rng(12))
    got = extract_two_layer(as_oracle(net), 3, DELTA, 10)
    for row, b in zip(got.net.W, got.net.b):
        crossings = [-b / w for w in row if w != 0.0]
        assert any(t > 0.0 for t in crossings)


def test_each_round_removes_axis_break_points():
    net = generate_two_layer(2, 3, np.random.default_rng(6))
    oracle = as_oracle(net)

    def axis_breaks(work):
        return sum(
            len(all_critical_points_1d(axis_ray(work, i), DELTA, 16, (1e-4, 52.0)))
            for i in range(2)
        )

    work = oracle
    recovered = []
    counts = [axis_breaks(work)]
    while True:
        hit = find_neuron_crossing(work, DELTA)
        if hit is None:
            break
        x1, x2, _ = hit
        recovered.append(recover_neuron(work, x1, x2, DELTA))
        work = subtracted_oracle(oracle, TwoLayerNet(*zip(*recovered)))
        counts.append(axis_breaks(work))
    assert counts[-1] == 0
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_units_meeting_keeps_the_planes_that_reach_the_box():
    """On [0, 1] x [0, 2]: a plane through the box and planes touching only
    a corner are kept, in order; planes clear of it on either side are
    dropped, whether their unit is inactive or active over the whole box.
    Subtracting no units is the oracle itself."""
    W = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, -1.0],
         [1.0, -1.0]]
    b = [-1.0, -3.0, 0.0, 2.0, -3.5, -0.5, 2.5]
    net = TwoLayerNet(W, b, [1, -1, 1, -1, 1, 1, -1])
    kept = extract2.units_meeting(net, np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert kept.W.tolist() == W[:4]
    assert kept.b.tolist() == b[:4]
    assert kept.s.tolist() == [1, -1, 1, -1]
    assert kept.skip is None
    none = extract2.units_meeting(net, np.array([10.0, 10.0]), np.array([11.0, 11.0]))
    assert none.W.shape == (0, 2)
    oracle = _relu_oracle([1.0, 1.0], -1.0)
    assert subtracted_oracle(oracle, none) is oracle


def _recover_spy(monkeypatch):
    """Replace `recover_neuron` with a wrapper that records, per call, the
    oracle it was handed, the points it queried and its `recover_box`."""
    real = extract2.recover_neuron
    calls = []

    def spy(oracle, x1, x2, delta):
        points = []

        def read(x):
            points.append(x.copy())
            return oracle.query(x)

        seen = QueryOracle(read, oracle.dim, oracle.domain, parent=oracle)
        calls.append((oracle, points, extract2.recover_box(x1, x2, delta)))
        return real(seen, x1, x2, delta)

    monkeypatch.setattr(extract2, "recover_neuron", spy)
    return calls


def _assert_inside(calls):
    for _, points, (lo, hi) in calls:
        assert len(points) == 4 + 2 * (lo.size + 1)
        for x in points:
            assert np.all(lo <= x) and np.all(x <= hi)


@pytest.mark.parametrize("seed", range(10))
def test_recover_reads_the_oracle_itself_inside_its_box_on_a_wide_net(monkeypatch, seed):
    """On the (10, 32) benchmark cell, every point recover queries lies in
    its box, and no recovered plane meets a box, so recover fits on the
    oracle itself."""
    calls = _recover_spy(monkeypatch)
    oracle = as_oracle(generate_two_layer(10, 32, np.random.default_rng(seed)))
    extract_two_layer(oracle, 10, DELTA, 512)
    assert len(calls) == 32
    assert all(o is oracle for o, _, _ in calls)
    _assert_inside(calls)


@pytest.mark.parametrize("seed", range(8))
def test_the_peeled_stage_recovers_inside_its_box(monkeypatch, seed):
    """The same on the peeled top of the (6, 3, 9) benchmark cell: recover
    reads the peeled oracle, never one subtracted from it."""
    calls = _recover_spy(monkeypatch)
    extract_three_layer(as_oracle(generate_three_layer(6, 3, 9, np.random.default_rng(seed))),
                        DELTA)
    assert len(calls) == 9
    assert all(o.label.endswith("-top") for o, _, _ in calls)
    _assert_inside(calls)


@pytest.mark.parametrize("seed", range(3))
def test_a_near_unit_is_recovered_with_unit_0_subtracted(monkeypatch, seed):
    """A ninth unit crossing axis 0 1e-3 past unit 0: unit 0's plane meets
    the ninth unit's box, so that one recovery subtracts unit 0, and only
    it; every other recovery reads the oracle itself."""
    subtracted = {}
    real_subtracted = extract2.subtracted_oracle

    def record(oracle, recovered):
        out = real_subtracted(oracle, recovered)
        subtracted[id(out)] = recovered
        return out

    monkeypatch.setattr(extract2, "subtracted_oracle", record)
    calls = _recover_spy(monkeypatch)
    net = near_coincident_net(seed, 1e-3)
    oracle = as_oracle(net)
    got = extract_two_layer(oracle, 4, DELTA, 13)
    assert got.net.width == len(calls) == 9
    (k,) = [k for k, (o, _, _) in enumerate(calls) if o is not oracle]
    kept = subtracted[id(calls[k][0])]
    assert kept.width == 1
    planes = [unit_plane(w, b) for w, b in zip(net.W, net.b)]
    gaps = [plane_gap(*unit_plane(kept.W[0], kept.b[0]), [n], [o]) for n, o in planes]
    assert np.argmin(gaps) == 0
    gaps = [plane_gap(*unit_plane(got.net.W[k], got.net.b[k]), [n], [o]) for n, o in planes]
    assert np.argmin(gaps) == 8
    _assert_inside(calls)


# ---------------------------------------------------------------- refinement


def _worst_plane_error(units, truth):
    """Largest distance from a plane of net `units` to its nearest plane of
    net `truth`."""
    normals, offsets = zip(*(unit_plane(w, b) for w, b in zip(truth.W, truth.b)))
    return max((plane_gap(*unit_plane(w, b), np.array(normals), np.array(offsets))
                for w, b in zip(units.W, units.b)), default=0.0)


def _refined_net():
    net = generate_two_layer(5, 8, np.random.default_rng(4))
    oracle = as_oracle(net)
    return net, oracle, extract_two_layer(oracle, 5, DELTA, 12)


def test_refinement_tightens_recovered_planes(monkeypatch):
    net, oracle, got = _refined_net()
    assert got.phase_queries["refine"] == got.net.width * 2 * (5 + 1)
    assert _worst_plane_error(got.net, net) <= 1e-11
    # Refining the refined units again fits the oracle itself, 2(d+1) queries
    # per unit, since every unit is widened, and moves no plane by more than
    # that.

    def no_residual(*args):
        raise AssertionError("refine_units built a subtracted oracle")

    monkeypatch.setattr(extract2, "subtracted_oracle", no_residual)
    before = oracle.count
    again = refine_units(oracle, got.net)
    assert oracle.count - before == got.net.width * 2 * (5 + 1)
    assert _worst_plane_error(again, net) <= 1e-11
    assert np.array_equal(again.s, got.net.s)
    assert again.skip is got.net.skip


def test_each_refit_reads_no_other_unit():
    """Doubling one unit's (w, b) keeps its plane, so the refine points and
    draws stay as they were (a power of two scales the normalisation
    exactly); no refit may then move by a bit.  The doubled unit's own refit
    reads only its plane, so it comes back as before too."""
    _, oracle, got = _refined_net()
    base = refine_units(oracle, got.net)
    W, b = got.net.W.copy(), got.net.b.copy()
    W[3] *= 2.0
    b[3] *= 2.0
    again = refine_units(oracle, TwoLayerNet(W, b, got.net.s))
    for name in ("W", "b", "s"):
        assert np.array_equal(getattr(base, name), getattr(again, name))


def test_refined_planes_of_a_wide_net_match_the_truth():
    net = generate_two_layer(10, 32, np.random.default_rng(0))
    got = extract_two_layer(as_oracle(net), 10, DELTA, 512)
    assert _worst_plane_error(got.net, net) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_every_true_plane_of_a_wide_net_is_recovered_within_1e_10(seed):
    """The margin behind refine's precision on the (10, 32) benchmark cell:
    over seeds 0-9 the worst true plane lies 2.2e-11 from its nearest
    recovered plane.  With 2 candidates per plane instead of 64 it lies
    2.1e-10 off, and with 1 candidate 2.7e-9."""
    net = generate_two_layer(10, 32, np.random.default_rng(seed))
    got = extract_two_layer(as_oracle(net), 10, DELTA, 512)
    assert _worst_plane_error(net, got.net) <= 1e-10


def _refine_point_loop(normals, offsets, rng):
    """The per-plane loop `_refine_points` must match bit for bit: each plane
    finds its crossings, draws its candidates and scores them in its own
    product, in plane order, from one shared rng."""
    out = []
    for i, (n, o) in enumerate(zip(normals, offsets)):
        with np.errstate(divide="ignore"):
            t = np.where(n != 0.0, -o / n, -np.inf)
        hit = t > 0.0
        if not hit.any():
            out.append((None, 0.0))
            continue
        pivot = int(np.argmax(np.where(hit, np.abs(n), -1.0)))
        corners = np.diag(np.where(hit, t, 0.0))[hit]
        rays = np.eye(n.size)[~hit]
        rays[:, pivot] -= n[~hit] / n[pivot]
        lam = rng.dirichlet(np.ones(corners.shape[0]), size=extract2._REFINE_CANDIDATES)
        reach = float(np.mean(t[hit]))
        mu = rng.uniform(0.0, reach, size=(extract2._REFINE_CANDIDATES, rays.shape[0]))
        pts = lam @ corners + mu @ rays
        dist = normals @ pts.T
        dist += offsets[:, None]
        np.abs(dist, out=dist)
        dist[i] = np.inf
        clearance = np.minimum(pts.min(axis=1), dist.min(axis=0))
        best = int(np.argmax(clearance))
        out.append((pts[best], float(clearance[best])))
    return out


def _unit_planes(net):
    scale = np.linalg.norm(net.W, axis=1)
    return net.W / scale[:, None], net.b / scale


def test_refine_points_match_the_per_plane_loop():
    """Bit for bit, with the rng left in the same state: on the planes of a
    recovered (10, 32) net, on planes with one that misses the orthant, and
    on no planes at all."""
    wide = extract_two_layer(as_oracle(generate_two_layer(10, 32, np.random.default_rng(0))),
                             10, DELTA, 512).net
    normals, offsets = _unit_planes(generate_two_layer(3, 4, np.random.default_rng(1)))
    # x + y + z + 1 = 0 has no point with x, y, z >= 0.
    missing = (np.insert(normals, 1, np.ones(3) / math.sqrt(3.0), axis=0),
               np.insert(offsets, 1, 1.0))
    for planes in (_unit_planes(wide), missing, (np.zeros((0, 4)), np.zeros(0))):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = extract2._refine_points(*planes, rng)
        want = _refine_point_loop(*planes, ref_rng)
        assert len(got) == len(want) == len(planes[1])
        for (point, clearance), (ref_point, ref_clearance) in zip(got, want):
            assert clearance == ref_clearance
            assert (point is None and ref_point is None) or np.array_equal(point, ref_point)
        assert rng.random() == ref_rng.random()
    assert extract2._refine_points(*missing, np.random.default_rng(7))[1] == (None, 0.0)
    assert all(c > 0.0 for _, c in extract2._refine_points(*_unit_planes(wide),
                                                            np.random.default_rng(7)))


def test_refinement_keeps_units_it_cannot_widen():
    """A plane hugging the orthant boundary leaves no room for a wider stencil."""
    oracle = _relu_oracle([0.0, 1.0], -2e-4)
    unit = TwoLayerNet([[0.0, 1.0]], [-2e-4], [1])
    kept = refine_units(oracle, unit)
    assert np.array_equal(kept.W, unit.W) and np.array_equal(kept.b, unit.b)
    assert oracle.count == 0


@pytest.mark.parametrize("seed", [58, 63, 66])
def test_wide_nets_that_once_failed_the_residual_check(seed):
    """(10, 24) draws whose unrefined planes left a non-affine residual."""
    net = generate_two_layer(10, 24, np.random.default_rng(seed))
    got = extract_two_layer(as_oracle(net), 10, DELTA, 512)
    assert got.residual_headroom <= 0.05
    assert functional_equivalence(net, got.net, 0.0, 10.0, tau=1e-6).passed


@pytest.mark.parametrize("seed", range(10))
def test_near_coincident_crossings_a_bracket_apart(seed):
    """A ninth unit crossing axis 0 1e-3 past unit 0: inside the bracket's reach."""
    net = near_coincident_net(seed, 1e-3)
    got = extract_two_layer(as_oracle(net), 4, DELTA, 13)
    assert functional_equivalence(net, got.net, 0.0, 10.0, tau=1e-6).passed


@pytest.mark.parametrize("seed, message", [
    (2, "scan phase: pieces share affine function"),
    (15, "recover phase: endpoints in same linear region"),
    (1, "skip phase: residual is not affine"),
])
def test_a_general_position_error_names_its_phase(seed, message):
    """A ninth unit crossing axis 0 1e-4 past unit 0 breaks general position;
    the error names the phase whose queries were being counted."""
    net = near_coincident_net(seed, 1e-4)
    with pytest.raises(GeneralPositionError, match=f"^{message}") as info:
        extract_two_layer(as_oracle(net), 4, DELTA, 13)
    assert isinstance(info.value.__cause__, GeneralPositionError)


# --------------------------------------------------------------- phase clock


def _names_perf_counter(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "perf_counter" for alias in node.names)
    return (isinstance(node, ast.Name) and node.id == "perf_counter"
            or isinstance(node, ast.Attribute) and node.attr == "perf_counter")


def _names_a_phase(node: ast.AST) -> bool:
    """An f-string with a literal part starting " phase", as in "{name} phase: ..."."""
    return isinstance(node, ast.JoinedStr) and any(
        isinstance(part, ast.Constant) and part.value.startswith(" phase")
        for part in node.values)


def test_only_the_phase_clock_times_phases_and_names_them():
    """Across both extractors, `perf_counter` is named only inside
    `Extraction.phase`, and the re-raise naming a phase is written once,
    there."""
    inside, outside = [], []
    for path in (Path(extract2.__file__), Path(extract2.__file__).with_name("extract3.py")):
        tree = ast.parse(path.read_text())
        clock = {id(node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and cls.name == "Extraction"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "phase"
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if _names_perf_counter(node) or _names_a_phase(node):
                (inside if id(node) in clock else outside).append(node)
    assert [(type(node).__name__, node.lineno) for node in outside] == []
    assert sum(map(_names_a_phase, inside)) == 1
    assert any(map(_names_perf_counter, inside))
