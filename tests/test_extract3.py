"""Depth-3 pipeline: candidate collection, filtering, row signs, peeling."""

import math

import numpy as np
import pytest

from helpers import three_layer
from netpeel.config import DEDUP_TOL
from netpeel.extract3 import (
    collect_candidate_hyperplanes,
    extract_three_layer,
    is_first_layer_plane,
    peel_first_layer,
    recover_row_signs,
    right_inverse,
)
from netpeel.oracle.generate import generate_three_layer
from netpeel.oracle.nets import batch_eval, relu
from netpeel.oracle.query import QueryOracle, as_oracle
from netpeel.pwl import GeneralPositionError, Hyperplane

DELTA = 1e-4


def _scalar_net(w, b, v=1.0, c=0.0, sign=1):
    return three_layer(
        W=np.array([[float(w)]]),
        b=np.array([float(b)]),
        V=np.array([[float(v)]]),
        c=np.array([float(c)]),
        signs=np.array([sign]),
    )


def _truth_planes(net):
    return [
        Hyperplane.from_coefficients(net.W[i], float(net.b[i])).canonical()
        for i in range(net.W.shape[0])
    ]


@pytest.fixture(scope="module")
def wide_net():
    return generate_three_layer(4, 3, 9, np.random.default_rng(0))


@pytest.fixture(scope="module")
def wide_candidates(wide_net):
    oracle = as_oracle(wide_net)
    return oracle, collect_candidate_hyperplanes(oracle, 4, DELTA, 64)


@pytest.fixture(scope="module")
def wide_extraction(wide_net):
    return extract_three_layer(as_oracle(wide_net), 4, DELTA)


# ------------------------------------------------------ candidate collection


def test_collect_single_unit_chain():
    net = _scalar_net(1.0, -1.0)
    cands = collect_candidate_hyperplanes(as_oracle(net), 1, DELTA, 8)
    assert len(cands) == 1
    assert cands.planes[0].close_to(Hyperplane(np.array([1.0]), -1.0), 1e-7)


def test_collect_on_a_flat_probe_line_is_empty():
    net = three_layer(
        W=np.array([[0.0, 1.0]]),
        b=np.array([-5.0]),
        V=np.array([[1.0]]),
        c=np.array([0.0]),
        signs=np.array([1]),
    )
    cands = collect_candidate_hyperplanes(as_oracle(net), 2, DELTA, 8, axis=0)
    assert len(cands) == 0


def test_extraction_fails_when_every_probe_line_is_flat():
    oracle = QueryOracle(lambda x: 5.0, 2, "full")
    with pytest.raises(GeneralPositionError, match="no critical points"):
        extract_three_layer(oracle, 2, DELTA)


def test_collect_contains_all_first_layer_planes(wide_net, wide_candidates):
    _, cands = wide_candidates
    for plane in _truth_planes(wide_net):
        assert any(c.close_to(plane, 1e-7) for c in cands.planes)


def test_collected_candidates_are_distinct(wide_candidates):
    _, cands = wide_candidates
    for i, a in enumerate(cands.planes):
        for b in cands.planes[i + 1:]:
            assert not a.close_to(b, DEDUP_TOL)


# ----------------------------------------------------------------- filtering


def test_filter_separates_first_layer_from_fold_shadows(wide_net, wide_candidates):
    oracle, cands = wide_candidates
    truth = _truth_planes(wide_net)
    survivors = []
    for i, plane in enumerate(cands.planes):
        rest = cands.planes[:i] + cands.planes[i + 1:]
        keep = is_first_layer_plane(oracle, plane, rest, DELTA,
                                    source=cands.sources[i])
        genuine = any(plane.close_to(t, 1e-6) for t in truth)
        assert keep == genuine
        if keep:
            survivors.append(plane)
    assert len(survivors) == 3
    for t in truth:
        assert sum(s.close_to(t, 1e-7) for s in survivors) == 1


def test_filter_is_exact_across_seeds():
    for seed in range(100):
        net = generate_three_layer(3, 2, 6, np.random.default_rng(seed))
        oracle = as_oracle(net)
        cands = collect_candidate_hyperplanes(oracle, 3, DELTA, 64)
        truth = _truth_planes(net)
        survivors = [
            plane
            for i, plane in enumerate(cands.planes)
            if is_first_layer_plane(oracle, plane,
                                    cands.planes[:i] + cands.planes[i + 1:],
                                    DELTA, source=cands.sources[i])
        ]
        assert len(survivors) == 2, f"seed {seed}"
        for t in truth:
            assert sum(s.close_to(t, 1e-7) for s in survivors) == 1, f"seed {seed}"


# ----------------------------------------------------------------- row signs


def test_sign_kept_when_candidate_matches_truth():
    oracle = as_oracle(_scalar_net(1.0, -1.0))
    planes = [Hyperplane(np.array([1.0]), -1.0)]
    W, b, flipped = recover_row_signs(oracle, planes, eps=DELTA / 2, delta=DELTA)
    assert W[0, 0] == 1.0 and b[0] == -1.0
    assert flipped == 0


def test_sign_flipped_on_the_mirror_instance():
    oracle = as_oracle(_scalar_net(-1.0, 1.0))
    planes = [Hyperplane(np.array([1.0]), -1.0)]
    W, b, flipped = recover_row_signs(oracle, planes, eps=DELTA / 2, delta=DELTA)
    assert W[0, 0] == -1.0 and b[0] == 1.0
    assert flipped == 1


def test_signed_rows_match_truth_across_seeds():
    for seed in range(100):
        net = generate_three_layer(4, 3, 9, np.random.default_rng(seed))
        oracle = as_oracle(net)
        W, b, _ = recover_row_signs(oracle, _truth_planes(net),
                                    eps=DELTA / 2, delta=DELTA)
        assert np.max(np.abs(W - net.W)) < 1e-7, f"seed {seed}"
        assert np.max(np.abs(b - net.b)) < 1e-7, f"seed {seed}"


# ------------------------------------------------------------- right inverse


def test_right_inverse_of_identity():
    assert np.array_equal(right_inverse(np.eye(3)), np.eye(3))


def test_right_inverse_pads_missing_columns():
    W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    M = right_inverse(W)
    assert np.max(np.abs(M - np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))) < 1e-12


def test_right_inverse_of_random_wide_matrix():
    W = np.random.default_rng(3).standard_normal((3, 5))
    M = right_inverse(W)
    assert np.max(np.abs(W @ M - np.eye(3))) <= 1e-9


def test_right_inverse_rejects_rank_deficiency():
    W = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GeneralPositionError, match="W not right invertible"):
        right_inverse(W)


# ------------------------------------------------------------------- peeling


def test_peel_with_identity_first_layer_is_the_restriction():
    net = three_layer(
        W=np.eye(2),
        b=np.zeros(2),
        V=np.array([[1.1, -0.4], [0.3, 0.9], [-0.8, 0.5]]),
        c=np.array([0.2, -0.6, 1.0]),
        signs=np.array([1, -1, 1]),
    )
    oracle = as_oracle(net)
    peeled = peel_first_layer(oracle, np.eye(2), np.zeros(2))
    for x in np.random.default_rng(0).uniform(0.0, 3.0, size=(20, 2)):
        assert abs(peeled(x) - oracle(x)) < 1e-12


def test_peel_shifts_out_the_bias():
    net = _scalar_net(1.0, -1.0, v=1.3, c=0.4, sign=-1)
    oracle = as_oracle(net)
    peeled = peel_first_layer(oracle, net.W, net.b)
    for t in np.linspace(0.0, 5.0, 11):
        assert abs(peeled([t]) - oracle([t + 1.0])) < 1e-12


def test_peeled_oracle_equals_the_top_layers():
    net = generate_three_layer(3, 2, 5, np.random.default_rng(7))
    peeled = peel_first_layer(as_oracle(net), net.W, net.b)
    V, c, signs = net.top.weight_matrix(), net.top.biases(), net.top.signs()
    rng = np.random.default_rng(8)
    for y in rng.uniform(0.0, 5.0, size=(1000, 2)):
        top = float(signs @ relu(V @ y + c))
        assert abs(peeled(y) - top) <= 1e-9 * (1.0 + abs(top))


# ------------------------------------------------------------ full pipeline


def test_extract_scalar_chain_end_to_end():
    net = _scalar_net(1.0, -1.0, v=1.2, c=0.3)
    got = extract_three_layer(as_oracle(net), 1, DELTA)
    V, c, signs = net.top.weight_matrix(), net.top.biases(), net.top.signs()
    ts = np.linspace(-10.0, 10.0, 201)
    for t in ts:
        want = float(signs @ relu(V @ relu(net.W @ [t] + net.b) + c))
        assert abs(got([t]) - want) <= 1e-7 * (1.0 + abs(want))


def test_extract_wide_net_round_trip(wide_net, wide_extraction):
    got = wide_extraction
    pts = np.random.default_rng(1).uniform(-5.0, 5.0, size=(10_000, 4))
    want = batch_eval(wide_net, pts)
    have = batch_eval(got.network(), pts)
    assert np.max(np.abs(want - have) / (1.0 + np.abs(want))) <= 1e-6


def test_extract_recovers_first_layer_rows(wide_net, wide_extraction):
    got = wide_extraction
    cos = got.W @ wide_net.W.T
    order = np.argmax(np.abs(cos), axis=1)
    assert sorted(order.tolist()) == [0, 1, 2]
    assert np.max(np.abs(got.W - wide_net.W[order])) < 1e-7
    assert np.max(np.abs(got.b - wide_net.b[order])) < 1e-7


def test_extract_row_norms_and_counters(wide_extraction):
    got = wide_extraction
    assert np.max(np.abs(np.linalg.norm(got.W, axis=1) - 1.0)) < 1e-9
    assert got.n_survivors == 3
    assert got.n_candidates >= 3
    assert set(got.phase_queries) == {"collect", "filter", "signs", "peel"}
    assert got.total_queries == sum(got.phase_queries.values())


def test_phase_query_bounds(wide_extraction):
    got = wide_extraction
    m = got.n_candidates
    log = math.log2(1.0 / DELTA)
    assert got.phase_queries["collect"] <= 12 * 4 * m * log
    assert got.phase_queries["filter"] <= m * m * (4 + 1) * 8
