"""Depth-3 pipeline: candidate collection, filtering, row signs, peeling."""

import math

import numpy as np
import pytest

from helpers import flat_probe_line_net, near_coincident_rows, three_layer, unit_plane
from netpeel.cli import main
from netpeel import extract3
from netpeel.config import DEDUP_TOL, PLANE_NOISE, PROBE_FLOOR, SEPARATION
from netpeel.extract3 import (
    collect_candidate_hyperplanes,
    extract_three_layer,
    filter_candidates,
    is_first_layer_plane,
    peel_first_layer,
    recover_row_signs,
    right_inverse,
)
from netpeel.margins import plane_gap
from netpeel.oracle import generate
from netpeel.oracle.generate import generate_three_layer
from netpeel.oracle.nets import batch_eval, relu
from netpeel.oracle.query import QueryOracle, as_oracle
from netpeel.oracle.serialize import save_net
from netpeel.pwl import GeneralPositionError, PieceBudgetError
from netpeel.verify import functional_equivalence

DELTA = 1e-4


def _rng():
    """A fresh copy of the generator `extract_three_layer` seeds collect with."""
    return np.random.default_rng(12345)


def _scalar_net(w, b, v=1.0, c=0.0, sign=1):
    return three_layer(
        W=np.array([[float(w)]]),
        b=np.array([float(b)]),
        V=np.array([[float(v)]]),
        c=np.array([float(c)]),
        signs=np.array([sign]),
    )


def _truth_planes(net):
    """The first-layer planes of `net` as stacked (normals, offsets)."""
    normals, offsets = zip(*(unit_plane(w, b) for w, b in zip(net.W, net.b)))
    return np.array(normals), np.array(offsets)


def _match_counts(normals, offsets, truth, tol=1e-7):
    """For each plane of `truth`, how many planes (normals, offsets) lie
    within `tol` of it."""
    return [sum(plane_gap(n, o, [t_n], [t_o]) <= tol for n, o in zip(normals, offsets))
            for t_n, t_o in zip(*truth)]


@pytest.fixture(scope="module")
def wide_net():
    return generate_three_layer(4, 3, 9, np.random.default_rng(0))


@pytest.fixture(scope="module")
def wide_candidates(wide_net):
    oracle = as_oracle(wide_net)
    return oracle, collect_candidate_hyperplanes(oracle, DELTA, 64, rng=_rng())


@pytest.fixture(scope="module")
def wide_extraction(wide_net):
    return extract_three_layer(as_oracle(wide_net), DELTA)


# ------------------------------------------------------ candidate collection


def test_collect_single_unit_chain():
    net = _scalar_net(1.0, -1.0)
    normals, offsets, sources, grads = collect_candidate_hyperplanes(as_oracle(net), DELTA,
                                                                     8, rng=_rng())
    assert normals.shape == sources.shape == (1, 1) and offsets.shape == (1,)
    assert grads.shape == (1, 2, 1)
    assert plane_gap(np.array([1.0]), -1.0, normals, offsets) <= 1e-7


def test_collect_on_a_flat_probe_line_is_empty():
    net = three_layer(
        W=np.array([[0.0, 1.0]]),
        b=np.array([-5.0]),
        V=np.array([[1.0]]),
        c=np.array([0.0]),
        signs=np.array([1]),
    )
    normals, offsets, sources, grads = collect_candidate_hyperplanes(as_oracle(net), DELTA,
                                                                     8, rng=_rng())
    assert normals.shape == sources.shape == (0, 2) and offsets.shape == (0,)
    assert grads.shape == (0, 2, 2)


def test_extraction_fails_when_the_probe_line_is_flat():
    oracle = QueryOracle(lambda x: 5.0, 2, "full")
    with pytest.raises(GeneralPositionError, match="no critical points"):
        extract_three_layer(oracle, DELTA)


def test_no_other_line_is_tried_when_the_probe_line_is_flat(tmp_path):
    """A net that bends along e_2 and e_3 but not e_1 fails loudly in collect."""
    net = flat_probe_line_net()
    with pytest.raises(GeneralPositionError) as err:
        extract_three_layer(as_oracle(net), DELTA)
    assert "collect" in str(err.value) and "axis 0" in str(err.value)
    path, report = tmp_path / "flat.json", tmp_path / "report.json"
    save_net(path, net)
    assert main(["extract", "--input", str(path), "--out", str(report)]) == 3
    assert not report.exists()


def test_a_piece_budget_error_names_its_phase_and_axis(tmp_path, capsys):
    """Rows 0 and 1 crossing the probe line 1e-4 apart make collect find more
    breaks than its budget allows; the error says where, and the CLI exits 4."""
    net = near_coincident_rows(21, 1e-4)
    with pytest.raises(PieceBudgetError,
                       match=r"^collect phase \(axis 0\): piece budget exceeded$"):
        extract_three_layer(as_oracle(net), DELTA)
    path, report = tmp_path / "net.json", tmp_path / "report.json"
    save_net(path, net)
    assert main(["extract", "--input", str(path), "--out", str(report)]) == 4
    assert "budget exhausted: collect phase (axis 0): " in capsys.readouterr().err
    assert not report.exists()


def test_collect_contains_all_first_layer_planes(wide_net, wide_candidates):
    _, (normals, offsets, _, _) = wide_candidates
    for normal, offset in zip(*_truth_planes(wide_net)):
        assert plane_gap(normal, offset, normals, offsets) <= 1e-7


def test_collected_candidates_are_distinct(wide_candidates):
    _, (normals, offsets, _, _) = wide_candidates
    for i in range(len(offsets)):
        assert plane_gap(normals[i], offsets[i], normals[i + 1:], offsets[i + 1:]) > DEDUP_TOL


# ----------------------------------------------------------------- filtering


def _all_folds_keep(oracle, normals, offsets, sources):
    """The all-folds filter, the reference for the rounds.

    Each candidate is folded across every other candidate, rejected or not,
    from its source, or from the projection of the nearest other source onto
    its plane when no fold is testable from the source."""
    keep = []
    for i, (n, o) in enumerate(zip(normals, offsets)):
        others = [j for j in range(len(offsets)) if j != i]
        folds = [extract3._fold(normals, offsets, i, j, sources[i]) for j in others]
        if all(fold is None for fold in folds):
            q = min((sources[j] for j in others), key=lambda q: abs(n @ q + o))
            p = q - (n @ q + o) * n
            folds = [extract3._fold(normals, offsets, i, j, p) for j in others]
        keep.append(all(is_first_layer_plane(oracle, n, fold, DELTA)
                        for fold in folds if fold is not None))
    return keep


def test_filter_separates_first_layer_from_fold_shadows(wide_net, wide_candidates):
    oracle, (normals, offsets, sources, _) = wide_candidates
    truth = _truth_planes(wide_net)
    keep = filter_candidates(oracle, normals, offsets, sources, DELTA)
    for i in range(len(offsets)):
        assert keep[i] == (plane_gap(normals[i], offsets[i], *truth) <= 1e-6)
    assert _match_counts(normals[keep], offsets[keep], truth) == [1, 1, 1]


def test_filter_is_exact_across_seeds():
    """The rounds keep exactly the true planes, and exactly the candidates the
    all-folds filter keeps, with at most 6 queries per fold test."""
    for seed in range(100):
        net = generate_three_layer(3, 2, 6, np.random.default_rng(seed))
        oracle = as_oracle(net)
        normals, offsets, sources, _ = collect_candidate_hyperplanes(oracle, DELTA, 64,
                                                                     rng=_rng())
        m, before = len(offsets), oracle.count
        keep = filter_candidates(oracle, normals, offsets, sources, DELTA)
        assert oracle.count - before <= 6 * m * (m - 1), f"seed {seed}"
        assert sum(keep) == 2, f"seed {seed}"
        assert _match_counts(normals[keep], offsets[keep], _truth_planes(net)) == [1, 1], \
            f"seed {seed}"
        assert keep.tolist() == _all_folds_keep(oracle, normals, offsets, sources), \
            f"seed {seed}"


def test_a_candidate_with_no_fold_test_raises_naming_it():
    """Two oblique planes far from each other's sources: every fold, from the
    candidate's source and from the projection of the other source onto its
    plane, lies beyond the trust radius, so the filter cannot examine
    candidate 0 and raises without a query."""
    c, s = 0.5, math.sqrt(0.75)
    normals = np.array([[1.0, 0.0], [c, s]])
    offsets = np.array([0.0, -5e3])
    sources = np.array([[0.0, 0.0], 5e3 * normals[1] + 1e4 * np.array([-s, c])])
    oracle = QueryOracle(lambda x: 0.0, 2, "full")
    with pytest.raises(GeneralPositionError, match="candidate 0 got no fold test"):
        filter_candidates(oracle, normals, offsets, sources, DELTA)
    assert oracle.count == 0


def test_a_far_fake_is_folded_from_the_nearest_source():
    """The (3, 2, 6) draw of seed 58, written out: its probe line meets a
    second-layer crease near t = 7594.  Every fold from that source is near
    parallel or beyond the trust radius, so the fake would go unexamined and
    survive.  It is folded instead from the projection of the nearest other
    source onto its plane, where it reads flat, and the run round-trips."""
    net = three_layer(
        W=np.array([[0.6282613717574124, -0.2208281922443561, -0.7460043956087553],
                    [0.442003825675531, -0.15199684646898762, 0.8840416148302509]]),
        b=np.array([-2.336846760636517, 1.146458688442593]),
        V=np.array([[-0.8303233408117113, 1.1783341463930799],
                    [-1.0464977549548435, -0.8939041431561746],
                    [1.0702849610056022, -1.1403908745251503],
                    [0.8729996753571453, -0.8169170231579788],
                    [1.2221876354766001, 1.293278298450719],
                    [1.106913332434486, 0.824409861359624]]),
        c=np.array([3.0264418896892065, 2.1827319635602165, -4.791303918437032,
                    1.5929705928808555, -2.352457384131113, -3.51606679581612]),
        signs=np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]),
    )
    oracle = as_oracle(net)
    normals, offsets, sources, _ = collect_candidate_hyperplanes(oracle, DELTA, 64,
                                                                 rng=_rng())
    far = int(np.argmax(np.abs(sources[:, 0])))
    assert 7000.0 < sources[far, 0] < 8000.0
    assert all(extract3._fold(normals, offsets, far, j, sources[far]) is None
               for j in range(len(offsets)) if j != far)
    keep = filter_candidates(oracle, normals, offsets, sources, DELTA)
    assert not keep[far]
    assert _match_counts(normals[keep], offsets[keep], _truth_planes(net)) == [1, 1]
    got = extract_three_layer(as_oracle(net), DELTA)
    assert functional_equivalence(net, got.net, -5.0, 5.0, tau=1e-6).passed


def test_fold_tests_bend_far_from_the_threshold(monkeypatch):
    """Every fold test over d3-small seeds 0-7 bends below 1e-3 tau or at
    least 50 tau, and every test on a true first-layer plane bends at least
    50 tau.  Measured over (6,3,9) 0-47, (4,3,9) 0-29 and (3,2,6) 0-99: a
    test on a true plane bends at least 173 tau and a rejecting test at most
    5.7e-6 tau."""
    probes = []
    real = extract3.is_critical_point

    def record(oracle, x, direction, delta):
        probes.append((np.array(x), np.array(direction), delta))
        return real(oracle, x, direction, delta)

    monkeypatch.setattr(extract3, "is_critical_point", record)
    for seed in range(8):
        net = generate_three_layer(6, 3, 9, np.random.default_rng(seed))
        oracle = as_oracle(net)
        probes.clear()
        extract_three_layer(oracle, DELTA)
        assert probes, f"seed {seed}"
        for x, n, delta in probes:
            step = delta * n
            f0 = oracle.query(x)
            bend = abs(oracle.query(x + step) + oracle.query(x - step) - 2.0 * f0)
            ratio = bend / max(PLANE_NOISE * (1.0 + abs(f0)), PROBE_FLOOR * delta)
            assert not 1e-3 <= ratio < 50.0, f"seed {seed}: bend {ratio:.3g} tau"
            on_true = np.any((np.abs(net.W @ x + net.b) < 1e-6)
                             & (np.abs(net.W @ n) > 1.0 - 1e-6))
            assert ratio >= 50.0 or not on_true, f"seed {seed}: true plane {ratio:.3g} tau"


# ----------------------------------------------------------------- row signs


def _side_grads(net):
    """The side gradients collect reads off the scalar net's one plane."""
    return collect_candidate_hyperplanes(as_oracle(net), DELTA, 8, rng=_rng())[3]


def test_sign_kept_when_candidate_matches_truth():
    grads = _side_grads(_scalar_net(1.0, -1.0))
    W, b = recover_row_signs(np.array([[1.0]]), np.array([-1.0]), grads)
    assert W[0, 0] == 1.0 and b[0] == -1.0


def test_sign_flipped_on_the_mirror_instance():
    grads = _side_grads(_scalar_net(-1.0, 1.0))
    W, b = recover_row_signs(np.array([[1.0]]), np.array([-1.0]), grads)
    assert W[0, 0] == -1.0 and b[0] == 1.0


def test_signed_rows_match_truth_across_seeds():
    """Collect, filter and signs recover every true row with its orientation."""
    for seed in range(100):
        net = generate_three_layer(4, 3, 9, np.random.default_rng(seed))
        oracle = as_oracle(net)
        normals, offsets, sources, grads = collect_candidate_hyperplanes(oracle, DELTA, 64,
                                                                         rng=_rng())
        keep = filter_candidates(oracle, normals, offsets, sources, DELTA)
        W, b = recover_row_signs(normals[keep], offsets[keep], grads[keep])
        order = np.argmax(np.abs(W @ net.W.T), axis=1)
        assert sorted(order.tolist()) == [0, 1, 2], f"seed {seed}"
        assert np.max(np.abs(W - net.W[order])) < 1e-7, f"seed {seed}"
        assert np.max(np.abs(b - net.b[order])) < 1e-7, f"seed {seed}"


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
        assert abs(peeled.query(x) - oracle.query(x)) < 1e-12


def test_peel_shifts_out_the_bias():
    net = _scalar_net(1.0, -1.0, v=1.3, c=0.4, sign=-1)
    oracle = as_oracle(net)
    peeled = peel_first_layer(oracle, net.W, net.b)
    for t in np.linspace(0.0, 5.0, 11):
        assert abs(peeled.query([t]) - oracle.query([t + 1.0])) < 1e-12


def test_peeled_oracle_equals_the_top_layers():
    net = generate_three_layer(3, 2, 5, np.random.default_rng(7))
    peeled = peel_first_layer(as_oracle(net), net.W, net.b)
    V, c, signs = net.top.W, net.top.b, net.top.s
    rng = np.random.default_rng(8)
    for y in rng.uniform(0.0, 5.0, size=(1000, 2)):
        top = float(signs @ relu(V @ y + c))
        assert abs(peeled.query(y) - top) <= 1e-9 * (1.0 + abs(top))


# ------------------------------------------------------------ full pipeline


def test_extract_scalar_chain_end_to_end():
    net = _scalar_net(1.0, -1.0, v=1.2, c=0.3)
    got = extract_three_layer(as_oracle(net), DELTA)
    V, c, signs = net.top.W, net.top.b, net.top.s
    ts = np.linspace(-10.0, 10.0, 201)
    have = batch_eval(got.net, ts[:, None])
    for t, value in zip(ts, have):
        want = float(signs @ relu(V @ relu(net.W @ [t] + net.b) + c))
        assert abs(value - want) <= 1e-7 * (1.0 + abs(want))


def test_extract_wide_net_round_trip(wide_net, wide_extraction):
    got = wide_extraction
    pts = np.random.default_rng(1).uniform(-5.0, 5.0, size=(10_000, 4))
    want = batch_eval(wide_net, pts)
    have = batch_eval(got.net, pts)
    assert np.max(np.abs(want - have) / (1.0 + np.abs(want))) <= 1e-6


def test_extract_recovers_first_layer_rows(wide_net, wide_extraction):
    got = wide_extraction
    cos = got.net.W @ wide_net.W.T
    order = np.argmax(np.abs(cos), axis=1)
    assert sorted(order.tolist()) == [0, 1, 2]
    assert np.max(np.abs(got.net.W - wide_net.W[order])) < 1e-7
    assert np.max(np.abs(got.net.b - wide_net.b[order])) < 1e-7


def test_extract_row_norms_and_counters(wide_candidates, wide_extraction):
    got = wide_extraction
    assert np.max(np.abs(np.linalg.norm(got.net.W, axis=1) - 1.0)) < 1e-9
    assert got.net.d1 == 3
    assert len(wide_candidates[1][1]) >= 3
    assert set(got.phase_queries) == {"collect", "filter", "signs", "peel"}
    assert got.total_queries == sum(got.phase_queries.values())


def test_phase_query_bounds(wide_candidates, wide_extraction):
    """m is the number of collected candidates: `wide_candidates` collects
    them with the seed-12345 stream that the extraction's collect draws."""
    got = wide_extraction
    m = len(wide_candidates[1][1])
    log = math.log2(1.0 / DELTA)
    assert got.phase_queries["collect"] <= 12 * 4 * m * log
    assert got.phase_queries["filter"] <= 6 * m * (m - 1)


@pytest.mark.parametrize("seed, moves", [
    (7, "plane 0 stayed ambiguous (moves 0.609 and 1.81 "),
    (10, "plane 0 stayed ambiguous (moves 0.767 and 2.14 "),
    (11, "plane 0 stayed ambiguous (moves 0.271 and 6.18 "),
], ids=["7", "10", "11"])
def test_a_missed_first_layer_plane_raises_in_signs(seed, moves):
    """Two first-layer planes 1e-4 apart on the probe line read as one plane,
    which the filter rejects.  Row 2 survives alone, so its leave-one-out
    direction is the row itself, and the two missed units move the network
    along it on both sides of its plane: its orientation cannot be read."""
    net = near_coincident_rows(seed, 1e-4)
    with pytest.raises(GeneralPositionError) as err:
        extract_three_layer(as_oracle(net), DELTA)
    assert str(err.value).startswith("signs phase (axis 0): sign recovery: " + moves)


def test_a_missed_first_layer_plane_fails_the_output_check():
    """At a 3e-4 gap only rows 0 and 2 survive, and both orient cleanly.  The
    peeled top then fits f without row 1; only the composed network's
    comparison with the oracle shows it."""
    net = near_coincident_rows(14, 3e-4)
    with pytest.raises(GeneralPositionError,
                       match=r"peel phase \(axis 0\): composed network deviates 7\.42 "):
        extract_three_layer(as_oracle(net), DELTA)


def _probe_line_breaks(net):
    return np.array(generate._probe_line_events(net.W, net.b, net.top.W, net.top.b))


def test_a_crease_next_to_a_first_layer_crossing_raises(monkeypatch):
    """Why the generator keeps `SEPARATION` on the probe line.

    The first (6, 3, 9) draw of seed 25 that passes the partials walk puts
    second-layer creases of t -> N(t e_1) within 1e-4 of the first-layer
    crossing at t ~ 1.0113.  Collect then loses that plane, and the run
    must raise rather than return a network.  The draw is taken with the
    generator's probe-line test stubbed to accept.
    """
    monkeypatch.setattr(generate, "_probe_line_events", lambda *net: [1.0])
    net = generate_three_layer(6, 3, 9, np.random.default_rng(25))
    monkeypatch.undo()
    breaks = _probe_line_breaks(net)
    crossings = -net.b / net.W[:, 0]
    creases = breaks[~np.isin(breaks, crossings)]
    assert np.abs(creases[:, None] - crossings).min() < 1e-4
    assert np.diff(breaks).min() < SEPARATION
    with pytest.raises(GeneralPositionError):
        extract_three_layer(as_oracle(net), DELTA)


def test_a_break_far_out_on_the_probe_line_round_trips():
    """The generator bounds no break of t -> N(t e_1): (6, 3, 9) seed 11 has
    a second-layer crease near t = 971, and the net still round-trips."""
    net = generate_three_layer(6, 3, 9, np.random.default_rng(11))
    assert np.abs(_probe_line_breaks(net)).max() > 900.0
    got = extract_three_layer(as_oracle(net), DELTA)
    assert functional_equivalence(net, got.net, -5.0, 5.0, tau=1e-6).passed
