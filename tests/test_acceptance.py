"""End-to-end gate: one test per numbered release criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
numbers, so a plain pytest run doubles as the release checklist.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from helpers import dense_grid_kinks, scalar_line, synth_pwl, unit_plane
from netpeel.extract2 import extract_two_layer
from netpeel.extract3 import extract_three_layer
from netpeel.margins import plane_gap
from netpeel.oracle.generate import (
    GenerationError,
    generate_three_layer,
    generate_two_layer,
)
from netpeel.oracle.query import AccessAudit, as_oracle
from netpeel.oracle.serialize import dumps_document, net_to_document
from netpeel.pwl import all_critical_points_1d
from netpeel.verify import (
    empirical_orthant_bound,
    fit_query_bound,
    functional_equivalence,
    query_complexity_bench,
)

DELTA = 1e-4
TAU = 1e-6
# Largest accepted ratio of the final affine-residual deviation to its
# tolerance: a round trip must pass with a wide margin, not by luck of
# summation order.
HEADROOM = 0.05

DEPTH2_CELLS = [(d, d1) for d in (2, 5, 10) for d1 in (1, 8, 32)]
DEPTH3_CELLS = [
    (d, d1, d2)
    for d in (3, 6)
    for d1 in range(2, d + 1)
    for d2 in (3 * d1, 5 * d1)
]


def _tally(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def _same_plane(a, b, tol=1e-7):
    """Do the (normal, offset) planes `a` and `b` match within `tol`?"""
    return plane_gap(*a, [b[0]], [b[1]]) <= tol


@pytest.fixture(scope="module")
def depth2_runs():
    runs = []
    for k in range(50):
        d, d1 = DEPTH2_CELLS[k % len(DEPTH2_CELLS)]
        net = generate_two_layer(d, d1, np.random.default_rng(1000 + k))
        audit = AccessAudit(net)
        oracle = as_oracle(audit)
        audit.arm()
        t0 = time.perf_counter()
        result = extract_two_layer(oracle, d, DELTA, d1 + 4)
        seconds = time.perf_counter() - t0
        audit.disarm()
        runs.append(
            {"net": net, "result": result, "seconds": seconds, "reads": audit.reads})
    return runs


def _draw_three_layer(d, d1, d2, seed):
    last = None
    for offset in (0, 100_000, 200_000, 300_000):
        try:
            return generate_three_layer(d, d1, d2,
                                        np.random.default_rng(seed + offset))
        except GenerationError as err:
            last = err
    raise last


@pytest.fixture(scope="module")
def depth3_runs():
    runs = []
    for k in range(30):
        d, d1, d2 = DEPTH3_CELLS[k % len(DEPTH3_CELLS)]
        net = _draw_three_layer(d, d1, d2, 2000 + k)
        audit = AccessAudit(net)
        oracle = as_oracle(audit)
        audit.arm()
        t0 = time.perf_counter()
        result = extract_three_layer(oracle, DELTA)
        seconds = time.perf_counter() - t0
        audit.disarm()
        runs.append(
            {"net": net, "result": result, "seconds": seconds, "reads": audit.reads})
    return runs


def test_criterion_1_depth2_round_trip(depth2_runs):
    reports = [
        functional_equivalence(r["net"], r["result"].net, 0.0, 10.0,
                               n_samples=10_000, tau=TAU)
        for r in depth2_runs
    ]
    worst_err = max(rep.max_rel_err for rep in reports)
    worst_sec = max(r["seconds"] for r in depth2_runs)
    headroom = max(r["result"].residual_headroom for r in depth2_runs)
    ok = (all(rep.passed for rep in reports) and worst_sec < 5.0
          and headroom <= HEADROOM)
    _tally(1, ok, f"50 instances, max rel err {worst_err:.2e}, "
                  f"slowest extraction {worst_sec:.2f}s, "
                  f"worst residual headroom {headroom:.1e}")


def test_criterion_2_depth2_parameter_recovery(depth2_runs):
    checked = 0
    mismatches = 0
    for run in depth2_runs:
        got, net = run["result"].net, run["net"]
        recovered = [(unit_plane(w, b), s) for w, b, s in zip(got.W, got.b, got.s)]
        for row, offset, sign in zip(net.W, net.b, net.s):
            on_axis = any(w != 0.0 and -offset / w > 0.0 for w in row)
            if not on_axis:
                continue
            checked += 1
            truth = unit_plane(row, offset)
            hits = [s for plane, s in recovered if _same_plane(plane, truth)]
            if not hits or any(s != sign for s in hits):
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    _tally(2, ok, f"{checked} axis-visible units, {mismatches} mismatches")


def test_criterion_3_depth3_round_trip(depth3_runs):
    reports = [
        functional_equivalence(r["net"], r["result"].net, -5.0, 5.0,
                               n_samples=10_000, tau=TAU)
        for r in depth3_runs
    ]
    worst_err = max(rep.max_rel_err for rep in reports)
    worst_sec = max(r["seconds"] for r in depth3_runs)
    headroom = max(r["result"].residual_headroom for r in depth3_runs)
    ok = (all(rep.passed for rep in reports) and worst_sec < 30.0
          and headroom <= HEADROOM)
    _tally(3, ok, f"30 instances, max rel err {worst_err:.2e}, "
                  f"slowest extraction {worst_sec:.2f}s, "
                  f"worst residual headroom {headroom:.1e}")


# sha256 of the 30 serialized depth-3 fixture nets, in order.  It covers
# every depth-3 cell and retry offset the fixture draws, so any change to the
# depth-3 generator's random stream shows here.
_DEPTH3_FIXTURE_DIGEST = (
    "39193286919b7f12bc58225b686479924d8a64d3bc1243f08ffb96933340ad29")


def test_depth3_fixture_draws_are_pinned(depth3_runs):
    sha = hashlib.sha256()
    for run in depth3_runs:
        sha.update(dumps_document(net_to_document(run["net"])).encode())
    assert sha.hexdigest() == _DEPTH3_FIXTURE_DIGEST


# sha256 of the 50 serialized depth-2 fixture nets, in order: any change to
# the depth-2 generator's random stream or rejection tests shows here.
_DEPTH2_FIXTURE_DIGEST = (
    "47fb402ea0d7bbd1d6d7ee5be6c4390c6c2b0d32430229e3839e06727c8eec7b")


def test_depth2_fixture_draws_are_pinned(depth2_runs):
    sha = hashlib.sha256()
    for run in depth2_runs:
        sha.update(dumps_document(net_to_document(run["net"])).encode())
    assert sha.hexdigest() == _DEPTH2_FIXTURE_DIGEST


# Per-phase query counts of every fixture run, in fixture order.  Counts are
# exact, so a speed-up must leave each of them as it is; recovered floats are
# not pinned, so a harmless change of summation order still passes.
_DEPTH2_PHASES = ("scan", "recover", "refine", "skip")
_DEPTH2_PHASE_COUNTS = [
    (40, 10, 6, 19), (192, 80, 48, 19), (739, 320, 192, 19),
    (79, 16, 12, 22), (203, 128, 96, 22), (739, 512, 384, 22),
    (144, 26, 22, 27), (273, 208, 176, 27), (810, 832, 704, 27),
    (40, 10, 6, 19), (168, 80, 48, 19), (828, 320, 192, 19),
    (79, 16, 12, 22), (197, 128, 96, 22), (768, 512, 384, 22),
    (144, 26, 22, 27), (278, 208, 176, 27), (789, 832, 704, 27),
    (40, 10, 6, 19), (180, 80, 48, 19), (758, 320, 192, 19),
    (79, 16, 12, 22), (207, 128, 96, 22), (741, 512, 384, 22),
    (144, 26, 22, 27), (286, 208, 176, 27), (830, 832, 704, 27),
    (40, 10, 6, 19), (165, 80, 48, 19), (767, 320, 192, 19),
    (79, 16, 12, 22), (198, 128, 96, 22), (748, 512, 384, 22),
    (144, 26, 22, 27), (273, 208, 176, 27), (804, 832, 704, 27),
    (40, 10, 6, 19), (183, 80, 48, 19), (757, 320, 192, 19),
    (79, 16, 12, 22), (223, 128, 96, 22), (766, 512, 384, 22),
    (144, 26, 22, 27), (272, 208, 176, 27), (796, 832, 704, 27),
    (40, 10, 6, 19), (170, 80, 48, 19), (822, 320, 192, 19),
    (79, 16, 12, 22), (201, 128, 96, 22),
]
_DEPTH3_PHASES = ("collect", "filter", "signs", "peel")
_DEPTH3_PHASE_COUNTS = [
    (280, 48, 0, 269), (257, 66, 0, 429), (513, 102, 0, 433),
    (561, 147, 0, 683), (406, 57, 0, 269), (590, 72, 0, 419),
    (638, 105, 0, 479), (988, 360, 0, 699), (496, 159, 0, 605),
    (1071, 222, 0, 1009), (878, 381, 0, 829), (826, 276, 0, 1349),
    (854, 351, 0, 1053), (1606, 759, 0, 1775), (225, 81, 0, 261),
    (154, 36, 0, 415), (408, 111, 0, 443), (716, 138, 0, 693),
    (382, 54, 0, 269), (560, 87, 0, 415), (324, 87, 0, 413),
    (758, 168, 0, 687), (512, 162, 0, 593), (1126, 234, 0, 977),
    (710, 228, 0, 823), (1220, 360, 0, 1347), (996, 345, 0, 1041),
    (1596, 768, 0, 1803), (182, 42, 0, 275), (497, 144, 0, 439),
]


@pytest.mark.parametrize("fixture, phases, counts", [
    ("depth2_runs", _DEPTH2_PHASES, _DEPTH2_PHASE_COUNTS),
    ("depth3_runs", _DEPTH3_PHASES, _DEPTH3_PHASE_COUNTS),
], ids=["depth2", "depth3"])
def test_fixture_phase_queries_are_pinned(request, fixture, phases, counts):
    runs = request.getfixturevalue(fixture)
    got = [run["result"].phase_queries for run in runs]
    assert got == [dict(zip(phases, row)) for row in counts]


def test_criterion_4_first_layer_filter_is_exact(depth3_runs):
    bad = 0
    for run in depth3_runs:
        net, res = run["net"], run["result"]
        truth = [unit_plane(w, b) for w, b in zip(net.W, net.b)]
        found = [unit_plane(w, b) for w, b in zip(res.net.W, res.net.b)]
        exact = len(found) == len(truth)
        used = set()
        for plane in truth:
            match = [j for j in range(len(found))
                     if j not in used and _same_plane(found[j], plane)]
            if match:
                used.add(match[0])
            else:
                exact = False
        bad += not exact
    _tally(4, bad == 0,
           f"{len(depth3_runs)} runs, {bad} with survivor set != first layer")


def test_criterion_5_signed_rows_match(depth3_runs):
    total = 0
    bad = 0
    for run in depth3_runs:
        net, res = run["net"], run["result"].net
        used = set()
        for i in range(net.d1):
            total += 1
            j = int(np.argmax(np.abs(res.W @ net.W[i])))
            if (j in used
                    or np.max(np.abs(res.W[j] - net.W[i])) > 1e-7
                    or abs(float(res.b[j]) - float(net.b[i])) > 1e-7):
                bad += 1
            used.add(j)
    _tally(5, bad == 0, f"{total} rows cosine-matched, {bad} off by > 1e-7")


def test_criterion_6_query_counts_track_the_bound():
    # Depth 2: at each delta the counts follow the d * d1 shape within 2x,
    # and log2(1/delta) bounds their growth from delta = 1e-2 in every cell.
    # The break search bisects only where its line-intersection test fails,
    # so counts grow slower than log2(1/delta) and the factor is a bound.
    deltas2 = (1e-2, 1e-4, 1e-8)
    shapes2 = [(2, d, d1, 0) for d in (4, 8) for d1 in (8, 16)]
    rows2 = query_complexity_bench(shapes2, deltas=deltas2, seeds=(0,))
    fit2 = max((fit_query_bound([r for r in rows2 if r.delta == delta], 2)
                for delta in deltas2), key=lambda fit: fit.worst_ratio)
    coarse = {(r.d, r.d1): r for r in rows2 if r.delta == deltas2[0]}
    growth = max(
        (r.total_queries / coarse[r.d, r.d1].total_queries)
        / (r.predictor / coarse[r.d, r.d1].predictor)
        for r in rows2 if r.delta != deltas2[0])

    base = (3, 6, 3, 9)
    star = [base, (3, 12, 3, 9), (3, 6, 6, 9), (3, 6, 3, 18)]
    rows3 = query_complexity_bench(star, deltas=(1e-4,), seeds=(0,))
    rows3 += query_complexity_bench([base], deltas=(1e-8,), seeds=(0,))
    fit3 = fit_query_bound(rows3, 3)

    all_ok = all(r.ok for r in rows2 + rows3)
    envelope = all(
        r.total_queries <= 2.0 * fit3.constant * r.predictor for r in rows3)
    ok = (all_ok and fit2.worst_ratio <= 2.0 and growth <= 1.0
          and fit3.worst_ratio <= 2.0 and envelope)
    _tally(6, ok, f"worst fit ratio depth-2 {fit2.worst_ratio:.2f} per delta, "
                  f"depth-2 growth {growth:.2f} of log2(1/delta), "
                  f"depth-3 {fit3.worst_ratio:.2f}, 2x envelope held: {envelope}")


def test_criterion_7_orthant_intersection_rate():
    t0 = time.perf_counter()
    exp = empirical_orthant_bound(2, 30, 100_000, seed=0)
    seconds = time.perf_counter() - t0
    sigma = math.sqrt(exp.bound * (1.0 - exp.bound) / exp.trials)
    ok = exp.rate <= exp.bound + 3.0 * sigma and seconds < 60.0
    _tally(7, ok, f"rate {exp.rate:.2e} vs bound {exp.bound:.2e} "
                  f"+ 3 sigma, {seconds:.1f}s")


def test_criterion_8_sweep_agrees_with_dense_grid():
    count_mismatches = 0
    worst_gap = 0.0
    for seed in range(100):
        fn, kinks = synth_pwl(np.random.default_rng(5000 + seed), max_kinks=8)
        dense = dense_grid_kinks(fn, -10.0, 10.0, DELTA / 4.0)
        found = all_critical_points_1d(scalar_line(fn), DELTA, 16, (-10.0, 10.0))
        if len(found) != len(dense) or len(found) != len(kinks):
            count_mismatches += 1
        elif found:
            worst_gap = max(worst_gap, float(
                np.max(np.abs(np.array(found) - np.array(dense)))))
    ok = count_mismatches == 0 and worst_gap <= 1e-6
    _tally(8, ok, f"100 functions, {count_mismatches} count mismatches, "
                  f"worst position gap {worst_gap:.2e}")


def test_criterion_9_no_parameter_reads(depth2_runs, depth3_runs):
    runs = depth2_runs + depth3_runs
    reads = sum(r["reads"] for r in runs)
    _tally(9, reads == 0,
           f"{reads} ground-truth attribute reads across {len(runs)} extractions")
