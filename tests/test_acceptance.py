"""End-to-end gate: one test per numbered release criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
numbers, so a plain pytest run doubles as the release checklist.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from helpers import dense_grid_kinks, scalar_line, synth_pwl
from netpeel.extract2 import extract_two_layer
from netpeel.extract3 import extract_three_layer
from netpeel.oracle.generate import (
    GenerationError,
    generate_three_layer,
    generate_two_layer,
)
from netpeel.oracle.query import AccessAudit, as_oracle
from netpeel.oracle.serialize import dumps_document, net_to_document
from netpeel.pwl import Hyperplane, all_critical_points_1d
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


def _canonical(w, b):
    return Hyperplane.from_coefficients(w, float(b)).canonical()


def _same_plane(a, b, tol=1e-7):
    return (np.max(np.abs(a.normal - b.normal)) <= tol
            and abs(a.offset - b.offset) <= tol)


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
        result = extract_three_layer(oracle, d, DELTA)
        seconds = time.perf_counter() - t0
        audit.disarm()
        runs.append(
            {"net": net, "result": result, "seconds": seconds, "reads": audit.reads})
    return runs


def test_criterion_1_depth2_round_trip(depth2_runs):
    reports = [
        functional_equivalence(r["net"], r["result"], 0.0, 10.0,
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
        recovered = [
            (_canonical(n.w, n.b), n.sign) for n in run["result"].neurons]
        for unit in run["net"].neurons:
            on_axis = any(w != 0.0 and -unit.b / w > 0.0 for w in unit.w)
            if not on_axis:
                continue
            checked += 1
            truth = _canonical(unit.w, unit.b)
            hits = [s for plane, s in recovered if _same_plane(plane, truth)]
            if not hits or any(s != unit.sign for s in hits):
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    _tally(2, ok, f"{checked} axis-visible units, {mismatches} mismatches")


def test_criterion_3_depth3_round_trip(depth3_runs):
    reports = [
        functional_equivalence(r["net"], r["result"], -5.0, 5.0,
                               n_samples=10_000, tau=TAU)
        for r in depth3_runs
    ]
    worst_err = max(rep.max_rel_err for rep in reports)
    worst_sec = max(r["seconds"] for r in depth3_runs)
    headroom = max(r["result"].top.residual_headroom for r in depth3_runs)
    ok = (all(rep.passed for rep in reports) and worst_sec < 30.0
          and headroom <= HEADROOM)
    _tally(3, ok, f"30 instances, max rel err {worst_err:.2e}, "
                  f"slowest extraction {worst_sec:.2f}s, "
                  f"worst residual headroom {headroom:.1e}")


# sha256 of the 30 serialized depth-3 fixture nets, in order.  It covers
# every depth-3 cell and retry offset the fixture draws, so any change to the
# depth-3 generator's random stream shows here.
_DEPTH3_FIXTURE_DIGEST = (
    "70f65e74514746ea0e7af7d221644f69b7abd568154916a102d588a08d96e82c")


def test_depth3_fixture_draws_are_pinned(depth3_runs):
    sha = hashlib.sha256()
    for run in depth3_runs:
        sha.update(dumps_document(net_to_document(run["net"])).encode())
    assert sha.hexdigest() == _DEPTH3_FIXTURE_DIGEST


# sha256 of the 50 serialized depth-2 fixture nets, in order: any change to
# the depth-2 generator's random stream or rejection tests shows here.
_DEPTH2_FIXTURE_DIGEST = (
    "69f3acdb1d866e4bb572b11ae017eada97f6b2cf1b6d66e0be815f14d847495c")


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
    (374, 11, 6, 19), (728, 88, 48, 19), (1990, 352, 192, 19),
    (862, 17, 12, 22), (1300, 136, 96, 22), (2508, 544, 384, 22),
    (1672, 27, 22, 27), (2062, 216, 176, 27), (3404, 864, 704, 27),
    (374, 11, 6, 19), (730, 88, 48, 19), (1940, 352, 192, 19),
    (862, 17, 12, 22), (1214, 136, 96, 22), (2548, 544, 384, 22),
    (1670, 27, 22, 27), (2108, 216, 176, 27), (3356, 864, 704, 27),
    (374, 11, 6, 19), (726, 88, 48, 19), (1948, 352, 192, 19),
    (862, 17, 12, 22), (1218, 136, 96, 22), (2598, 544, 384, 22),
    (1672, 27, 22, 27), (2022, 216, 176, 27), (3412, 864, 704, 27),
    (376, 11, 6, 19), (772, 88, 48, 19), (1990, 352, 192, 19),
    (862, 17, 12, 22), (1258, 136, 96, 22), (2646, 544, 384, 22),
    (1672, 27, 22, 27), (2070, 216, 176, 27), (3404, 864, 704, 27),
    (374, 11, 6, 19), (768, 88, 48, 19), (2066, 352, 192, 19),
    (860, 17, 12, 22), (1216, 136, 96, 22), (2552, 544, 384, 22),
    (1670, 27, 22, 27), (2024, 216, 176, 27), (3408, 864, 704, 27),
    (374, 11, 6, 19), (728, 88, 48, 19), (1934, 352, 192, 19),
    (862, 17, 12, 22), (1216, 136, 96, 22),
]
_DEPTH3_PHASES = ("collect", "filter", "signs", "peel")
_DEPTH3_PHASE_COUNTS = [
    (774, 196, 6, 749), (731, 194, 6, 1019), (1207, 495, 9, 1145),
    (1541, 865, 9, 1579), (922, 219, 6, 751), (1174, 311, 6, 1017),
    (1264, 431, 9, 1151), (1480, 752, 9, 1585), (1076, 559, 12, 1577),
    (1808, 1481, 12, 2173), (1076, 579, 15, 2023), (1258, 860, 15, 2821),
    (1818, 1306, 18, 2495), (2136, 1944, 18, 3493), (663, 169, 6, 749),
    (572, 152, 6, 1017), (1062, 629, 9, 1151), (1484, 698, 9, 1579),
    (890, 219, 6, 749), (1172, 357, 6, 1021), (752, 220, 9, 1153),
    (1442, 631, 9, 1577), (1270, 628, 12, 1573), (2196, 1732, 12, 2185),
    (1618, 990, 15, 2023), (2350, 1481, 15, 2823), (1726, 1242, 18, 2499),
    (2148, 1516, 18, 3501), (572, 134, 6, 745), (1149, 548, 6, 1015),
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
        truth = [_canonical(net.W[i], net.b[i]) for i in range(net.d1)]
        found = [_canonical(res.W[j], res.b[j]) for j in range(res.d1)]
        exact = res.n_survivors == net.d1 and len(found) == len(truth)
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
        net, res = run["net"], run["result"]
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
    shapes2 = [(2, d, d1, 0) for d in (4, 8) for d1 in (8, 16)]
    rows2 = query_complexity_bench(shapes2, deltas=(1e-2, 1e-4, 1e-8), seeds=(0,))
    fit2 = fit_query_bound(rows2, 2)

    base = (3, 6, 3, 9)
    star = [base, (3, 12, 3, 9), (3, 6, 6, 9), (3, 6, 3, 18)]
    rows3 = query_complexity_bench(star, deltas=(1e-4,), seeds=(0,))
    rows3 += query_complexity_bench([base], deltas=(1e-8,), seeds=(0,))
    fit3 = fit_query_bound(rows3, 3)

    all_ok = all(r.ok for r in rows2 + rows3)
    envelope = all(
        r.total_queries <= 2.0 * fit3.constant * r.predictor for r in rows3)
    ok = (all_ok and fit2.worst_ratio <= 2.0 and fit3.worst_ratio <= 2.0
          and envelope)
    _tally(6, ok, f"worst fit ratio depth-2 {fit2.worst_ratio:.2f}, "
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
