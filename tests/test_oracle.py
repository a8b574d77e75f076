"""Network evaluation, query counting, instance generation, serialization."""

import ast
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import three_layer
from netpeel import margins, orthant
from netpeel.config import ASSUMPTION_PROBES, PLANE_GAP
from netpeel.extract2 import subtracted_oracle
from netpeel.extract3 import extract_three_layer, peel_first_layer
from netpeel.oracle import generate
from netpeel.oracle.generate import (
    GenerationError,
    check_nonzero_partials,
    generate_three_layer,
    generate_two_layer,
)
from netpeel.oracle.nets import (
    AffineMap,
    ThreeLayerNet,
    TwoLayerNet,
    batch_eval,
    evaluator,
)
from netpeel.oracle.query import (
    AccessAudit,
    DomainError,
    NonFiniteValueError,
    QueryOracle,
    as_oracle,
    axis_ray,
)
from netpeel.oracle.serialize import (
    document_to_net,
    dumps_document,
    load_net,
    loads_document,
    net_to_document,
    save_net,
)


def _net(units, skip=None):
    """The net of (w, b, sign) units, with the affine term (w, b) of `skip`."""
    W, b, s = zip(*units)
    skip = skip if skip is not None else (np.zeros(len(W[0])), 0.0)
    return TwoLayerNet(W, b, s, AffineMap(*skip))


@pytest.mark.parametrize("sign", [0, 0.5, 2, -2, np.nan])
def test_two_layer_net_refuses_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="signs must be"):
        TwoLayerNet([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1, sign])


@pytest.mark.parametrize("W, b, s, skip", [
    ([1.0, 0.0], [0.0, 0.0], [1, 1], None),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0], [1, 1], None),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1, 1, -1], None),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1, -1], AffineMap([1.0, 1.0, 1.0], 0.0)),
], ids=["1-D W", "short b", "long s", "skip dim"])
def test_two_layer_net_refuses_mismatched_shapes(W, b, s, skip):
    with pytest.raises(ValueError):
        TwoLayerNet(W, b, s, skip)


def test_two_layer_net_holds_read_only_float_arrays():
    net = TwoLayerNet([[1, 0], [0, 1], [1, 1]], [0, 1, 2], [1, -1, 1])
    assert (net.d, net.width) == (2, 3)
    for a in (net.W, net.b, net.s):
        assert a.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5.0
    empty = TwoLayerNet(np.zeros((0, 4)), [], [])
    assert (empty.d, empty.width) == (4, 0)


def _value(net, x):
    """One point evaluated as a batch of one row."""
    return float(batch_eval(net, [x])[0])


def test_single_relu_unit():
    net = _net([([1.0], 0.0, 1)])
    assert _value(net, [2.0]) == 2.0
    assert _value(net, [0.0]) == 0.0


def test_two_units_with_skip():
    """relu(3-1) - relu(2) + 5 = 5 at the point (3, 2)."""
    net = _net(
        [([1.0, 0.0], -1.0, 1), ([0.0, 1.0], 0.0, -1)],
        skip=([0.0, 0.0], 5.0),
    )
    assert _value(net, [3.0, 2.0]) == 5.0


def test_three_layer_identity_chain():
    """A 1-1-1 net with all weights 1 acts as relu on scalars."""
    ident = three_layer(W=np.array([[1.0]]), b=np.array([0.0]),
                        V=np.array([[1.0]]), c=np.array([0.0]),
                        signs=np.array([1]))
    assert _value(ident, [3.0]) == 3.0
    assert _value(ident, [-3.0]) == 0.0


def test_three_layer_matches_hand_rolled_loops():
    """Vectorized evaluation against an index-by-index reimplementation."""
    net = generate_three_layer(3, 2, 4, np.random.default_rng(5))
    V, c, signs = net.top.W, net.top.b, net.top.s
    rng = np.random.default_rng(6)
    for x in rng.uniform(-4, 4, size=(20, 3)):
        hidden = []
        for i in range(2):
            z = sum(net.W[i][j] * x[j] for j in range(3)) + net.b[i]
            hidden.append(max(z, 0.0))
        out = 0.0
        for k in range(4):
            z = sum(V[k][i] * hidden[i] for i in range(2)) + c[k]
            out += signs[k] * max(z, 0.0)
        assert _value(net, x) == pytest.approx(out, abs=1e-12)


def test_batch_eval_matches_oracle_queries():
    """Batches and single-row queries agree with a unit-by-unit sum."""
    net = generate_two_layer(4, 6, np.random.default_rng(2))
    oracle = as_oracle(net)
    xs = np.random.default_rng(3).uniform(0, 8, size=(50, 4))
    got = batch_eval(net, xs)
    for x, y in zip(xs, got):
        ref = sum(s * max(float(w @ x) + b, 0.0) for w, b, s in zip(net.W, net.b, net.s))
        assert y == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert oracle(x) == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_query_counter_counts_evaluations():
    net = generate_two_layer(2, 3, np.random.default_rng(1))
    oracle = as_oracle(net)
    for t in range(5):
        oracle(np.array([float(t), 1.0]))
    assert oracle.count == 5


def test_query_counters_are_independent():
    net = generate_two_layer(2, 3, np.random.default_rng(1))
    a = as_oracle(net)
    b = as_oracle(net)
    a(np.array([1.0, 1.0]))
    a(np.array([2.0, 1.0]))
    b(np.array([1.0, 1.0]))
    assert (a.count, b.count) == (2, 1)


def test_axis_ray_is_one_query_of_its_oracle_per_call():
    net = generate_three_layer(4, 3, 9, np.random.default_rng(3))
    oracle, reference = as_oracle(net), as_oracle(net)
    for axis in range(4):
        ray = axis_ray(oracle, axis)
        e = np.eye(4)[axis]
        for t in (-2.5, -1e-3, 0.0, 0.75, 37.0):
            before = oracle.count
            assert ray(t) == reference(t * e)
            assert oracle.count == before + 1


def _random_skip(rng, d):
    return AffineMap(rng.standard_normal(d), float(rng.standard_normal()))


def _contract_nets():
    """Depth-2 nets with and without skip, depth-3 nets, unitless nets and a
    net with exact zero pre-activations, with their boxes."""
    rng = np.random.default_rng(808)
    nets = []
    for d, d1 in ((1, 1), (3, 5), (4, 8), (10, 32)):
        net = generate_two_layer(d, d1, rng)
        nets.append((net, 0.0, 10.0))
        nets.append((TwoLayerNet(net.W, net.b, net.s, _random_skip(rng, d)), 0.0, 10.0))
    for d, d1, d2 in ((2, 2, 6), (6, 3, 9)):
        net = generate_three_layer(d, d1, d2, rng)
        nets.append((net, -5.0, 5.0))
        top = TwoLayerNet(net.top.W, net.top.b, net.top.s, _random_skip(rng, d1))
        nets.append((ThreeLayerNet(net.W, net.b, top), -5.0, 5.0))
    # No units: a (0, d) weight matrix, as in the final subtracted oracle
    # of a depth-2 run that finds no unit.
    nets.append((TwoLayerNet(np.zeros((0, 3)), [], []), 0.0, 10.0))
    nets.append((TwoLayerNet(np.zeros((0, 3)), [], [], _random_skip(rng, 3)), 0.0, 10.0))
    # At the origin, first-layer unit 0 and top unit 0 (1 * 0 - 0.5 * 2 + 1)
    # have pre-activation exactly 0.0, so both ReLUs meet their zero bound.
    top = TwoLayerNet([[1.0, -0.5], [0.25, 1.0]], [1.0, -0.5], [1, -1])
    nets.append((ThreeLayerNet([[1.0, 0.0, -1.0], [0.5, 1.0, 0.0]], [0.0, 2.0], top),
                 -5.0, 5.0))
    return nets


@pytest.mark.parametrize("case", range(15))
def test_evaluator_gives_a_point_the_value_of_its_one_row_batch(case):
    """The oracles query with a bare (d,) point; it must be bitwise equal to
    the same point evaluated as a batch of one row.  The points are the
    origin and 300 random points of the net's box."""
    net, lo, hi = _contract_nets()[case]
    ev, oracle = evaluator(net), as_oracle(net)
    xs = np.vstack([np.zeros(net.d),
                    np.random.default_rng(case).uniform(lo, hi, size=(300, net.d))])
    for x in xs:
        row = batch_eval(net, x[None, :])[0]
        assert np.ndim(ev(x)) == 0
        assert ev(x) == row
        assert oracle.query(x) == row
    assert oracle.count == len(xs)


def _check_oracle_rejects(oracle, *below):
    """A nonneg oracle refuses off-orthant points and wrong shapes, and
    neither it nor any oracle below it counts them."""
    layers = (oracle, *below)
    counts = [layer.count for layer in layers]
    off = np.ones(oracle.dim)
    off[-1] = -0.5
    with pytest.raises(DomainError):
        oracle.query(off)
    n = oracle.dim
    for bad in (np.ones(n + 1), np.ones((1, n)), np.ones(n - 1)):
        with pytest.raises(ValueError):
            oracle.query(bad)
    assert [layer.count for layer in layers] == counts


def test_oracle_checks_the_domain_and_the_shape():
    net = generate_two_layer(2, 3, np.random.default_rng(1))
    base = as_oracle(net)
    _check_oracle_rejects(base)
    sub = subtracted_oracle(base, TwoLayerNet(net.W[:1], net.b[:1], net.s[:1]))
    _check_oracle_rejects(sub, base)
    # A depth-3 base takes any point of R^d, so the peel's own check is the
    # one guard against y < 0, for it and for the oracles built over it.
    net3 = generate_three_layer(4, 3, 9, np.random.default_rng(3))
    base3 = as_oracle(net3)
    top = peel_first_layer(base3, net3.W, net3.b)
    _check_oracle_rejects(top, base3)
    units = TwoLayerNet(net3.top.W[:4], net3.top.b[:4], net3.top.s[:4])
    _check_oracle_rejects(subtracted_oracle(top, units), top, base3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_values_are_refused_at_every_layer(bad):
    base = QueryOracle(lambda x: bad, 2, "nonneg")
    with pytest.raises(NonFiniteValueError):
        base.query(np.ones(2))
    sub = subtracted_oracle(base, TwoLayerNet([[1.0, 0.0]], [-1.0], [1]))
    with pytest.raises(NonFiniteValueError):
        sub.query(np.ones(2))
    assert (sub.count, base.count) == (0, 0)
    # The units subtracted by a derived oracle can overflow on their own.
    finite = QueryOracle(lambda x: 1.0, 2, "nonneg")
    huge = subtracted_oracle(finite, TwoLayerNet([[1e308, 1e308]], [0.0], [1]))
    with pytest.raises(NonFiniteValueError), np.errstate(over="ignore"):
        huge.query(np.full(2, 10.0))
    assert (huge.count, finite.count) == (0, 1)


def test_each_derived_query_costs_one_base_query():
    net = generate_three_layer(4, 3, 9, np.random.default_rng(3))
    base = as_oracle(net)
    top = peel_first_layer(base, net.W, net.b)
    peel = subtracted_oracle(top, TwoLayerNet(net.top.W[:4], net.top.b[:4], net.top.s[:4]))
    ys = np.random.default_rng(4).uniform(0.0, 3.0, size=(25, 3))
    for k, y in enumerate(ys, start=1):
        peel.query(y)
        assert (peel.count, top.count, base.count) == (k, k, k)
    for k, y in enumerate(ys, start=len(ys) + 1):
        top.query(y)
        assert (top.count, base.count) == (k, k)
    assert peel.count == len(ys)


def test_generated_scalar_unit_crosses_in_window():
    net = generate_two_layer(1, 1, np.random.default_rng(3))
    crossing = -net.b[0] / net.W[0, 0]
    assert 0.0 < crossing < 1e4


def test_generated_axis_crossings_are_separated():
    """Axis restrictions of a (5, 10) instance keep their kinks apart."""
    net = generate_two_layer(5, 10, np.random.default_rng(7))
    for axis in range(5):
        crossings = []
        for w, b in zip(net.W, net.b):
            if abs(w[axis]) > 1e-12:
                t = -b / w[axis]
                if t > 0:
                    crossings.append(t)
        crossings.sort()
        for a, b in zip(crossings, crossings[1:]):
            assert b - a >= 1e-4


def test_generation_is_deterministic_per_seed():
    net_a = generate_two_layer(3, 5, np.random.default_rng(11))
    net_b = generate_two_layer(3, 5, np.random.default_rng(11))
    for name in ("W", "b", "s"):
        assert np.array_equal(getattr(net_a, name), getattr(net_b, name))
    three_a = generate_three_layer(4, 2, 6, np.random.default_rng(11))
    three_b = generate_three_layer(4, 2, 6, np.random.default_rng(11))
    assert np.array_equal(three_a.W, three_b.W)
    assert np.array_equal(three_a.top.b, three_b.top.b)


def test_three_layer_rows_unit_norm_and_v_nonzero():
    net = generate_three_layer(2, 1, 3, np.random.default_rng(4))
    assert np.linalg.norm(net.W[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(net.top.W) > 0)


def test_generated_instance_passes_own_assumptions():
    net = generate_three_layer(4, 3, 9, np.random.default_rng(11))
    top = net.top
    assert check_nonzero_partials(top.W, top.b, top.s,
                                  np.random.default_rng(0))
    assert np.linalg.svd(net.W, compute_uv=False).min() > 0.0


def test_nonzero_partials_on_scalar_cases():
    rng = np.random.default_rng(0)
    assert check_nonzero_partials(np.array([[1.0]]), np.array([0.0]),
                                  np.array([1]), rng)
    # with c = -10 the unit is dead everywhere near the origin
    assert not check_nonzero_partials(np.array([[1.0]]), np.array([-10.0]),
                                      np.array([1]), rng)


def test_nonzero_partials_applies_the_generators_margin():
    # The one unit is active on the whole orthant, but its partial along
    # y_0 is 0.01, below PARTIAL_MARGIN.
    assert not check_nonzero_partials(np.array([[0.01, 1.0]]), np.array([0.5]),
                                      np.array([1]), np.random.default_rng(0))


def test_dead_region_lp_reads_infeasible_as_unreachable(monkeypatch):
    # Every unit is active at y = 0 and grows along the orthant, so no y >= 0
    # with a positive slack exists.  The repeated row leaves the kernel a zero
    # minor, so the decision is HiGHS's; the orthant program is always
    # feasible, and HiGHS reads this case as an optimum t* <= 0.
    calls = []
    solve = orthant.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(orthant, "linprog", counting_linprog)
    assert not generate._orthant_reachable(
        np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 2.0]]), np.array([1.0, 1.0, 0.5]))
    assert calls == [1]


def test_dead_region_lp_failure_is_loud(monkeypatch):
    def failing_linprog(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties",
                               fun=0.0)

    monkeypatch.setattr(orthant, "linprog", failing_linprog)
    # A repeated row of V: the kernel's minor table has a zero, so the
    # decision goes to the solver.
    with pytest.raises(RuntimeError, match="status 4"):
        check_nonzero_partials(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0.5, -0.3]),
                               np.array([1, 1]), np.random.default_rng(0))


def _reference_walk(V, c, u, rng, margin):
    """Per-point pattern walk with a seen-set, as the generator first ran it."""
    d2, d1 = V.shape
    points = [np.zeros(d1)]
    for i in range(d1):
        for t in (0.3, 1.0, 3.0, 8.0):
            e = np.zeros(d1)
            e[i] = t
            points.append(e)
    while len(points) < ASSUMPTION_PROBES:
        y = np.abs(rng.standard_normal(d1)) * rng.choice((0.5, 2.0, 8.0))
        mask = rng.random(d1) < 0.35
        y[mask] = 0.0
        points.append(y)
    seen = set()
    tol = 1e-12 * (1.0 + np.abs(c))
    for y in points:
        z = V @ y + c
        interior = z > tol
        boundary = np.abs(z) <= tol
        for i in range(d1):
            active = interior | (boundary & (V[:, i] > 0.0))
            key = (i, tuple(bool(a) for a in active))
            if key in seen:
                continue
            seen.add(key)
            if not active.any():
                return False
            if abs(float(u[active] @ V[active, i])) < margin:
                return False
    return True


def test_pattern_walk_matches_the_reference_loop():
    cases = np.random.default_rng(2024)
    decisions = []
    for case in range(600):
        d1 = int(cases.integers(1, 5))
        d2 = int(cases.integers(1, 7))
        u = cases.choice((-1.0, 1.0), size=d2)
        if case % 2:
            # Quarter-step grid: zero entries, c_k = 0 exactly and column
            # sums that tie the margin exactly, all without round-off.
            V = cases.integers(-4, 5, size=(d2, d1)) / 4.0
            c = cases.integers(-1, 4, size=d2) / 4.0
            margin = int(cases.integers(0, 4)) / 4.0
        else:
            # Generator-like weights, some biases exactly zero, and a margin
            # a relative 1e-9 above or below one signed partial sum.
            V = (cases.uniform(0.8, 1.4, size=(d2, d1))
                 * cases.choice((-1.0, 1.0), size=(d2, d1)))
            c = cases.uniform(-1.0, 3.0, size=d2)
            c[cases.random(d2) < 0.3] = 0.0
            subset = cases.random(d2) < 0.3
            column = int(cases.integers(d1))
            near = abs(float(u[subset] @ V[subset, column]))
            margin = near * (1.0 + float(cases.choice((-1e-9, 1e-9))))
        seed = int(cases.integers(2**32))
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        fast = generate._partials_walk(V, c, u, fast_rng, margin)
        assert fast == _reference_walk(V, c, u, ref_rng, margin), f"case {case}"
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
        decisions.append(fast)
    assert 100 < sum(decisions) < 500


def _reference_planes_close(w1, b1, w2, b2, gap):
    """The generators' former pairwise plane-gap test, one row at a time."""
    for s in (1.0, -1.0):
        if max(float(np.max(np.abs(w1 - s * w2))), abs(b1 - s * b2)) < gap:
            return True
    return False


def test_plane_gap_test_matches_the_pairwise_loop():
    cases = np.random.default_rng(77)
    decisions = []
    for case in range(3000):
        d = int(cases.integers(1, 7))
        k = int(cases.integers(0, 9))
        if case % 3 == 0:
            # Multiples of 2**-10 with gap 2**-10: differences are exact, so
            # gaps land exactly on the threshold.
            g = 2.0 ** -10
            W = cases.integers(-8, 9, size=(k, d)) * g
            B = cases.integers(-8, 9, size=k) * g
        else:
            g = PLANE_GAP
            W = cases.standard_normal((k, d))
            B = cases.uniform(-4.0, 4.0, size=k)
        if k and cases.random() < 0.8:
            # Near a stored row or its negation, at a gap below, at or above
            # the threshold in one weight or in the offset.
            j = int(cases.integers(k))
            s = float(cases.choice((1.0, -1.0)))
            w, b = s * W[j].copy(), s * float(B[j])
            step = g * float(cases.choice((0.5, 1.0, 1.0, 2.0)))
            if cases.random() < 0.5:
                w[int(cases.integers(d))] += float(cases.choice((-1.0, 1.0))) * step
            else:
                b += float(cases.choice((-1.0, 1.0))) * step
        else:
            w, b = cases.standard_normal(d), float(cases.uniform(-4.0, 4.0))
        got = margins.plane_gap(w, b, W, B) < g
        ref = any(_reference_planes_close(w, b, W[i], B[i], g) for i in range(k))
        assert got == ref, f"case {case}"
        decisions.append(got)
    assert 500 < sum(decisions) < 2500


def _kernel_unsure(V, c):
    """Whether `_orthant_reachable` leaves (V, c) to HiGHS: y = 0 does not
    reach, and the cost rule routes its one problem past the kernel or the
    kernel is unsure."""
    d2, d1 = V.shape
    if np.all(c < -(orthant._LP_MARGIN + orthant._SCREEN_MARGIN)):
        return False
    work = orthant._table_size(d2 + d1, d1) * (d1 + 1)
    if work > orthant._HIGHS_CALL + orthant._HIGHS_TRIAL:
        return True
    W = np.vstack([V, -np.eye(d1)])
    b = np.concatenate([c, np.zeros(d1)])
    return bool(orthant._unsure(orthant._vertex_margins(W[None], b[None]))[0])


def test_generator_decides_the_dead_region_once_per_second_layer_draw(monkeypatch):
    counts = {"blocks": 0, "lps": 0}
    unsure = []
    block, decide, linprog = (generate._second_layer_block, generate._orthant_reachable,
                              orthant.linprog)

    def counting_block(*args, **kwargs):
        second = block(*args, **kwargs)
        counts["blocks"] += second is not None
        return second

    def recording_decide(V, c):
        unsure.append(_kernel_unsure(V, c))
        return decide(V, c)

    def counting_linprog(*args, **kwargs):
        counts["lps"] += 1
        return linprog(*args, **kwargs)

    monkeypatch.setattr(generate, "_second_layer_block", counting_block)
    monkeypatch.setattr(generate, "_orthant_reachable", recording_decide)
    monkeypatch.setattr(orthant, "linprog", counting_linprog)
    for seed in range(5):
        generate_three_layer(6, 3, 9, np.random.default_rng(seed))
    # The (5, 4, 20) embedding, 42504 row subsets of 5 columns, costs the
    # kernel more than one HiGHS call.
    generate_three_layer(5, 4, 20, np.random.default_rng(0))
    assert counts["blocks"] > 0
    assert len(unsure) == counts["blocks"]
    assert 0 < counts["lps"] == sum(unsure) < counts["blocks"]


def test_generate_names_linprog_once_inside_the_dead_region_test():
    """The generator's one dead-region LP is `orthant`'s block program; the
    generator builds none of its own and keeps no kernel name."""
    owners = [
        (path.name, fn.name)
        for path in (Path(generate.__file__), Path(orthant.__file__))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "linprog"
    ]
    assert owners == [("orthant.py", "_orthant_margins")]
    assert generate.linprog is orthant.linprog
    for name in ("_vertex_margins", "_table_size", "_unsure", "_orthant_margins"):
        assert not hasattr(generate, name), name


def test_generation_failure_names_the_shape():
    # One axis ray holds at most 180 crossings 0.05 apart in [0.5, 9.5], so
    # 200 units on one axis cannot all be placed.
    with pytest.raises(GenerationError, match="two-layer unit"):
        generate_two_layer(1, 200, np.random.default_rng(0))


def test_save_load_round_trip(tmp_path):
    """A reloaded net re-serializes to byte-identical text."""
    net = generate_two_layer(3, 4, np.random.default_rng(9))
    path = tmp_path / "net.json"
    save_net(path, net, seed=9)
    text_a = path.read_text()
    again = load_net(path)
    text_b = dumps_document(net_to_document(again, seed=9))
    assert text_a == text_b
    xs = np.random.default_rng(1).uniform(0, 5, size=(100, 3))
    assert np.array_equal(batch_eval(net, xs), batch_eval(again, xs))


def test_three_layer_save_load_round_trip(tmp_path):
    """Generated (no skip) and extracted (with a skip over the hidden
    activations) depth-3 nets reload and re-serialize to byte-identical text."""
    net = generate_three_layer(3, 2, 5, np.random.default_rng(13))
    found = extract_three_layer(as_oracle(net), 1e-4).net
    assert net.top.skip is None and found.top.skip is not None
    xs = np.random.default_rng(2).uniform(-4, 4, size=(100, 3))
    for name, orig in (("net3.json", net), ("found3.json", found)):
        path = tmp_path / name
        save_net(path, orig, seed=13)
        text_a = path.read_text()
        again = load_net(path)
        assert dumps_document(net_to_document(again, seed=13)) == text_a
        assert ("skip_w" in json.loads(text_a)) == (orig.top.skip is not None)
        assert np.array_equal(batch_eval(orig, xs), batch_eval(again, xs))


def test_document_depth_is_validated():
    net = generate_two_layer(2, 2, np.random.default_rng(0))
    doc = net_to_document(net)
    doc["depth"] = 4
    with pytest.raises(ValueError, match="depth must be 2 or 3"):
        loads_document(json.dumps(doc))


def test_document_counts_may_be_whole_floats():
    """A whole float reads as its integer; `_BAD_INPUTS` in test_cli.py holds
    the fractional counts and signs that are refused."""
    net = generate_three_layer(2, 2, 4, np.random.default_rng(8))
    doc = net_to_document(net)
    whole = {**doc, "d": 2.0, "d1": 2.0, "d2": 4.0, "u": [float(s) for s in doc["u"]]}
    assert dumps_document(net_to_document(document_to_net(whole))) == dumps_document(doc)


def test_document_is_plain_json():
    net = generate_three_layer(2, 2, 4, np.random.default_rng(8))
    text = dumps_document(net_to_document(net))
    doc = json.loads(text)
    assert doc["depth"] == 3


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), d1=st.integers(1, 5), seed=st.integers(0, 2**31))
def test_serialization_round_trip_is_exact(d, d1, seed):
    """Weights survive the text format bit for bit, any shape, any seed."""
    net = generate_two_layer(d, d1, np.random.default_rng(seed))
    text = dumps_document(net_to_document(net))
    again = document_to_net(loads_document(text))
    for name in ("W", "b", "s"):
        assert np.array_equal(getattr(net, name), getattr(again, name))
    assert dumps_document(net_to_document(again)) == text


def test_access_audit_counts_reads_only_while_armed():
    net = generate_two_layer(2, 2, np.random.default_rng(0))
    audit = AccessAudit(net)
    audit.W
    assert audit.reads == 0
    audit.arm()
    audit.W
    audit.skip
    assert audit.reads == 2
    audit.disarm()
    audit.d
    assert audit.reads == 2


def test_oracle_construction_does_not_trip_the_audit():
    """Queries run through a prebuilt oracle touch no net attributes."""
    net = generate_two_layer(3, 4, np.random.default_rng(5))
    audit = AccessAudit(net)
    oracle = as_oracle(audit)
    audit.arm()
    for t in range(10):
        oracle(np.array([float(t), 0.5, 1.0]))
    audit.disarm()
    assert audit.reads == 0
    assert oracle.count == 10
