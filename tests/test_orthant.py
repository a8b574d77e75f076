"""The orthant module: its minor tables, its one HiGHS program and the generator's dead-region test."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from netpeel import orthant
from netpeel.oracle import generate
from netpeel.oracle.generate import generate_three_layer


def _minor_plan_loop(d1, d):
    """`_minor_plan` one subset at a time through a dict: the reference."""
    empty = np.zeros((0, 1), dtype=np.intp)
    plan = [(empty, empty)]
    index = {(): 0}
    for k in range(1, min(d + 1, d1) + 1):
        subsets = list(itertools.combinations(range(d1), k))
        rows = np.array(subsets, dtype=np.intp).T.copy()
        sub = np.array(
            [[index[s[:j] + s[j + 1:]] for s in subsets] for j in range(k)],
            dtype=np.intp,
        )
        plan.append((rows, sub))
        index = {s: i for i, s in enumerate(subsets)}
    return plan


@pytest.mark.parametrize("d1, d", [(2, 1), (12, 3), (30, 2), (24, 4), (3, 5)])
def test_minor_plan_matches_the_loop(d1, d):
    plan, reference = orthant._minor_plan(d1, d), _minor_plan_loop(d1, d)
    assert len(plan) == len(reference)
    for k, ((rows, sub), (ref_rows, ref_sub)) in enumerate(zip(plan, reference)):
        assert rows.dtype == sub.dtype == np.intp, k
        assert rows.shape == ref_rows.shape and np.array_equal(rows, ref_rows), k
        assert sub.shape == ref_sub.shape and np.array_equal(sub, ref_sub), k


# ------------------------------------------------- dead-region decisions


def _highs_reachable(V, c):
    """The generator's dead-region LP, solved by HiGHS alone: the reference."""
    d2, d1 = V.shape
    cobj = np.zeros(d1 + 1)
    cobj[-1] = -1.0
    res = linprog(cobj, A_ub=np.hstack([V, np.ones((d2, 1))]), b_ub=-c,
                  bounds=[(0, None)] * d1 + [(0, 1)], method="highs")
    assert res.status in (0, 2)
    return res.status == 0 and -res.fun > orthant._LP_MARGIN


@pytest.fixture
def solver_calls(monkeypatch):
    """Count the HiGHS calls."""
    calls = []
    solve = orthant.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(orthant, "linprog", counting_linprog)
    return calls


def test_generator_decisions_match_highs_without_a_solver(monkeypatch, solver_calls):
    decisions = []
    decide = generate._orthant_reachable

    def recording(V, c):
        reachable = decide(V, c)
        decisions.append((V.copy(), c.copy(), reachable))
        return reachable

    monkeypatch.setattr(generate, "_orthant_reachable", recording)
    for shape, seeds in (((6, 3, 9), 48), ((4, 3, 9), 30), ((2, 2, 6), 20)):
        for seed in range(seeds):
            generate_three_layer(*shape, np.random.default_rng(seed))
    assert len(decisions) == 142 and solver_calls == []
    assert [r for _, _, r in decisions] == [_highs_reachable(V, c) for V, c, _ in decisions]
    assert 0 < sum(r for _, _, r in decisions) < 142


def test_a_repeated_row_goes_to_highs_once(solver_calls):
    V, c = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, -1.0]]), np.array([0.5, -0.3, 0.2])
    W = np.vstack([V, -np.eye(2)])
    assert np.isnan(orthant._vertex_margins(W[None], np.concatenate([c, [0.0, 0.0]])[None]))
    assert generate._orthant_reachable(V, c) == _highs_reachable(V, c)
    assert solver_calls == [1]


def test_a_margin_in_the_band_goes_to_highs(solver_calls):
    # The only unit sits on its boundary at y = 0 and grows along the
    # orthant, so the kernel's margin is exactly 0.
    V, c = np.array([[1.0]]), np.array([0.0])
    W, b = np.array([[[1.0], [-1.0]]]), np.array([[0.0, 0.0]])
    assert orthant._unsure(orthant._vertex_margins(W, b)).all()
    assert not generate._orthant_reachable(V, c)
    assert solver_calls == [1]


def test_negative_offsets_reach_the_orthant_without_the_kernel(monkeypatch, solver_calls):
    monkeypatch.setattr(orthant, "_vertex_margins", None)
    V, c = np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([-0.5, -1e-3])
    assert generate._orthant_reachable(V, c)
    assert solver_calls == []


@pytest.mark.parametrize("d1, d2, route", [(5, 15, "highs"), (6, 12, "highs"), (4, 20, "highs"),
                                          (3, 30, "highs"), (3, 20, "kernel")])
def test_wide_dead_region_decisions_match_the_generators_old_lp(d1, d2, route, solver_calls):
    """Wide draws reach HiGHS through the block program on [V; -I], and (3, 20)
    draws reach the kernel; both decide as the generator's own LP did."""
    rng = np.random.default_rng(d1 * d2)
    draws = []
    while len(draws) < 6:
        second = generate._second_layer_block(d1, d2, rng)
        if second is not None:
            draws.append(second)
    decisions = [generate._orthant_reachable(V, c) for V, c in draws]
    assert len(solver_calls) == (len(draws) if route == "highs" else 0)
    assert decisions == [_highs_reachable(V, c) for V, c in draws]
    # Wide draws seldom leave a dead region; the fifth (6, 12) draw does.
    assert any(decisions) == ((d1, d2) == (6, 12))
