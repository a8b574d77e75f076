"""The measured general-position margins and their one home."""

import ast
from pathlib import Path

import numpy as np

import netpeel
from netpeel.margins import leave_one_out, least_singular_value, plane_gap

PACKAGE = Path(netpeel.__file__).resolve().parent


def _generator_loop(W):
    """The depth-3 generator's former leave-one-out loop."""
    out = W.copy()
    for i in range(len(W)):
        others = np.delete(W, i, axis=0)
        if others.size:
            q, _ = np.linalg.qr(others.T, mode="reduced")
            out[i] = W[i] - q @ (q.T @ W[i])
    return out


def _sign_recovery_loop(W):
    """The depth-3 extractor's former per-plane direction of sign recovery."""
    out = []
    for i, n_i in enumerate(W):
        rest = [row for j, row in enumerate(W) if j != i]
        if rest:
            q, _ = np.linalg.qr(np.stack(rest).T)
            out.append(n_i - q @ (q.T @ n_i))
        else:
            out.append(n_i.copy())
    return np.array(out)


def _stacks():
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, d + 1))
        W = rng.standard_normal((m, d))
        yield W
        yield W / np.linalg.norm(W, axis=1, keepdims=True)
        yield W[:1]
        if m >= 2:
            # A repeated row and a row in the span of two others.
            dup = W.copy()
            dup[-1] = dup[0]
            yield dup
            mix = W.copy()
            mix[-1] = 0.5 * W[0] - 2.0 * W[1]
            yield mix


def _independent_others(W, i):
    others = np.delete(W, i, axis=0)
    return np.linalg.matrix_rank(others) == len(others)


def _least_squares_residual(W, i):
    """Row i of W minus its least-squares fit by the other rows."""
    others = np.delete(W, i, axis=0).T
    if others.size == 0:
        return W[i]
    return W[i] - others @ np.linalg.lstsq(others, W[i], rcond=None)[0]


def test_leave_one_out_is_bitwise_the_former_loops():
    """Bitwise where the other rows are independent, as at every caller; where
    they are dependent, the former loops projected out a spurious direction,
    so those rows are held to the least-squares residual instead."""
    dependent = 0
    for W in _stacks():
        got = leave_one_out(W)
        sign_loop, generator_loop = _sign_recovery_loop(W), _generator_loop(W)
        for i in range(len(W)):
            if _independent_others(W, i):
                assert np.array_equal(got[i], sign_loop[i])
                assert np.array_equal(got[i], generator_loop[i])
            else:
                dependent += 1
                assert np.allclose(got[i], _least_squares_residual(W, i),
                                   rtol=0.0, atol=1e-12)
    assert dependent > 0


def test_leave_one_out_is_zero_on_a_repeated_row_and_the_row_on_its_own():
    W = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.max(np.abs(leave_one_out(W)[:2])) < 1e-15
    assert np.array_equal(leave_one_out(W[2:]), W[2:])
    indep = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert np.allclose(leave_one_out(indep), [[0.5, -0.5, 0.0], [0.0, 1.0, 0.0]])


def test_leave_one_out_ignores_dependent_other_rows():
    """A repeated row must not take the independent row's residual with it."""
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(leave_one_out(W), [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(leave_one_out(W[::-1]), [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_least_singular_value_is_the_last_singular_value():
    for W in _stacks():
        want = np.linalg.svd(W, compute_uv=False)[-1]
        assert least_singular_value(W) == want
        assert least_singular_value(W.T) == np.linalg.svd(W.T, compute_uv=False)[-1]
    assert least_singular_value(np.zeros((0, 3))) == 0.0
    assert least_singular_value(np.zeros((2, 0))) == 0.0


def test_plane_gap_is_the_nearest_row_up_to_orientation():
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    B = np.array([0.5, -1.0])
    assert plane_gap(np.array([0.0, -1.0]), 1.25, W, B) == 0.25
    assert plane_gap(np.array([1.0, 0.125]), 0.5, W, B) == 0.125
    assert plane_gap(np.array([1.0, 0.0]), 0.0, W[:0], B[:0]) == np.inf


def _linalg_uses(name: str) -> list[tuple[str, str | None]]:
    """(file, innermost enclosing function) of each `*.linalg.<name>` in the package."""
    uses = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"):
                uses.append((path.name, owner.get(node)))
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").endswith("linalg")
                    and any(alias.name == name for alias in node.names)):
                uses.append((path.name, "import"))
    return uses


def test_margins_owns_every_svd_and_the_leave_one_out_qr():
    assert _linalg_uses("svd") == [("margins.py", "least_singular_value")]
    assert _linalg_uses("qr") == [("margins.py", "leave_one_out")]


def test_margins_imports_only_numpy():
    tree = ast.parse((PACKAGE / "margins.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules == {"numpy", "__future__"}
