"""Measured general-position margins.

Extraction is exact only for networks in general position: distinct
hyperplanes, isolated crossings on the probe lines and, at depth 3, a
well-conditioned first layer.  Each function here returns one measured
margin; callers compare it with a `config` pass mark.
"""
from __future__ import annotations

import numpy as np

_SIGNS = np.array([[1.0], [-1.0]])


def plane_gap(w, b, W, B) -> float:
    """Least max(max|w - s W[k]|, |b - s B[k]|) over rows k and s = +-1; inf for no rows."""
    if len(B) == 0:
        return np.inf
    dist = np.maximum(np.abs(w - _SIGNS[..., None] * W).max(axis=2), np.abs(b - _SIGNS * B))
    return float(dist.min())


def leave_one_out(W) -> np.ndarray:
    """Each row of W minus its projection on the span of the other rows.

    The span is that of a reduced QR of the other rows.  While the QR shows
    a row within 1e-10 of the span of the rows before it (relative to the
    largest entry of R), that row is dropped and the rest factored again,
    so dependent rows leave no spurious direction in the basis.  A one-row
    W is its own residual.
    """
    W = np.asarray(W, dtype=float)
    resid = W.copy()
    for i, row in enumerate(W):
        others = np.delete(W, i, axis=0).T
        while True:
            q, r = np.linalg.qr(others)
            dependent = np.abs(np.diag(r)) <= 1e-10 * np.abs(r).max(initial=0.0)
            if not dependent.any():
                break
            others = np.delete(others, np.argmax(dependent), axis=1)
        resid[i] = row - q @ (q.T @ row)
    return resid


def least_singular_value(W) -> float:
    """Smallest singular value of W, or 0.0 for an empty W."""
    return float(np.linalg.svd(W, compute_uv=False)[-1]) if np.size(W) else 0.0
