"""Network containers and reference evaluators.

Two function classes are modeled.  The two-layer class maps the closed
positive orthant to the reals,

    f(x) = skip(x) + sum_j  s_j * relu(w_j . x + b_j),      s_j in {+1, -1},

where the affine `skip` term is optional.  The three-layer class is defined on
all of R^d as a first layer under a two-layer top,

    f(x) = top(relu(W x + b)),

where `top` is a two-layer net on the d1-dimensional hidden orthant.  A
generated top is s . relu(V h + c) with no skip; a recovered top may carry an
affine term in h.  Containers are immutable and hold their parameters as
read-only float64 arrays.  Each class has one evaluator (`evaluator`), a
closure over those arrays with the layer arithmetic inline, which maps a
batch of points to values with a few matrix products, and a single point to
its one value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def relu(z):
    return np.maximum(z, 0.0)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> w . x + b."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(np.atleast_1d(self.w)))
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def __call__(self, x) -> float:
        return float(self.w @ np.asarray(x, dtype=float) + self.b)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float) @ self.w + self.b


@dataclass(frozen=True, eq=False)
class TwoLayerNet:
    """Sum of signed ReLU units plus an optional affine term, on x >= 0.

    Unit j is s[j] * relu(W[j] . x + b[j]); `W` is (width, d), and a net
    with no units has a (0, d) `W`.
    """

    W: np.ndarray
    b: np.ndarray
    s: np.ndarray
    skip: AffineMap | None = None

    def __post_init__(self):
        for name in ("W", "b", "s"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.W.ndim != 2:
            raise ValueError(f"W must be 2-D, got shape {self.W.shape}")
        for name in ("b", "s"):
            if getattr(self, name).shape != (self.width,):
                raise ValueError(f"{name} must have one entry per row of W")
        if not np.all(np.abs(self.s) == 1.0):
            raise ValueError(f"unit signs must be +1 or -1, got {self.s}")
        if self.skip is not None and self.skip.dim != self.d:
            raise ValueError("skip dim does not match net dim")

    @property
    def d(self) -> int:
        return self.W.shape[1]

    @property
    def width(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True, eq=False)
class ThreeLayerNet:
    """A first layer W, b under a two-layer top over its activations, on R^d.

    The top is a `TwoLayerNet` on the hidden orthant: a generated net has no
    affine term there, a recovered one may.
    """

    W: np.ndarray
    b: np.ndarray
    top: TwoLayerNet

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen(np.atleast_2d(self.W)))
        object.__setattr__(self, "b", _frozen(np.atleast_1d(self.b)))
        if self.top.d != self.W.shape[0]:
            raise ValueError("top dim does not match rows of W")
        if self.b.shape != (self.W.shape[0],):
            raise ValueError("b length does not match rows of W")

    @property
    def d(self) -> int:
        return self.W.shape[1]

    @property
    def d1(self) -> int:
        return self.W.shape[0]


def evaluator(net) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator of `net`: an (n, d) array of points to n values.

    Each class gets one closure over its parameter arrays with its layer
    arithmetic inline; a depth-3 closure runs its first layer and calls the
    top's closure.  A (d,) point gives one value, bitwise equal to that
    point's value as a batch of one row; the oracles rely on this to query
    without building a batch.  Each product is `xs.dot(WT)` with `WT` the
    transposed view `W.T`: a contiguous copy takes another BLAS path and
    changes single-point values in the last bit.  Bias and ReLU are applied
    in place on the product, the ReLU against a zero row the closure holds,
    so a query allocates no temporaries beyond it.
    `xs` must be an array; `batch_eval` converts other input.  Anything but
    a network is a TypeError naming its class.
    """
    if isinstance(net, TwoLayerNet):
        WT, b, s, skip, maximum = net.W.T, net.b, net.s, net.skip, np.maximum
        zero = np.zeros(net.width)

        def two_layer(xs):
            z = xs.dot(WT)
            z += b
            return maximum(z, zero, out=z).dot(s)

        if skip is None:
            return two_layer
        return lambda xs: two_layer(xs) + skip.batch(xs)
    if isinstance(net, ThreeLayerNet):
        WT, b, maximum = net.W.T, net.b, np.maximum
        zero = np.zeros(net.d1)
        top = evaluator(net.top)

        def three_layer(xs):
            h = xs.dot(WT)
            h += b
            return top(maximum(h, zero, out=h))

        return three_layer
    raise TypeError(f"cannot evaluate {type(net).__name__}")


def batch_eval(net, xs) -> np.ndarray:
    """Values of `net` at the rows of `xs`."""
    return evaluator(net)(np.asarray(xs, dtype=float))
