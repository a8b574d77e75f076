"""Network containers and reference evaluators.

Two function classes are modeled.  The two-layer class maps the closed
positive orthant to the reals,

    f(x) = skip(x) + sum_j  s_j * relu(w_j . x + b_j),      s_j in {+1, -1},

where the affine `skip` term is optional.  The three-layer class is defined on
all of R^d as a first layer under a two-layer top,

    f(x) = top(relu(W x + b)),

where `top` is a two-layer net on the d1-dimensional hidden orthant.  A
generated top is s . relu(V h + c) with no skip; a recovered top may carry an
affine term in h.  Containers are immutable.  Each class has one stacked
evaluator (`evaluator`), which maps a batch of points to values with a few
matrix products; a single point is a batch of one row.
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
class Neuron:
    """One hidden unit: sign * relu(w . x + b)."""

    w: np.ndarray
    b: float
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(np.atleast_1d(self.w)))
        object.__setattr__(self, "b", float(self.b))
        sign = int(self.sign)
        if sign not in (-1, 1):
            raise ValueError(f"neuron sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "sign", sign)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True, eq=False)
class TwoLayerNet:
    """Sum of signed ReLU units plus an optional affine term, on x >= 0."""

    d: int
    neurons: tuple[Neuron, ...]
    skip: AffineMap | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "neurons", tuple(self.neurons))
        for n in self.neurons:
            if n.dim != self.d:
                raise ValueError(f"neuron dim {n.dim} != net dim {self.d}")
        if self.skip is not None and self.skip.dim != self.d:
            raise ValueError("skip dim does not match net dim")

    @property
    def width(self) -> int:
        return len(self.neurons)

    def weight_matrix(self) -> np.ndarray:
        w = np.array([n.w for n in self.neurons], dtype=float)
        return w.reshape(self.width, self.d)

    def biases(self) -> np.ndarray:
        return np.array([n.b for n in self.neurons], dtype=float)

    def signs(self) -> np.ndarray:
        return np.array([n.sign for n in self.neurons], dtype=float)


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


def relu_sum(xs: np.ndarray, W: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s . relu(W x + b) for every row x of `xs`: the kernel every evaluator shares."""
    return relu(xs @ W.T + b) @ s


def evaluator(net) -> Callable[[np.ndarray], np.ndarray]:
    """The stacked evaluator of `net`: an (n, d) array of points to n values.

    The parameters are stacked into arrays once, here; a single point is
    evaluated as a batch of one row.
    """
    if isinstance(net, TwoLayerNet):
        W, b, s = net.weight_matrix(), net.biases(), net.signs()
        skip = net.skip
        if skip is None:
            return lambda xs: relu_sum(xs, W, b, s)
        return lambda xs: relu_sum(xs, W, b, s) + skip.batch(xs)
    if isinstance(net, ThreeLayerNet):
        W, b = net.W, net.b
        top = evaluator(net.top)
        return lambda xs: top(relu(xs @ W.T + b))
    raise TypeError(f"cannot evaluate {type(net).__name__}")


def batch_eval(net, xs) -> np.ndarray:
    """Values of `net` at the rows of `xs`."""
    return evaluator(net)(np.asarray(xs, dtype=float))
