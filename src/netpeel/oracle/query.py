"""Black-box query access with exact call accounting.

Extraction code is only ever handed a `QueryOracle`.  The oracle counts every
evaluation (one increment per call) and enforces the domain the underlying
function class lives on.  `AccessAudit` wraps a network so tests
can prove that an extraction run never touched ground-truth parameters other
than through queries.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .nets import ThreeLayerNet, TwoLayerNet, evaluator

DOMAIN_NONNEG = "nonneg"
DOMAIN_FULL = "full"

# Numerical slack when checking membership in the closed positive orthant.
_ORTHANT_SLACK = 1e-12


class DomainError(ValueError):
    """A query fell outside the oracle's domain."""


class NonFiniteValueError(ValueError):
    """The function behind the oracle evaluated to inf or NaN at a query point.

    Such a function (finite weights can still overflow) is not a valid input
    to extraction.
    """


class QueryOracle:
    """Wraps `fn: R^dim -> R`, counting evaluations."""

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int,
                 domain: str = DOMAIN_FULL, label: str = ""):
        if domain not in (DOMAIN_NONNEG, DOMAIN_FULL):
            raise ValueError(f"unknown domain flag {domain!r}")
        self._fn = fn
        self.dim = int(dim)
        self.domain = domain
        self.label = label
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def query(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dim {self.dim}, got shape {x.shape}")
        if self.domain == DOMAIN_NONNEG and x.min() < -_ORTHANT_SLACK:
            raise DomainError(f"point outside the positive orthant: min coord {x.min()}")
        self._count += 1
        val = float(self._fn(x))
        if not np.isfinite(val):
            raise NonFiniteValueError(f"oracle returned non-finite value {val} at {x}")
        return val

    def __call__(self, x) -> float:
        return self.query(x)


class LineOracle:
    """Restriction of an oracle to `t -> base + t * direction`.

    Each evaluation costs exactly one query of the parent oracle, which
    counts it.
    """

    def __init__(self, oracle: QueryOracle, base, direction):
        self.parent = oracle
        self.base = np.asarray(base, dtype=float)
        self.direction = np.asarray(direction, dtype=float)

    def query(self, t: float) -> float:
        return self.parent.query(self.base + float(t) * self.direction)

    def __call__(self, t: float) -> float:
        return self.query(t)


def axis_ray(oracle: QueryOracle, axis: int) -> LineOracle:
    e = np.zeros(oracle.dim)
    e[axis] = 1.0
    return LineOracle(oracle, np.zeros(oracle.dim), e)


class AccessAudit:
    """Attribute proxy that counts parameter reads while armed.

    Build the oracle first (construction reads the parameters once, which is
    the oracle's own business), then `arm()` before handing the oracle to an
    extractor.  Any attribute read through the proxy while armed is recorded;
    an honest extractor finishes with `reads == 0`.
    """

    def __init__(self, net):
        object.__setattr__(self, "_net", net)
        object.__setattr__(self, "_armed", False)
        object.__setattr__(self, "reads", 0)

    def arm(self):
        object.__setattr__(self, "_armed", True)

    def disarm(self):
        object.__setattr__(self, "_armed", False)

    def unwrap(self):
        """The bare network, for use after the audit window closed."""
        if self._armed:
            raise RuntimeError("disarm the audit before unwrapping")
        return self._net

    def __getattr__(self, name):
        if object.__getattribute__(self, "_armed"):
            object.__setattr__(self, "reads", self.reads + 1)
        return getattr(object.__getattribute__(self, "_net"), name)

    def __setattr__(self, name, value):
        raise AttributeError("audited networks are read-only")


def as_oracle(net, label: str = "") -> QueryOracle:
    """Query access to a network; parameters are captured once, here.

    Accepts a bare net or an `AccessAudit` wrapper (reads performed during
    construction happen before the audit is armed).  The stacked evaluator
    is built once; each query evaluates it on a batch of one row.
    """
    target = net.unwrap() if isinstance(net, AccessAudit) else net
    if isinstance(target, TwoLayerNet):
        domain = DOMAIN_NONNEG
    elif isinstance(target, ThreeLayerNet):
        domain = DOMAIN_FULL
    else:
        raise TypeError(f"cannot build an oracle from {type(target).__name__}")
    ev = evaluator(target)
    return QueryOracle(lambda x: ev(x[None, :])[0], target.d, domain, label=label)
