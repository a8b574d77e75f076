"""Black-box query access with exact call accounting.

Extraction code is only ever handed a `QueryOracle`.  The oracle counts every
answered query (one increment per call, after the value is known to be
finite) and enforces the domain the underlying function class lives on.

Each point is checked once.  Two kinds of oracle check their points (the
shape, and the positive orthant on a nonneg domain): the base oracle of a
network, and an oracle whose parent has another dim or domain, such as the
peeled top of a depth-3 net, whose orthant check guards the peel.  An
oracle derived from a parent of the same `dim` and `domain`, such as a
subtracted oracle, passes each point on to `parent.query` and trusts that
call to check it.  Every layer refuses a non-finite value, because a
derived oracle's own terms can overflow, and no layer counts a point it
refused.

`AccessAudit` wraps a network so tests can prove that an extraction run
never touched ground-truth parameters other than through queries.
"""
from __future__ import annotations

import math
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
    """Wraps `fn: R^dim -> R`, counting answered queries.

    `parent` names the oracle that `fn` queries at the same point, if any.
    When it has this oracle's `dim` and `domain`, its `query` checks the
    point, so this oracle does not check it again.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int,
                 domain: str = DOMAIN_FULL, label: str = "",
                 parent: "QueryOracle | None" = None):
        if domain not in (DOMAIN_NONNEG, DOMAIN_FULL):
            raise ValueError(f"unknown domain flag {domain!r}")
        self._fn = fn
        self.dim = int(dim)
        self.domain = domain
        self.label = label
        self._checks_points = (parent is None or parent.dim != self.dim
                               or parent.domain != domain)
        self._shape = (self.dim,)
        self._nonneg = domain == DOMAIN_NONNEG
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def query(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self._checks_points:
            if x.shape != self._shape:
                raise ValueError(f"expected point of dim {self.dim}, got shape {x.shape}")
            if self._nonneg:
                lo = min(x.tolist())  # ndarray.min costs twice as much at d ~ 10
                if lo < -_ORTHANT_SLACK:
                    raise DomainError(
                        f"point outside the positive orthant: min coord {lo}")
        val = float(self._fn(x))
        if not math.isfinite(val):
            raise NonFiniteValueError(f"oracle returned non-finite value {val} at {x}")
        self._count += 1
        return val


def axis_ray(oracle: QueryOracle, axis: int) -> Callable[[float], float]:
    """The restriction t -> oracle.query(t * e_axis); one query of `oracle` per call.

    Each call writes t into a fresh zero vector, which costs less than the
    product `t * e`.  For t < 0 the other coordinates hold +0.0 where the
    product held -0.0; a weighted sum of the point adds them as zeros either
    way, so no query value sees the difference.
    """
    dim = oracle.dim

    def ray(t):
        x = np.zeros(dim)
        x[axis] = t
        return oracle.query(x)

    return ray


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


def as_oracle(net) -> QueryOracle:
    """Query access to a network; parameters are captured once, here.

    Accepts a bare net or an `AccessAudit` wrapper (reads performed during
    construction happen before the audit is armed).  The stacked evaluator
    is built once, and each query hands it the bare point.
    """
    target = net.unwrap() if isinstance(net, AccessAudit) else net
    if isinstance(target, TwoLayerNet):
        domain = DOMAIN_NONNEG
    elif isinstance(target, ThreeLayerNet):
        domain = DOMAIN_FULL
    else:
        raise TypeError(f"cannot build an oracle from {type(target).__name__}")
    ev = evaluator(target)
    return QueryOracle(ev, target.d, domain)
