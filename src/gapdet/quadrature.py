"""Gauss-Legendre rules on (0,1) and smooth maps onto integration domains.

Every integration domain used by the determinant engine is real and
parametrized over the open unit interval: finite intervals affinely and
semi-infinite rays through t/(1-t).  A domain is a
:class:`DomainComponent`; a Fredholm discretization lives on an ordered
list of them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "QuadratureRule",
    "DomainComponent",
    "gauss_legendre",
    "map_ray",
    "edge_components",
]

_MAX_NODES = 512
_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100

#: Scale of the ray map: it puts the median node this far past the start,
#: which suits kernels that decay within a few units of their left endpoint.
_RAY_SCALE = 4.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an m-point Gauss-Legendre rule on (0,1)."""

    m: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_and_prime(m, y):
    """P_m(y) and P_m'(y) by the three-term recurrence."""
    p0 = np.ones_like(y)
    p1 = y.copy()
    if m == 0:
        return p0, np.zeros_like(y)
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * y * p1 - (k - 1) * p0) / k
    dp = m * (y * p1 - p0) / (y * y - 1.0)
    return p1, dp


@lru_cache(maxsize=None)
def gauss_legendre(m):
    """m-point Gauss-Legendre rule mapped to (0,1); weights sum to 1.

    Nodes are found by Newton iteration on the recurrence-evaluated Legendre
    polynomial, started from the Chebyshev-angle estimates.  Only the lower
    half is iterated; the upper half is mirrored, so the rule is symmetric
    about 1/2 to the last bit.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise DomainError("node count must be an integer, got %r" % (m,))
    if m < 1 or m > _MAX_NODES:
        raise DomainError("node count %d outside [1, %d]" % (m, _MAX_NODES))
    k = np.arange(1, m // 2 + 1)
    y = np.cos(np.pi * (k - 0.25) / (m + 0.5))
    for _ in range(_NEWTON_MAXIT):
        p, dp = _legendre_and_prime(m, y)
        dy = p / dp
        y = y - dy
        if y.size == 0 or np.max(np.abs(dy)) < _NEWTON_TOL:
            break
    _, dp = _legendre_and_prime(m, y)
    w_half = 2.0 / ((1.0 - y * y) * dp * dp)

    y_full = np.empty(m)
    w_full = np.empty(m)
    h = m // 2
    y_full[:h] = -y
    y_full[m - h:] = y[::-1]
    w_full[:h] = w_half
    w_full[m - h:] = w_half[::-1]
    if m % 2 == 1:
        y0 = np.zeros(1)
        _, dp0 = _legendre_and_prime(m, y0)
        y_full[h] = 0.0
        w_full[h] = 2.0 / (dp0[0] * dp0[0])

    nodes = 0.5 * (y_full + 1.0)
    weights = 0.5 * w_full
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(m=m, nodes=nodes, weights=weights)


def map_ray(s, start):
    """Semi-infinite ray [start, inf) via start + _RAY_SCALE*s/(1-s)."""
    if not np.isfinite(start):
        raise DomainError("ray start must be finite")
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise DomainError("map parameter must lie strictly inside (0,1)")
    point = start + _RAY_SCALE * s / (1.0 - s)
    deriv = _RAY_SCALE / (1.0 - s) ** 2
    return point, deriv


@dataclass(frozen=True)
class DomainComponent:
    """One integration domain with its map onto (0,1).

    ``kind`` is ``finite`` or ``ray``.  ``map_points(t)`` returns the mapped
    nodes and the map derivative at t.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    label: str = ""

    @staticmethod
    def finite(a, b, label=""):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise DomainError("finite component needs a < b, got [%r, %r]"
                              % (a, b))
        return DomainComponent(kind="finite", a=float(a), b=float(b),
                               label=label or "[%g,%g]" % (a, b))

    @staticmethod
    def ray(start, label=""):
        """Ray [start, inf) through the map :func:`map_ray`."""
        if not np.isfinite(start):
            raise DomainError("ray start must be finite")
        return DomainComponent(kind="ray", a=float(start),
                               label=label or "[%g,inf)" % start)

    def map_points(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "finite":
            return self.a + (self.b - self.a) * t, \
                np.full_like(t, self.b - self.a)
        if self.kind == "ray":
            return map_ray(t, self.a)
        raise DomainError("unknown domain kind %r" % (self.kind,))


def edge_components(start, cutoff, label=""):
    """Finite components covering [start, cutoff], split at the origin.

    Kernels restricted to a left edge [start, oo) decay fast enough past a
    problem-dependent cutoff that the tail can be dropped, and an m-point
    rule on a finite interval converges geometrically where the t/(1-t) ray
    map does not (entries growing like exp(c*x) before their turnover give
    the composed integrand an essential singularity at t = 1).  When
    ``start`` is negative the oscillatory stretch [start, 0] becomes its own
    component so node density there does not depend on the cutoff.
    """
    if not (np.isfinite(start) and np.isfinite(cutoff)):
        raise DomainError("edge components need finite start and cutoff")
    if not cutoff > start:
        raise DomainError("edge cutoff %g must exceed start %g"
                          % (cutoff, start))
    tag = label or "[%g,%g]" % (start, cutoff)
    if start < 0.0 < cutoff:
        return [DomainComponent.finite(start, 0.0, label=tag + " osc"),
                DomainComponent.finite(0.0, cutoff, label=tag + " tail")]
    return [DomainComponent.finite(start, cutoff, label=tag)]
