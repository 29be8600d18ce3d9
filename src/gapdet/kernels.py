"""Operator kernels of the point processes and their derived objects.

Three families live here:

* the Airy kernel and its Fredholm restriction blocks;
* the Pearcey kernel on the gap intervals, in its integrable form, from
  tables of contour integrals on fixed rays;
* the tacnode blocks: the coupled block kernel whose determinant ratio gives
  the tacnode gap probability, and the direct tacnode kernel, the formal
  extended kernel laid out over an Airy edge and the gaps, whose gap block's
  Schur complement conditions it on an empty edge.

Kernel classes evaluate whole matrices at once, as do the module-level
building blocks they are assembled from.  Those that are assembled
subclass :class:`gapdet.fredholm.BlockKernel`; :class:`FormalTacnodeKernel`,
which supplies the direct kernel's entries, and :class:`ConditionedKernel`,
which the positivity probe reads through an explicit resolvent, do not.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ddmath import (DD_CBRT2, dd_add, dd_add_f, dd_airy_ai, dd_airy_shifted,
                     dd_heat_kernel, dd_mul, dd_neg, dd_sub)
from .errors import DomainError, SingularRestrictionError
from .fredholm import BlockKernel, inverse_rcond
from .quadrature import (_MAX_NODES, DomainComponent, edge_components,
                         gauss_legendre, map_ray)
from .specfun import _airy_eval, airy_shifted, heat_kernel, pearcey_phase

__all__ = [
    "airy_kernel_matrix", "AiryKernel",
    "PearceyParams", "PearceyKernel",
    "TacnodeParams", "GapSpec", "parse_interval",
    "tacnode_block_entry",
    "TacnodeHKernel",
    "tail_cutoff",
    "ext_airy_matrix", "coupling_matrix",
    "FormalTacnodeKernel", "ConditionedKernel", "TacnodeDirectKernel",
]

_CBRT2 = DD_CBRT2[0]
_DIAG_SWITCH = 1e-6
_EXP_GUARD = 700.0
_MIN_INNER = 20
_RAY_LENGTH = 6.0       # of every Pearcey contour ray


# ---------------------------------------------------------------------------
# Airy kernel

def airy_kernel_matrix(x, y):
    """Airy kernel on the grid x (rows) times y (columns).

    Off the diagonal this is the difference quotient
    (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y); within 1e-6 of the diagonal it
    switches to the confluent form at the midpoint plus its quadratic
    correction, which is smooth through x = y.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ax, apx = _airy_eval(x)
    ay, apy = _airy_eval(y)
    dd = x[:, None] - y[None, :]
    near = np.abs(dd) < _DIAG_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (ax[:, None] * apy[None, :] - apx[:, None] * ay[None, :]) / dd
    if np.any(near):
        xm = np.broadcast_to(x[:, None], dd.shape)[near]
        ym = np.broadcast_to(y[None, :], dd.shape)[near]
        mid = 0.5 * (xm + ym)
        h = 0.5 * (xm - ym)
        am, apm = _airy_eval(mid)
        diag = apm * apm - mid * am * am
        out[near] = diag + h * h * (am * apm / 3.0 + (2.0 / 3.0) * mid * diag)
    return out


class AiryKernel(BlockKernel):
    """Airy kernel over any number of real components."""

    def entry(self, i, j, x, y):
        return airy_kernel_matrix(x, y)


# ---------------------------------------------------------------------------
# Pearcey kernel

def _finite_increasing(name, values):
    """The float tuple ``values`` named ``name``, refused unless finite and
    strictly increasing; a scalar parameter is checked as a one-tuple."""
    if any(not np.isfinite(v) for v in values):
        raise DomainError("%s must be finite" % name)
    if any(values[k] >= values[k + 1] for k in range(len(values) - 1)):
        raise DomainError("%s must be strictly increasing" % name)
    return values


@dataclass(frozen=True)
class PearceyParams:
    """Quartic-phase parameter tau and gap endpoints a_1 < ... < a_2N."""

    tau: float
    endpoints: tuple

    def __post_init__(self):
        tau, = _finite_increasing("tau", (float(self.tau),))
        eps = tuple(float(a) for a in self.endpoints)
        if len(eps) % 2 != 0:
            raise DomainError("endpoint count must be even, got %d"
                              % len(eps))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "endpoints",
                           _finite_increasing("endpoints", eps))


class PearceyKernel(BlockKernel):
    """Pearcey kernel on the gap intervals, one finite component each, in
    the integrable form of Tracy and Widom ("The Pearcey process", Comm.
    Math. Phys. 263 (2006)), assembled in real arithmetic.

    Off the diagonal K(x, y) = (p2 q0 + p1 q1 + p0 q2 - tau p0 q0) / (x - y),
    with p_k at x and q_k at y; on it K(x, x) = p3 q0 + p2 q1 + p1 q2 -
    tau p1 q0, where p3 = tau p1 - x p0 by the Pearcey equation.  Here

        p_k(x) = (2 pi i)^-1 int lam^k exp(theta(lam) + lam x) dlam,
        q_k(y) = (2 pi i)^-1 int mu^k exp(-theta(mu) - mu y) dmu,

    theta = :func:`gapdet.specfun.pearcey_phase`, lam runs over four rays
    (in along arg pi/4 and -3pi/4, out along -pi/4 and 3pi/4) and mu up the
    imaginary axis.  On real points conjugate rays pair up, so p_k is 2 Re
    of the rays in along e^(i pi/4) and out along e^(3i pi/4), and q_k is
    2 Re of the upper half-axis.  Each ray carries a Gauss-Legendre rule on
    [0, 6], where exp(-r^4/4) is below 1e-140, with 4m nodes, capped at
    :func:`gapdet.quadrature.gauss_legendre`'s 512: the count grows with the
    rung, so the ladder's Cauchy difference covers the contour rule as well
    as the interval rule.  The p_k and q_k tables are built once per set of
    points; a table exponent past 700 raises :class:`OverflowError`, which
    :func:`gapdet.fredholm.assemble` reports with the block and the node.
    """

    def __init__(self, params, m):
        eps = params.endpoints
        super().__init__([DomainComponent.finite(eps[k], eps[k + 1])
                          for k in range(0, len(eps), 2)])
        self.params = params
        rule = gauss_legendre(min(4 * m, _MAX_NODES))
        r = _RAY_LENGTH * rule.nodes
        w = _RAY_LENGTH * rule.weights / np.pi
        # in along e^(i pi/4), from infinity to 0, and out along e^(3i pi/4)
        d_in, d_out = np.exp([0.25j * np.pi, 0.75j * np.pi])
        lam = np.concatenate([d_in * r, d_out * r])
        self._lam = (lam, np.concatenate([-d_in * w, d_out * w]) / 1j,
                     pearcey_phase(lam, params.tau))
        mu = 1j * r
        self._mu = (mu, w, -pearcey_phase(mu, params.tau))
        self._tables = {}

    def _p(self, x):
        lam, coef, theta = self._lam
        return _memo(self._tables, ("p", x.tobytes()), lambda: _power_table(
            lam, coef, theta[:, None] + lam[:, None] * x[None, :]))

    def _q(self, y):
        mu, coef, theta = self._mu
        return _memo(self._tables, ("q", y.tobytes()), lambda: _power_table(
            mu, coef, theta[:, None] - mu[:, None] * y[None, :]))

    def entry(self, i, j, x, y):
        p0, p1, p2 = self._p(x)
        q0, q1, q2 = self._q(y)
        tau = self.params.tau
        diff = x[:, None] - y[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.outer(p2 - tau * p0, q0) + np.outer(p1, q1)
                   + np.outer(p0, q2)) / diff
        r, c = np.nonzero(diff == 0.0)
        p3 = tau * p1[r] - x[r] * p0[r]
        out[r, c] = p3 * q0[c] + p2[r] * q1[c] + p1[r] * q2[c] \
            - tau * p1[r] * q0[c]
        return out


def _power_table(nodes, coef, expo):
    """Rows Re sum_n coef_n nodes_n^k exp(expo[n, :]) for k = 0, 1, 2;
    an exponent whose real part passes the guard raises OverflowError."""
    peak = float(np.max(expo.real))
    if peak > _EXP_GUARD:
        raise OverflowError("pearcey kernel exponent %.3g too large" % peak)
    with np.errstate(under="ignore"):
        table = np.exp(expo)
    return (np.stack([coef, coef * nodes, coef * nodes * nodes])
            @ table).real


# ---------------------------------------------------------------------------
# Tacnode parameters and gap specification

@dataclass(frozen=True)
class TacnodeParams:
    """Pressure parameter sigma and strictly increasing time list."""

    sigma: float
    times: tuple

    def __post_init__(self):
        sigma, = _finite_increasing("sigma", (float(self.sigma),))
        times = tuple(float(t) for t in self.times)
        if len(times) < 1:
            raise DomainError("at least one time is required")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "times", _finite_increasing("times", times))

    @property
    def r(self):
        return len(self.times)

    @property
    def sigma_tilde(self):
        return 2.0 ** (2.0 / 3.0) * self.sigma


def parse_interval(iv):
    """``(a, b, z)`` from ``(a, b)`` (z = 0) or ``(a, b, z)``, with a and z
    finite and a < b; b may be +inf.  z is a float when it is real and a
    complex otherwise, so real weights assemble real matrices."""
    if len(iv) == 2:
        a, b = iv
        z = 0.0
    elif len(iv) == 3:
        a, b, z = iv
    else:
        raise DomainError("interval must be (a, b) or (a, b, z)")
    a, b = float(a), float(b)
    if not (np.isfinite(a) and a < b):
        raise DomainError("interval needs finite a < b, got [%r, %r]"
                          % (a, b))
    z = complex(z)
    if not np.isfinite(z):
        raise DomainError("interval [%r, %r] needs a finite weight z, got %r"
                          % (a, b, z))
    return a, b, z.real if z.imag == 0.0 else z


class GapSpec:
    """Per-time interval unions with optional generating-function weights.

    Constructed from one sequence per time of ``(a, b)`` or ``(a, b, z)``
    triplets.  Intervals within a time slice are sorted; overlapping ones
    with equal weight are merged, overlapping ones with different weights are
    rejected.  ``z = 0`` (the default) marks a plain gap.
    """

    def __init__(self, per_time):
        norm = []
        for slot in per_time:
            items = sorted((parse_interval(iv) for iv in slot),
                           key=lambda iv: iv[0])
            merged = []
            for a, b, z in items:
                if not np.isfinite(b):
                    raise DomainError(
                        "interval needs finite a < b, got [%r, %r]" % (a, b))
                if merged and a <= merged[-1][1]:
                    pa, pb, pz = merged[-1]
                    if pz != z:
                        raise DomainError(
                            "overlapping intervals with different weights")
                    merged[-1] = (pa, max(pb, b), pz)
                else:
                    merged.append((a, b, z))
            norm.append(tuple(merged))
        self.per_time = tuple(norm)

    @property
    def n_times(self):
        return len(self.per_time)

    def flat(self):
        """Intervals as (time_index, a, b, z) in assembly order."""
        out = []
        for j, slot in enumerate(self.per_time):
            for a, b, z in slot:
                out.append((j, a, b, z))
        return out


# ---------------------------------------------------------------------------
# Tacnode block kernel (determinant-ratio route)

def tacnode_block_entry(i, j, x, y, params):
    """Entry matrix of the coupled tacnode block kernel.

    Semantic block indices: -1 for the [0, inf) component, 0 for the
    [sigma_tilde, inf) component, 1..r for the time components.  ``x`` and
    ``y`` are 1-d arrays of points on blocks i and j; the result has shape
    (len(x), len(y)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X = x[:, None]
    Y = y[None, :]
    sig = params.sigma
    if i in (-1, 0) and j in (-1, 0):
        if i == j:
            return np.zeros((x.size, y.size))
        return -_airy_eval(X + Y, prime=False)
    if i == -1:
        return airy_shifted(-params.times[j - 1], _CBRT2 * X + sig - Y)
    if i == 0:
        return airy_shifted(-params.times[j - 1], _CBRT2 * X + Y - sig)
    if j == -1:
        return airy_shifted(params.times[i - 1], sig - X + _CBRT2 * Y)
    if j == 0:
        return airy_shifted(params.times[i - 1], X - sig + _CBRT2 * Y)
    ti = params.times[i - 1]
    tj = params.times[j - 1]
    if ti > tj:
        return -heat_kernel(ti - tj, X, Y)
    return np.zeros((x.size, y.size))


def tail_cutoff(params, spec):
    """Truncation point for the two left-edge components.

    The coupled block kernel mixes exp(tau*z) prefactors with Airy decay.
    Under the diagonal gauge exp(-tau*2^(1/3)*u) that symmetrizes coupling
    rows against columns (a similarity, so the determinant is unchanged)
    every block decays past its turning point like
    exp(tau*(|sigma| + e) - (2/3)*(2^(1/3)*u - s0)^(3/2)), with
    s0 = |sigma| + e + tau^2 + 1 and e the largest interval endpoint
    magnitude.  The cutoff is where that envelope reaches e^-75, far below
    the determinant's own conditioning for any |sigma| <= 9, and no larger:
    stretching a fixed node count over extra length costs resolution.
    sigma_tilde outgrows the envelope past sigma ~ 14 (``force_sigma``),
    so the cutoff stays 8 above sigma_tilde to keep the edge an interval.
    """
    tau_m = max((abs(t) for t in params.times), default=0.0)
    e_max = max((max(abs(a), abs(b)) for _, a, b, _ in spec.flat()),
                default=0.0)
    s0 = abs(params.sigma) + e_max + tau_m * tau_m + 1.0
    margin = 75.0 + tau_m * (abs(params.sigma) + e_max)
    x = (s0 + (1.5 * margin) ** (2.0 / 3.0)) / _CBRT2
    return max(16.0, float(x), params.sigma_tilde + 8.0)


class _LayoutKernel(BlockKernel):
    """Tacnode kernel over ``edges``, a list of (role, component) pairs
    with column weight 1 that ``n_edge`` counts, followed by one component
    per interval of ``spec``.

    The role of an interval at time index k is k + 1, its columns carry the
    factor 1 - z and its component is labelled E[k + 1].  A spec whose
    time-slot count differs from ``params``' is refused.
    """

    def __init__(self, params, spec, edges):
        if spec.n_times != params.r:
            raise DomainError("gap spec has %d time slots, params has %d"
                              % (spec.n_times, params.r))
        layout = [(role, 1.0, comp) for role, comp in edges] \
            + [(tidx + 1, 1.0 - z,
                DomainComponent.finite(a, b, label="E[%d]" % (tidx + 1)))
               for tidx, a, b, z in spec.flat()]
        super().__init__([comp for _, _, comp in layout],
                         [w for _, w, _ in layout])
        self._roles = [role for role, _, _ in layout]
        self.params = params
        self.spec = spec
        self.n_edge = len(edges)


class TacnodeHKernel(_LayoutKernel):
    """Coupled block kernel whose weighted determinant is the tacnode
    numerator.

    Components, in order: the edge [0, cutoff], the edge
    [sigma_tilde, cutoff] (split at 0 while sigma_tilde < 0), then the gap
    components of :class:`_LayoutKernel`.  The edges carry weight 1, and
    ``n_edge`` counts them (2 or 3).  The kernel vanishes between two edge
    points of one role, so the leading (R+, edge) block of I - K W couples
    R+ to the edge only, and its determinant is the Airy denominator
    F2(sigma_tilde) on the same rule.  ``identity_block`` names the
    [sigma_tilde, cutoff] components, which the double-double rung
    eliminates by one product.
    The cutoff is :func:`tail_cutoff`.  This layout serves both
    precisions: :func:`gapdet.fredholm.assemble` reads :meth:`entry` and
    :func:`gapdet.fredholm.assemble_dd` reads :meth:`entry_dd`.
    """

    def __init__(self, params, spec):
        self.cutoff = tail_cutoff(params, spec)
        super().__init__(
            params, spec,
            [(-1, comp) for comp in edge_components(0.0, self.cutoff,
                                                    label="R+")]
            + [(0, comp) for comp in edge_components(
                params.sigma_tilde, self.cutoff, label="edge")])
        self.identity_block = tuple(
            i for i, role in enumerate(self._roles) if role == 0)

    def entry(self, i, j, x, y):
        return tacnode_block_entry(self._roles[i], self._roles[j], x, y,
                                   self.params)

    def entry_dd(self, i, j, x, y):
        return _tacnode_entry_dd(self._roles[i], self._roles[j], x, y,
                                 self.params)


# ---------------------------------------------------------------------------
# Double-double entries of the tacnode block kernel
#
# Past sigma ~ -5 the Schur complement that forms the gap ratio outruns
# float64 (see the ddmath module docstring).  :meth:`TacnodeHKernel.entry_dd`
# supplies the entries for :func:`gapdet.fredholm.assemble_dd`, which builds
# I - K W on the same components as the float64 kernel.

def _tacnode_entry_dd(ri, rj, x, y, params):
    """Double-double twin of :func:`tacnode_block_entry`."""
    X = (x[0][:, None], x[1][:, None])
    Y = (y[0][None, :], y[1][None, :])
    sig = float(params.sigma)
    if ri in (-1, 0) and rj in (-1, 0):
        if ri == rj:
            shape = (x[0].size, y[0].size)
            return np.zeros(shape), np.zeros(shape)
        return dd_neg(dd_airy_ai(dd_add(X, Y)))
    if ri == -1:
        tau = params.times[rj - 1]
        arg = dd_add(dd_mul(X, DD_CBRT2), dd_add_f(dd_neg(Y), sig))
        return dd_airy_shifted((-tau, 0.0), arg)
    if ri == 0:
        tau = params.times[rj - 1]
        arg = dd_add(dd_mul(X, DD_CBRT2), dd_add_f(Y, -sig))
        return dd_airy_shifted((-tau, 0.0), arg)
    if rj == -1:
        tau = params.times[ri - 1]
        arg = dd_add(dd_mul(Y, DD_CBRT2), dd_add_f(dd_neg(X), sig))
        return dd_airy_shifted((tau, 0.0), arg)
    if rj == 0:
        tau = params.times[ri - 1]
        arg = dd_add(dd_mul(Y, DD_CBRT2), dd_add_f(X, -sig))
        return dd_airy_shifted((tau, 0.0), arg)
    ti = params.times[ri - 1]
    tj = params.times[rj - 1]
    if ti > tj:
        dt = dd_sub((ti, 0.0), (tj, 0.0))   # exact difference as a pair
        return dd_neg(dd_heat_kernel(dt, X, Y))
    shape = (x[0].size, y[0].size)
    return np.zeros(shape), np.zeros(shape)


# ---------------------------------------------------------------------------
# Extended Airy kernel and the coupling function

@lru_cache(maxsize=None)
def _inner_rule(m):
    """m-point ray rule on [0, inf) for the inner Airy integrals."""
    if m < _MIN_INNER:
        raise DomainError("m_inner must be at least %d, got %d"
                          % (_MIN_INNER, m))
    rule = gauss_legendre(m)
    u, du = map_ray(rule.nodes, 0.0)
    wu = rule.weights * du
    u.flags.writeable = False
    wu.flags.writeable = False
    return u, wu


def _ext_airy_table(tau, x, m_inner):
    """Table shifted(tau, x_p + 2^(1/3) v_q) over the ``m_inner``-point ray
    rule v."""
    v, _ = _inner_rule(m_inner)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return airy_shifted(tau, x[:, None] + _CBRT2 * v[None, :])


def _airy_transform_table(u, m_inner):
    """Table Ai(v_p + u_q) over the ``m_inner``-point ray rule v."""
    v, _ = _inner_rule(m_inner)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return _airy_eval(v[:, None] + u[None, :], prime=False)


def ext_airy_matrix(tau1, tau2, x, y, m_inner):
    """Two-parameter extension of the Airy kernel on the grid x times y.

    Integrates the product of two shifted Airy functions along [0, inf)
    with an ``m_inner``-point ray rule: the weighted table of
    :func:`_ext_airy_table` at tau1 times the table at -tau2.
    """
    wv = _inner_rule(m_inner)[1]
    return (_ext_airy_table(tau1, x, m_inner) * wv[None, :]) \
        @ _ext_airy_table(-tau2, y, m_inner).T


def _coupling_matrix(tau, xi, u, reflection, transform):
    """:func:`coupling_matrix` from its two inner tables: ``reflection``,
    the weighted :func:`_ext_airy_table` at (tau, -xi), and ``transform``,
    the :func:`_airy_transform_table` at u."""
    return airy_shifted(tau, xi[:, None] + _CBRT2 * u[None, :]) \
        - reflection @ transform


def coupling_matrix(tau, xi, u, m_inner):
    """Matrix [xi_i, u_p] of the coupling function.

    The coupling of a time slice to the resolvent domain is the shifted Airy
    function minus its reflection smoothed by the Airy transform:
    direct(xi, u) - integral over v of shifted(tau, -xi + 2^(1/3) v) Ai(u+v).
    """
    wv = _inner_rule(m_inner)[1]
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return _coupling_matrix(
        tau, xi, u, _ext_airy_table(tau, -xi, m_inner) * wv[None, :],
        _airy_transform_table(u, m_inner))


# ---------------------------------------------------------------------------
# Formal extended kernel, the conditioned kernel and the direct tacnode
# kernel

def _memo(cache, key, make):
    """``cache[key]``, computed by ``make()`` on first use."""
    val = cache.get(key)
    if val is None:
        val = cache[key] = make()
    return val


class FormalTacnodeKernel:
    """Block kernel of the formal extended process behind the tacnode ratio.

    Block 0 is a full auxiliary real line; blocks 1..r are the time slices.
    The gap identity factorizes through this kernel, but it is not
    a bona fide correlation kernel: minors can go negative, which is what
    the positivity probe exhibits.  It carries no component layout of its
    own: :class:`TacnodeDirectKernel` lays its blocks out for assembly, and
    :class:`ConditionedKernel` reads its entries for the positivity probe.

    Every inner-rule table is built once per kernel and set of points.  Per
    time block k and its points x, one memo entry holds the weighted
    :func:`_ext_airy_table` at (t_k, sigma - x) and the plain and weighted
    ones at (-t_k, sigma - x): the time-time blocks read the first as row
    and the second as column table, and the couplings (k, 0) and (0, k)
    the first and the third as reflection tables.  One more entry per set
    of block-0 points holds the couplings' Airy-transform table.
    """

    def __init__(self, params, m_inner=80):
        _inner_rule(m_inner)            # rejects a too-coarse inner rule now
        self.params = params
        self.m_inner = m_inner
        self._tables = {}

    def _ext_tables(self, blk, x):
        """(weighted at t_blk, plain and weighted at -t_blk) extended-Airy
        tables of time block ``blk`` at points x."""
        def make():
            tau = self.params.times[blk - 1]
            wv = _inner_rule(self.m_inner)[1][None, :]
            xi = self.params.sigma - x
            minus = _ext_airy_table(-tau, xi, self.m_inner)
            return (_ext_airy_table(tau, xi, self.m_inner) * wv, minus,
                    minus * wv)
        return _memo(self._tables, (blk, x.tobytes()), make)

    def _transform(self, u):
        return _memo(self._tables, u.tobytes(),
                     lambda: _airy_transform_table(u, self.m_inner))

    def entry(self, i, j, x, y):
        times, sig = self.params.times, self.params.sigma
        if i == 0 and j == 0:
            return airy_kernel_matrix(x, y)
        if i == 0:
            return -_coupling_matrix(-times[j - 1], y - sig, x,
                                     self._ext_tables(j, y)[2],
                                     self._transform(x)).T
        if j == 0:
            return -_coupling_matrix(times[i - 1], x - sig, y,
                                     self._ext_tables(i, x)[0],
                                     self._transform(y))
        out = self._ext_tables(i, x)[0] @ self._ext_tables(j, y)[1].T
        if times[i - 1] > times[j - 1]:
            out = out - heat_kernel(times[i - 1] - times[j - 1],
                                    x[:, None], y[None, :])
        return out


class ConditionedKernel:
    """Kernel of a determinantal process conditioned on an empty region.

    ``base`` is a block kernel, ``a_component`` the region swept empty
    (living on base block 0), discretized with ``rule``.  Entry evaluation
    adds the resolvent correction K(y1, a) (I - K|_A)^(-1) K(a, y2)
    integrated over the region to the bare kernel.  Construction raises
    :class:`SingularRestrictionError` when I - K|_A W is exactly singular or
    its exact 1-norm reciprocal condition number
    (:func:`gapdet.fredholm.inverse_rcond`) is below 1e-13.
    """

    def __init__(self, base, a_component, rule):
        self.base = base
        pts, dp = a_component.map_points(rule.nodes)
        self.nodes = np.asarray(pts)
        self.colw = rule.weights * dp
        mat = -np.asarray(base.entry(0, 0, self.nodes, self.nodes),
                          dtype=float) * self.colw[None, :]
        mat[np.diag_indices(len(self.colw))] += 1.0
        self._inv, self.rcond = inverse_rcond(mat)
        if not self.rcond >= 1e-13:
            raise SingularRestrictionError(
                "conditioning region %s has vanishing free probability "
                "(rcond %.3e)" % (a_component.label, self.rcond),
                rcond=self.rcond)

    def value_matrix(self, b1, y1, b2, y2):
        y1 = np.atleast_1d(np.asarray(y1, dtype=float))
        y2 = np.atleast_1d(np.asarray(y2, dtype=float))
        row = np.asarray(self.base.entry(b1, 0, y1, self.nodes)) \
            * self.colw[None, :]
        col = self._inv @ np.asarray(self.base.entry(0, b2, self.nodes, y2),
                                     dtype=float)
        return self.base.entry(b1, b2, y1, y2) + row @ col


class TacnodeDirectKernel(_LayoutKernel):
    """Direct tacnode kernel: :class:`FormalTacnodeKernel` laid out over the
    edge [sigma_tilde, inf) and the gap components of
    :class:`_LayoutKernel`.

    The edge leads the layout with weight 1 and reads the formal kernel's
    block 0; ``n_edge`` = 1 counts it.  A gap component of role k reads
    time block k.  Over this layout the gap block's Schur complement of
    I - K W is I - K_c W on the gaps, with K_c the formal kernel
    conditioned on an empty edge, so det S is the tacnode gap probability
    and :func:`gapdet.gapprob.tacnode_gap_direct` takes it as the ratio
    route takes its own.  The kernel serves every rung of a call; per
    rung it builds each gap component's two extended-Airy tables, which
    the couplings reuse as reflection tables, and one Airy-transform table
    on the edge points (:class:`FormalTacnodeKernel`).
    """

    def __init__(self, params, spec):
        super().__init__(params, spec,
                         [(0, DomainComponent.ray(params.sigma_tilde))])
        self._formal = FormalTacnodeKernel(params)

    def entry(self, i, j, x, y):
        return self._formal.entry(self._roles[i], self._roles[j], x, y)
