"""Operator kernels of the point processes and their derived objects.

Three families live here:

* the Airy kernel and its Fredholm restriction blocks;
* the Pearcey kernel on the two hyperbola branches plus the imaginary axis;
* the tacnode blocks: the coupled block kernel whose determinant ratio gives
  the tacnode gap probability, and the direct space-time kernel assembled
  from the extended Airy kernel, a Gaussian part and an Airy-resolvent term.

Kernel classes subclass :class:`gapdet.fredholm.BlockKernel` and evaluate
whole matrices at once, as do the module-level building blocks they are
assembled from.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .ddmath import (dd_add, dd_add_f, dd_airy_pair, dd_airy_shifted,
                     dd_div, dd_gauss_legendre, dd_heat_kernel, dd_mul,
                     dd_mul_f, dd_neg, dd_roots_of_two, dd_sqr, dd_sub)
from .errors import DomainError, SingularRestrictionError
from .fredholm import BlockKernel
from .quadrature import (DomainComponent, edge_components, gauss_legendre,
                         map_ray)
from .specfun import _airy_eval, airy_shifted, heat_kernel, pearcey_phase

__all__ = [
    "airy_kernel_matrix", "AiryKernel",
    "PearceyParams", "PearceyKernel",
    "TacnodeParams", "GapSpec", "tacnode_block_entry", "TacnodeHKernel",
    "tail_cutoff", "tacnode_h_matrix_dd", "airy_edge_matrix_dd",
    "ext_airy_matrix", "coupling_matrix", "AiryResolvent",
    "TacnodeDirectKernel", "FormalTacnodeKernel", "ConditionedKernel",
]

_CBRT2 = 2.0 ** (1.0 / 3.0)
_DIAG_SWITCH = 1e-6
_EXP_GUARD = 700.0
_MIN_INNER = 20


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

    def __init__(self, n_blocks=1):
        self.n_blocks = n_blocks

    def entry(self, i, j, x, y):
        return airy_kernel_matrix(np.real(x), np.real(y))


# ---------------------------------------------------------------------------
# Pearcey kernel

@dataclass(frozen=True)
class PearceyParams:
    """Quartic-phase parameter tau and gap endpoints a_1 < ... < a_2N."""

    tau: float
    endpoints: tuple

    def __post_init__(self):
        tau = float(self.tau)
        if not np.isfinite(tau):
            raise DomainError("tau must be finite")
        eps = tuple(float(a) for a in self.endpoints)
        if len(eps) % 2 != 0:
            raise DomainError("endpoint count must be even, got %d"
                              % len(eps))
        if any(not np.isfinite(a) for a in eps):
            raise DomainError("endpoints must be finite")
        if any(eps[k] >= eps[k + 1] for k in range(len(eps) - 1)):
            raise DomainError("endpoints must be strictly increasing")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "endpoints", eps)


def _pearcey_block(row_on_axis, col_on_axis, lam, mu, params):
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    if row_on_axis == col_on_axis:
        return np.zeros((lam.size, mu.size), dtype=complex)
    L = lam[:, None]
    M = mu[None, :]
    diff = L - M
    phase = 0.5 * (pearcey_phase(L, params.tau) - pearcey_phase(M, params.tau))
    if not row_on_axis:
        # rows on a hyperbola branch, columns on the axis
        if np.max(phase.real) > _EXP_GUARD:
            raise OverflowError("pearcey kernel exponent %.3g too large"
                                % float(np.max(phase.real)))
        with np.errstate(under="ignore"):
            return np.exp(phase) / (2j * np.pi * diff)
    # rows on the axis, columns on a hyperbola branch
    acc = np.zeros_like(diff)
    for k, a in enumerate(params.endpoints):
        expo = -phase + a * diff
        if np.max(expo.real) > _EXP_GUARD:
            raise OverflowError("pearcey kernel exponent %.3g too large"
                                % float(np.max(expo.real)))
        sign = -1.0 if (k + 1) % 2 else 1.0
        with np.errstate(under="ignore"):
            acc += sign * np.exp(expo)
    return -acc / (2j * np.pi * diff)


class PearceyKernel(BlockKernel):
    """Pearcey kernel over (left branch, imaginary axis, right branch)."""

    n_blocks = 3
    _axis = (False, True, False)

    def __init__(self, params):
        self.params = params

    def entry(self, i, j, x, y):
        return _pearcey_block(self._axis[i], self._axis[j], x, y, self.params)

    @staticmethod
    def domains(imag_variant="tan"):
        return [DomainComponent.contour_left(),
                DomainComponent.contour_imag(variant=imag_variant),
                DomainComponent.contour_right()]


# ---------------------------------------------------------------------------
# Tacnode parameters and gap specification

@dataclass(frozen=True)
class TacnodeParams:
    """Pressure parameter sigma and strictly increasing time list."""

    sigma: float
    times: tuple

    def __post_init__(self):
        sigma = float(self.sigma)
        if not np.isfinite(sigma):
            raise DomainError("sigma must be finite")
        times = tuple(float(t) for t in self.times)
        if len(times) < 1:
            raise DomainError("at least one time is required")
        if any(not np.isfinite(t) for t in times):
            raise DomainError("times must be finite")
        if any(times[k] >= times[k + 1] for k in range(len(times) - 1)):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "times", times)

    @property
    def r(self):
        return len(self.times)

    @property
    def sigma_tilde(self):
        return 2.0 ** (2.0 / 3.0) * self.sigma


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
            items = []
            for iv in slot:
                if len(iv) == 2:
                    a, b = iv
                    z = 0.0
                elif len(iv) == 3:
                    a, b, z = iv
                else:
                    raise DomainError("interval must be (a, b) or (a, b, z)")
                a, b = float(a), float(b)
                if not (np.isfinite(a) and np.isfinite(b) and a < b):
                    raise DomainError(
                        "interval needs finite a < b, got [%r, %r]" % (a, b))
                items.append((a, b, complex(z)))
            items.sort(key=lambda iv: iv[0])
            merged = []
            for a, b, z in items:
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

    @property
    def all_empty(self):
        return all(len(slot) == 0 for slot in self.per_time)

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
        ai, _ = _airy_eval(X + Y)
        return -ai
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
    """
    tau_m = max((abs(t) for t in params.times), default=0.0)
    e_max = max((max(abs(a), abs(b)) for _, a, b, _ in spec.flat()),
                default=0.0)
    s0 = abs(params.sigma) + e_max + tau_m * tau_m + 1.0
    margin = 75.0 + tau_m * (abs(params.sigma) + e_max)
    x = (s0 + (1.5 * margin) ** (2.0 / 3.0)) / _CBRT2
    return max(16.0, float(x))


class TacnodeHKernel(BlockKernel):
    """Coupled block kernel whose weighted determinant is the tacnode
    numerator.

    Components, in order: the edge [0, cutoff], the edge
    [sigma_tilde, cutoff] (split at 0 while sigma_tilde < 0), then one
    finite component per interval of the gap specification.  Interval
    columns carry the factor (1 - z); the edges carry weight 1.  The
    cutoff defaults to :func:`tail_cutoff`.
    """

    def __init__(self, params, spec, cutoff=None):
        if spec.n_times != params.r:
            raise DomainError("gap spec has %d time slots, params has %d"
                              % (spec.n_times, params.r))
        self.params = params
        self.spec = spec
        self.cutoff = float(cutoff) if cutoff is not None \
            else tail_cutoff(params, spec)
        self._roles = []
        self._weights = []
        self._domains = []
        for comp in edge_components(0.0, self.cutoff, label="R+"):
            self._roles.append(-1)
            self._weights.append(1.0)
            self._domains.append(comp)
        for comp in edge_components(params.sigma_tilde, self.cutoff,
                                    label="edge"):
            self._roles.append(0)
            self._weights.append(1.0)
            self._domains.append(comp)
        for tidx, a, b, z in spec.flat():
            self._roles.append(tidx + 1)
            self._weights.append(1.0 - z)
            self._domains.append(
                DomainComponent.finite(a, b, label="E[%d]" % (tidx + 1)))
        self.n_blocks = len(self._roles)

    def domains(self):
        return list(self._domains)

    def entry(self, i, j, x, y):
        return tacnode_block_entry(self._roles[i], self._roles[j],
                                   np.real(x), np.real(y), self.params)

    def weight(self, j):
        return self._weights[j]


# ---------------------------------------------------------------------------
# Double-double assembly of the same matrices
#
# Past sigma ~ -5 the determinant pair that forms the gap ratio outruns
# float64 (see the ddmath module docstring); these builders assemble
# I - K W for the numerator and denominator in double-double on the same
# truncated components as the float64 kernels above.

def _dd_affine(rule, a, b):
    """Map a (0,1) double-double rule onto [a, b]; a, b are scalar pairs."""
    t, w = rule
    span = dd_sub(b, a)
    pts = dd_add(dd_mul(t, span), a)
    wts = dd_mul(w, span)
    return pts, wts


def _dd_edge(rule, start, cutoff):
    """Edge [start, cutoff] split at the origin, as in edge_components."""
    zero = (0.0, 0.0)
    end = (float(cutoff), 0.0)
    if start[0] < 0.0:
        return [_dd_affine(rule, start, zero), _dd_affine(rule, zero, end)]
    return [_dd_affine(rule, start, end)]


def _dd_sigma_tilde(sigma):
    r23 = dd_roots_of_two()[2]
    return dd_mul_f(r23, float(sigma))


def _tacnode_entry_dd(ri, rj, x, y, params):
    """Double-double twin of :func:`tacnode_block_entry`."""
    X = (x[0][:, None], x[1][:, None])
    Y = (y[0][None, :], y[1][None, :])
    sig = float(params.sigma)
    cbrt2 = dd_roots_of_two()[1]
    if ri in (-1, 0) and rj in (-1, 0):
        if ri == rj:
            shape = (x[0].size, y[0].size)
            return np.zeros(shape), np.zeros(shape)
        ai, _ = dd_airy_pair(dd_add(X, Y))
        return dd_neg(ai)
    if ri == -1:
        tau = params.times[rj - 1]
        arg = dd_add(dd_mul(X, cbrt2), dd_add_f(dd_neg(Y), sig))
        return dd_airy_shifted((-tau, 0.0), arg)
    if ri == 0:
        tau = params.times[rj - 1]
        arg = dd_add(dd_mul(X, cbrt2), dd_add_f(Y, -sig))
        return dd_airy_shifted((-tau, 0.0), arg)
    if rj == -1:
        tau = params.times[ri - 1]
        arg = dd_add(dd_mul(Y, cbrt2), dd_add_f(dd_neg(X), sig))
        return dd_airy_shifted((tau, 0.0), arg)
    if rj == 0:
        tau = params.times[ri - 1]
        arg = dd_add(dd_mul(Y, cbrt2), dd_add_f(X, -sig))
        return dd_airy_shifted((tau, 0.0), arg)
    ti = params.times[ri - 1]
    tj = params.times[rj - 1]
    if ti > tj:
        dt = dd_sub((ti, 0.0), (tj, 0.0))   # exact difference as a pair
        return dd_neg(dd_heat_kernel(dt, X, Y))
    shape = (x[0].size, y[0].size)
    return np.zeros(shape), np.zeros(shape)


def tacnode_h_matrix_dd(params, spec, m, cutoff=None):
    """I - K W of the coupled tacnode block kernel in double-double.

    Component layout matches :class:`TacnodeHKernel` with an m-point rule
    per component.  Interval z-weights must be real; the double-double path
    serves the deep-|sigma| regime where the scans use real weights.
    """
    if spec.n_times != params.r:
        raise DomainError("gap spec has %d time slots, params has %d"
                          % (spec.n_times, params.r))
    if cutoff is None:
        cutoff = tail_cutoff(params, spec)
    rule = dd_gauss_legendre(m)
    sig_t = _dd_sigma_tilde(params.sigma)
    comps = []
    for pts, wts in _dd_edge(rule, (0.0, 0.0), cutoff):
        comps.append((-1, pts, wts))
    for pts, wts in _dd_edge(rule, sig_t, cutoff):
        comps.append((0, pts, wts))
    for tidx, a, b, z in spec.flat():
        if np.iscomplexobj(z) and np.imag(z) != 0.0:
            raise DomainError("double-double path requires real weights")
        pts, wts = _dd_affine(rule, (float(a), 0.0), (float(b), 0.0))
        wts = dd_mul_f(wts, 1.0 - float(np.real(z)))
        comps.append((tidx + 1, pts, wts))
    sizes = [c[1][0].size for c in comps]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offs[-1])
    out_hi = np.zeros((n, n))
    out_lo = np.zeros((n, n))
    for i, (ri, xi, _) in enumerate(comps):
        for j, (rj, yj, wj) in enumerate(comps):
            ent = _tacnode_entry_dd(ri, rj, xi, yj, params)
            blk = dd_neg(dd_mul(ent, (wj[0][None, :], wj[1][None, :])))
            out_hi[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk[0]
            out_lo[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk[1]
    idx = np.arange(n)
    dhi, dlo = dd_add_f((out_hi[idx, idx], out_lo[idx, idx]), 1.0)
    out_hi[idx, idx] = dhi
    out_lo[idx, idx] = dlo
    return out_hi, out_lo


def airy_edge_matrix_dd(sigma, m, cutoff):
    """I - K W for the Airy kernel on [sigma_tilde(sigma), cutoff] in
    double-double; the ratio denominator on the same rule family as the
    numerator."""
    rule = dd_gauss_legendre(m)
    sig_t = _dd_sigma_tilde(sigma)
    pieces = _dd_edge(rule, sig_t, cutoff)
    pts = (np.concatenate([p[0][0] for p in pieces]),
           np.concatenate([p[0][1] for p in pieces]))
    wts = (np.concatenate([p[1][0] for p in pieces]),
           np.concatenate([p[1][1] for p in pieces]))
    ai, aip = dd_airy_pair(pts)
    AX = (ai[0][:, None], ai[1][:, None])
    AY = (ai[0][None, :], ai[1][None, :])
    APX = (aip[0][:, None], aip[1][:, None])
    APY = (aip[0][None, :], aip[1][None, :])
    X = (pts[0][:, None], pts[1][:, None])
    Y = (pts[0][None, :], pts[1][None, :])
    num = dd_sub(dd_mul(AX, APY), dd_mul(APX, AY))
    den = dd_sub(X, Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = dd_div(num, den)
    diag = dd_sub(dd_sqr(aip), dd_mul(dd_mul(pts, ai), ai))
    n = pts[0].size
    idx = np.arange(n)
    ker[0][idx, idx] = diag[0]
    ker[1][idx, idx] = diag[1]
    blk = dd_neg(dd_mul(ker, (wts[0][None, :], wts[1][None, :])))
    out_hi = np.array(blk[0])
    out_lo = np.array(blk[1])
    dhi, dlo = dd_add_f((out_hi[idx, idx], out_lo[idx, idx]), 1.0)
    out_hi[idx, idx] = dhi
    out_lo[idx, idx] = dlo
    return out_hi, out_lo


# ---------------------------------------------------------------------------
# Extended Airy kernel and the coupling function

@lru_cache(maxsize=None)
def _inner_rule(m, start=0.0, scale=4.0):
    """m-point ray rule on [start, inf) for the inner Airy integrals."""
    if m < _MIN_INNER:
        raise DomainError("m_inner must be at least %d, got %d"
                          % (_MIN_INNER, m))
    rule = gauss_legendre(m)
    u, du = map_ray(rule.nodes, start, scale)
    wu = rule.weights * du
    u.flags.writeable = False
    wu.flags.writeable = False
    return u, wu


def ext_airy_matrix(tau1, tau2, x, y, m_inner):
    """Two-parameter extension of the Airy kernel on the grid x times y.

    Integrates the product of two shifted Airy functions along [0, inf)
    with an ``m_inner``-point ray rule.
    """
    u, wu = _inner_rule(m_inner)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    a1 = airy_shifted(tau1, x[:, None] + _CBRT2 * u[None, :])
    a2 = airy_shifted(-tau2, y[:, None] + _CBRT2 * u[None, :])
    return (a1 * wu[None, :]) @ a2.T


def coupling_matrix(tau, xi, u, m_inner):
    """Matrix [xi_i, u_p] of the coupling function.

    The coupling of a time slice to the resolvent domain is the shifted Airy
    function minus its reflection smoothed by the Airy transform:
    direct(xi, u) - integral over v of shifted(tau, -xi + 2^(1/3) v) Ai(u+v).
    """
    v, wv = _inner_rule(m_inner)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    term1 = airy_shifted(tau, xi[:, None] + _CBRT2 * u[None, :])
    f = airy_shifted(tau, -xi[:, None] + _CBRT2 * v[None, :])
    g, _ = _airy_eval(v[:, None] + u[None, :])
    return term1 - (f * wv[None, :]) @ g


# ---------------------------------------------------------------------------
# Airy resolvent on [start, inf) and the direct tacnode kernel

class AiryResolvent:
    """LU-factorized discretization of (I - K_Ai) on a ray [start, inf).

    Solves (I - K)g = f at the ray nodes and forms weighted inner products
    against a second sample vector, which is how the direct tacnode kernel
    consumes it.
    """

    def __init__(self, start, m, scale=4.0):
        rule = gauss_legendre(m)
        u, du = map_ray(rule.nodes, start, scale)
        self.start = float(start)
        self.m = int(m)
        self.nodes = u
        self.colw = rule.weights * du
        mat = -airy_kernel_matrix(u, u) * self.colw[None, :]
        mat[np.diag_indices(m)] += 1.0
        anorm = scipy.linalg.norm(mat, 1)
        self._lu = scipy.linalg.lu_factor(mat)
        rcond, info = scipy.linalg.lapack.dgecon(self._lu[0], anorm)
        if info != 0 or rcond < 1e-13:
            raise SingularRestrictionError(
                "airy restriction on [%g, inf) is singular to working "
                "precision (rcond %.3e)" % (start, rcond), rcond=rcond)
        self.rcond = float(rcond)

    def solve(self, rhs):
        """(I - K)^(-1) applied to columns of rhs sampled at the nodes."""
        return scipy.linalg.lu_solve(self._lu, rhs)

    def term_matrix(self, a, b):
        """Weighted inner products <(I-K)^(-1) a_i, b_j> over the ray.

        ``a`` and ``b`` have one row per outer point and one column per ray
        node.
        """
        g = self.solve(a.T).T
        return (g * self.colw[None, :]) @ b.T


class TacnodeDirectKernel(BlockKernel):
    """Direct tacnode kernel over the finite gap components."""

    def __init__(self, params, spec, resolvent, m_inner=80):
        if spec.n_times != params.r:
            raise DomainError("gap spec has %d time slots, params has %d"
                              % (spec.n_times, params.r))
        _inner_rule(m_inner)            # rejects a too-coarse inner rule now
        self.params = params
        self.spec = spec
        self.resolvent = resolvent
        self.m_inner = m_inner
        self._times = []
        self._weights = []
        self._domains = []
        for tidx, a, b, z in spec.flat():
            self._times.append(params.times[tidx])
            self._weights.append(1.0 - z)
            self._domains.append(
                DomainComponent.finite(a, b, label="E[%d]" % (tidx + 1)))
        self.n_blocks = len(self._times)

    def domains(self):
        return list(self._domains)

    def weight(self, j):
        return self._weights[j]

    def entry(self, i, j, x, y):
        sig = self.params.sigma
        ti, tj = self._times[i], self._times[j]
        x = np.real(np.asarray(x))
        y = np.real(np.asarray(y))
        k0 = ext_airy_matrix(ti, tj, sig - x, sig - y, self.m_inner)
        if ti > tj:
            k0 = k0 - heat_kernel(ti - tj, x[:, None], y[None, :])
        a = coupling_matrix(ti, x - sig, self.resolvent.nodes, self.m_inner)
        b = coupling_matrix(-tj, y - sig, self.resolvent.nodes, self.m_inner)
        return k0 + self.resolvent.term_matrix(a, b)


# ---------------------------------------------------------------------------
# Formal extended kernel (positivity probe) and conditioned kernels

class FormalTacnodeKernel(BlockKernel):
    """Block kernel of the formal extended process behind the tacnode ratio.

    Component 0 is a full auxiliary real line; components 1..r are the time
    slices.  The gap identity factorizes through this kernel, but it is not
    a bona fide correlation kernel: minors can go negative, which is what
    the positivity probe exhibits.
    """

    def __init__(self, params, m_inner=80):
        _inner_rule(m_inner)            # rejects a too-coarse inner rule now
        self.params = params
        self.m_inner = m_inner
        self.n_blocks = 1 + params.r

    def entry(self, i, j, x, y):
        x = np.real(np.asarray(x))
        y = np.real(np.asarray(y))
        sig = self.params.sigma
        if i == 0 and j == 0:
            return airy_kernel_matrix(x, y)
        if i == 0:
            tj = self.params.times[j - 1]
            return -coupling_matrix(-tj, y - sig, x, self.m_inner).T
        if j == 0:
            ti = self.params.times[i - 1]
            return -coupling_matrix(ti, x - sig, y, self.m_inner)
        ti = self.params.times[i - 1]
        tj = self.params.times[j - 1]
        out = ext_airy_matrix(ti, tj, sig - x, sig - y, self.m_inner)
        if ti > tj:
            out = out - heat_kernel(ti - tj, x[:, None], y[None, :])
        return out


class ConditionedKernel:
    """Kernel of a determinantal process conditioned on an empty region.

    ``base`` is a block kernel, ``a_component`` the region swept empty
    (living on base block ``a_block``), discretized with ``rule``.  Entry
    evaluation adds the resolvent correction
    K(y1, a) (I - K|_A)^(-1) K(a, y2) integrated over the region to the bare
    kernel.
    """

    def __init__(self, base, a_component, rule, a_block=0):
        self.base = base
        self.a_block = a_block
        pts, dp = a_component.map_points(rule.nodes)
        self.nodes = np.asarray(pts)
        self.colw = rule.weights * dp
        mat = -np.asarray(base.entry(a_block, a_block, self.nodes, self.nodes),
                          dtype=float) * self.colw[None, :]
        mat[np.diag_indices(len(self.nodes))] += 1.0
        anorm = scipy.linalg.norm(mat, 1)
        self._lu = scipy.linalg.lu_factor(mat)
        rcond, info = scipy.linalg.lapack.dgecon(self._lu[0], anorm)
        if info != 0 or rcond < 1e-13:
            raise SingularRestrictionError(
                "conditioning region has vanishing free probability "
                "(rcond %.3e)" % rcond, rcond=rcond)
        self.rcond = float(rcond)

    def value_matrix(self, b1, y1, b2, y2):
        y1 = np.atleast_1d(np.asarray(y1, dtype=float))
        y2 = np.atleast_1d(np.asarray(y2, dtype=float))
        bare = self.base.entry(b1, b2, y1, y2)
        u = self.base.entry(b1, self.a_block, y1, self.nodes)
        v = self.base.entry(self.a_block, b2, self.nodes, y2)
        g = scipy.linalg.lu_solve(self._lu, np.asarray(v, dtype=float))
        return bare + (np.asarray(u) * self.colw[None, :]) @ g

    def value(self, b1, y1, b2, y2):
        return float(self.value_matrix(b1, [y1], b2, [y2])[0, 0])
