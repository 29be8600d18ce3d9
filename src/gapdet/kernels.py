"""Operator kernels of the point processes and their derived objects.

Three families live here:

* the Airy kernel and its Fredholm restriction blocks;
* the Pearcey kernel on the two hyperbola branches plus the imaginary axis;
* the tacnode blocks: the coupled block kernel whose determinant ratio gives
  the tacnode gap probability, and the direct space-time kernel, which is
  the formal extended kernel conditioned on an empty Airy edge.

Kernel classes subclass :class:`gapdet.fredholm.BlockKernel` and evaluate
whole matrices at once, as do the module-level building blocks they are
assembled from.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ddmath import (dd_add, dd_add_f, dd_airy_pair, dd_airy_shifted,
                     dd_div, dd_heat_kernel, dd_mul, dd_neg, dd_roots_of_two,
                     dd_sqr, dd_sub)
from .errors import DomainError, SingularRestrictionError
from .fredholm import BlockKernel
from .quadrature import (DomainComponent, edge_components, gauss_legendre,
                         map_ray)
from .specfun import _airy_eval, airy_shifted, heat_kernel, pearcey_phase

__all__ = [
    "airy_kernel_matrix", "AiryKernel",
    "PearceyParams", "PearceyKernel",
    "TacnodeParams", "GapSpec", "check_slots", "tacnode_block_entry",
    "TacnodeHKernel",
    "tail_cutoff",
    "ext_airy_matrix", "coupling_matrix",
    "FormalTacnodeKernel", "ConditionedKernel", "TacnodeDirectKernel",
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

    def entry_dd(self, i, j, x, y):
        """Double-double difference quotient; on an i == j block x and y
        are the same nodes and the diagonal takes the confluent form
        Ai'(x)^2 - x Ai(x)^2 exactly."""
        X = (x[0][:, None], x[1][:, None])
        Y = (y[0][None, :], y[1][None, :])
        ax, apx = dd_airy_pair(X)
        ay, apy = dd_airy_pair(Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = dd_div(dd_sub(dd_mul(ax, apy), dd_mul(apx, ay)),
                         dd_sub(X, Y))
        if i == j:
            diag = dd_sub(dd_sqr(apx), dd_mul(dd_mul(X, ax), ax))
            np.fill_diagonal(ker[0], diag[0])
            np.fill_diagonal(ker[1], diag[1])
        return ker


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


def _exp_outer(rows, cols):
    """Row and column factors of exp(rows[:, None] + cols[None, :]).

    Their outer product costs 2m exponentials in place of m^2.  The row
    factor is shifted down by its largest real part, so neither factor
    overflows when the largest summed exponent passes the guard.
    """
    top = np.max(rows.real)
    peak = top + np.max(cols.real)
    if peak > _EXP_GUARD:
        raise OverflowError("pearcey kernel exponent %.3g too large"
                            % float(peak))
    with np.errstate(under="ignore"):
        return np.exp(rows - top), np.exp(cols + top)


def _pearcey_block(row_on_axis, col_on_axis, lam, mu, params):
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    if row_on_axis == col_on_axis:
        return np.zeros((lam.size, mu.size), dtype=complex)
    # every exponent is a row term plus a column term
    half_l = 0.5 * pearcey_phase(lam, params.tau)
    half_m = 0.5 * pearcey_phase(mu, params.tau)
    cauchy = 1.0 / (2j * np.pi * (lam[:, None] - mu[None, :]))
    if not row_on_axis:
        # rows on a hyperbola branch, columns on the axis
        r, c = _exp_outer(half_l, -half_m)
        with np.errstate(under="ignore"):
            return np.outer(r, c) * cauchy
    # rows on the axis, columns on a hyperbola branch
    acc = np.zeros_like(cauchy)
    for k, a in enumerate(params.endpoints):
        r, c = _exp_outer(-half_l + a * lam, half_m - a * mu)
        sign = -1.0 if (k + 1) % 2 else 1.0
        with np.errstate(under="ignore"):
            acc += sign * np.outer(r, c)
    return -acc * cauchy


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

    def condense(self, matrix):
        """The axis block's Schur complement of I - K W.

        Only a branch couples to the axis, so every diagonal block of
        I - K W is the identity and the branches do not see each other.
        Eliminating both branch blocks exactly leaves a third of the order
        with the same determinant.
        """
        m = len(matrix) // 3
        left, axis, right = (slice(k * m, (k + 1) * m) for k in range(3))
        return (matrix[axis, axis] - matrix[axis, left] @ matrix[left, axis]
                - matrix[axis, right] @ matrix[right, axis])


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


def check_slots(spec, params):
    """Reject a gap spec whose time-slot count differs from params'."""
    if spec.n_times != params.r:
        raise DomainError("gap spec has %d time slots, params has %d"
                          % (spec.n_times, params.r))


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


def _gap_layout(spec):
    """(role, column weight, component) per interval of ``spec``.

    The role of an interval at time index k is k + 1, its columns carry the
    factor 1 - z and its component is labelled E[k + 1].  Both tacnode
    kernels lay the gap set out this way.
    """
    return [(tidx + 1, 1.0 - z,
             DomainComponent.finite(a, b, label="E[%d]" % (tidx + 1)))
            for tidx, a, b, z in spec.flat()]


class _LayoutKernel(BlockKernel):
    """Block kernel over a fixed list of (role, column weight, component)."""

    def __init__(self, layout):
        self._roles = [role for role, _, _ in layout]
        self._weights = [w for _, w, _ in layout]
        self._domains = [comp for _, _, comp in layout]
        self.n_blocks = len(layout)

    def domains(self):
        return list(self._domains)

    def weight(self, j):
        return self._weights[j]


class TacnodeHKernel(_LayoutKernel):
    """Coupled block kernel whose weighted determinant is the tacnode
    numerator.

    Components, in order: the edge [0, cutoff], the edge
    [sigma_tilde, cutoff] (split at 0 while sigma_tilde < 0), then the gap
    components of :func:`_gap_layout`.  The edges carry weight 1.  The
    cutoff is :func:`tail_cutoff`.  This layout serves both precisions:
    :func:`gapdet.fredholm.assemble` reads :meth:`entry` and
    :func:`gapdet.fredholm.assemble_dd` reads :meth:`entry_dd`.
    """

    def __init__(self, params, spec):
        check_slots(spec, params)
        self.params = params
        self.spec = spec
        self.cutoff = tail_cutoff(params, spec)
        super().__init__(
            [(-1, 1.0, comp)
             for comp in edge_components(0.0, self.cutoff, label="R+")]
            + [(0, 1.0, comp)
               for comp in edge_components(params.sigma_tilde, self.cutoff,
                                           label="edge")]
            + _gap_layout(spec))

    def entry(self, i, j, x, y):
        return tacnode_block_entry(self._roles[i], self._roles[j],
                                   np.real(x), np.real(y), self.params)

    def entry_dd(self, i, j, x, y):
        return _tacnode_entry_dd(self._roles[i], self._roles[j], x, y,
                                 self.params)


# ---------------------------------------------------------------------------
# Double-double entries of the tacnode block kernel
#
# Past sigma ~ -5 the determinant pair that forms the gap ratio outruns
# float64 (see the ddmath module docstring).  :meth:`TacnodeHKernel.entry_dd`
# and :meth:`AiryKernel.entry_dd` supply the entries for
# :func:`gapdet.fredholm.assemble_dd`, which builds I - K W for the
# numerator and denominator on the same components as the float64 kernels.

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
# Formal extended kernel, conditioned kernels and the direct tacnode kernel

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


def _factor_restriction(kmat, colw, what):
    """Inverse of A = I - K diag(colw) and its reciprocal condition number
    1 / (||A||_1 ||A^-1||_1), computed exactly from the inverse.

    Raises :class:`SingularRestrictionError`, led by ``what``, when A is
    exactly singular or the reciprocal condition number is below 1e-13.
    """
    mat = -kmat * colw[None, :]
    mat[np.diag_indices(len(colw))] += 1.0
    try:
        inv = np.linalg.inv(mat)
        rcond = 1.0 / (np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1))
    except np.linalg.LinAlgError:
        rcond = 0.0
    if not rcond >= 1e-13:
        raise SingularRestrictionError("%s (rcond %.3e)" % (what, rcond),
                                       rcond=rcond)
    return inv, float(rcond)


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
        self._inv, self.rcond = _factor_restriction(
            np.asarray(base.entry(a_block, a_block, self.nodes, self.nodes),
                       dtype=float), self.colw,
            "conditioning region %s has vanishing free probability"
            % a_component.label)

    def value_matrix(self, b1, y1, b2, y2):
        y1 = np.atleast_1d(np.asarray(y1, dtype=float))
        y2 = np.atleast_1d(np.asarray(y2, dtype=float))
        bare = self.base.entry(b1, b2, y1, y2)
        u = self.base.entry(b1, self.a_block, y1, self.nodes)
        v = self.base.entry(self.a_block, b2, self.nodes, y2)
        g = self._inv @ np.asarray(v, dtype=float)
        return bare + (np.asarray(u) * self.colw[None, :]) @ g

    def value(self, b1, y1, b2, y2):
        return float(self.value_matrix(b1, [y1], b2, [y2])[0, 0])


class TacnodeDirectKernel(_LayoutKernel):
    """Direct tacnode kernel over the gap components of :func:`_gap_layout`.

    It is :class:`FormalTacnodeKernel` conditioned on an empty auxiliary
    edge [sigma_tilde, inf), discretized with the m-point ray rule; a gap
    component of role k reads the kernel's time block k.
    """

    def __init__(self, params, spec, m, m_inner=80):
        check_slots(spec, params)
        super().__init__(_gap_layout(spec))
        self.params = params
        self.spec = spec
        self.conditioned = ConditionedKernel(
            FormalTacnodeKernel(params, m_inner),
            DomainComponent.ray(params.sigma_tilde), gauss_legendre(m))

    def entry(self, i, j, x, y):
        return self.conditioned.value_matrix(self._roles[i], np.real(x),
                                             self._roles[j], np.real(y))
