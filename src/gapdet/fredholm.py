"""Nystrom discretization and Fredholm determinants of block kernels.

A block operator K acts on functions over an ordered list of domain
components, which the kernel itself carries (:class:`BlockKernel`); its
(i, j) block is a kernel K_ij(x, y) with x on component i and y on
component j.  ``assemble`` produces the matrix

    M[p, q] = delta_pq - K(x_p, x_q) * w_q * phi'_q * z_q

with all quadrature weights attached to the column index (one-sided
weighting): w_q and phi'_q are the rule weight and the map derivative at
node q, and z_q is the kernel's column weight of the component holding q.
The determinant of M converges to det(I - K) as the rule is refined.
``assemble_dd`` builds the same matrix in double-double (see
:mod:`gapdet.ddmath`) from the same kernel, so a component layout is
described once for both precisions.

Every value the package reports is a rung of one refinement ladder,
:func:`ladder`: evaluate at m0 nodes per component, then at 2*m0, and once
more at 4*m0 if the Cauchy difference of the last two is still above the
tolerance (Bornemann, Math. Comp. 79 (2010)), in the precision that the
m0 rung's rounding floor allows: the float64 rung :func:`det_at` or its
double-double twin :func:`det_at_dd`.  The twin first eliminates the
components on which the matrix is exactly the identity, which a kernel
declares, by one double-double product, and factors only what is left.
``fredholm_det`` runs the ladder on one kernel; :mod:`gapdet.gapprob`
also runs it over Pearcey kernels rebuilt on each rung's rule and over
both tacnode routes.
"""

from dataclasses import dataclass, field

import numpy as np

from .ddmath import dd_add, dd_add_f, dd_det, dd_gauss_legendre, dd_matmul, \
    dd_mul, dd_mul_f, dd_sub
from .errors import (DivisionInstabilityError, DomainError,
                     KernelEvaluationError, NonConvergenceError,
                     SanityCheckError)
from .quadrature import gauss_legendre

__all__ = ["BlockKernel", "DetResult", "assemble", "assemble_dd",
           "determinant", "inverse_rcond", "fredholm_det", "det_at",
           "det_at_dd", "ladder"]

_EPS = 2.0 ** -52


class BlockKernel:
    """Base class for block operator kernels.

    A kernel owns its layout: ``domains`` is the ordered list of
    :class:`gapdet.quadrature.DomainComponent` it acts on, and ``weights``
    holds one scalar per component that multiplies all of that component's
    columns (generating-function weights 1 - z; 1.0 each by default).
    Subclasses implement ``entry(i, j, x, y)``, which receives 1-d arrays of
    points on components i and j and returns the (len(x), len(y)) matrix of
    kernel values.  A kernel that also assembles in double-double (today
    only :class:`gapdet.kernels.TacnodeHKernel`) implements
    ``entry_dd(i, j, x, y)``, the same matrix with (hi, lo) pairs in and
    out.  A block on real points must be real.  ``n_edge`` counts the
    leading components that :func:`det_at` and :func:`det_at_dd` eliminate
    by a Schur complement; at the default 0 they take det(I - K W) itself.
    ``identity_block`` names edge components between any two of which the
    kernel vanishes, so that I - K W is the identity on them;
    :func:`det_at_dd` eliminates them by one matrix product.  It is empty
    by default.
    """

    n_edge = 0
    identity_block = ()

    def __init__(self, domains=(), weights=None):
        self.domains = list(domains)
        self.weights = [1.0] * len(self.domains) if weights is None \
            else list(weights)
        if len(self.weights) != len(self.domains):
            raise DomainError("%d column weights given for %d components"
                              % (len(self.weights), len(self.domains)))

    def entry(self, i, j, x, y):
        raise NotImplementedError

    def entry_dd(self, i, j, x, y):
        raise NotImplementedError


@dataclass(frozen=True)
class DetResult:
    """Converged value of one :func:`ladder` plus convergence diagnostics.

    ``err_estimate`` is the Cauchy difference between the last two rungs,
    floored at one ulp of the value: two rungs that round to the same float
    confirm it only to its last bit.  It is always below |value|.  On
    float64 rows of both tacnode routes it is also at least
    ``parts["rounding_floor"]`` times |value|, the relative rounding floor
    that :func:`det_at` measures at m0.
    ``m_used`` is the node count of the final rung per refined component.
    ``parts`` is the m0 rung's dict with the final rung's laid over it, so
    double-double rows keep the float64 floor and rconds that chose them.
    ``imag_residual`` is |Im value|, quadrature noise on a probability.
    """

    value: complex
    err_estimate: float
    m_used: tuple
    parts: dict = field(default_factory=dict, compare=False)

    @property
    def real(self):
        return float(self.value.real)

    @property
    def imag_residual(self):
        return abs(self.value.imag)


def assemble(kernel, rule):
    """Identity-minus-weighted-kernel matrix of ``kernel`` on its own
    components for one quadrature rule.

    The matrix is real unless a column weight is complex, and a complex
    block on a real matrix raises :class:`TypeError`.  Kernel
    evaluation failures are re-raised as :class:`KernelEvaluationError`
    with the offending block and, when it can be localized by a scalar
    re-scan, the node coordinates.
    """
    pts = []
    colw = []
    for dom, zw in zip(kernel.domains, kernel.weights):
        p, dp = dom.map_points(rule.nodes)
        pts.append(np.asarray(p))
        colw.append(rule.weights * dp * zw)
    sizes = [len(p) for p in pts]
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    n = int(offs[-1])
    # -K W is written in place, block by block, and I added last
    out = np.empty((n, n), dtype=np.result_type(float, *colw))
    for i in range(len(pts)):
        for j in range(len(pts)):
            try:
                block = kernel.entry(i, j, pts[i], pts[j])
            except (DomainError, OverflowError, FloatingPointError) as exc:
                x_bad, y_bad = _locate_failure(kernel, i, j, pts[i], pts[j])
                raise KernelEvaluationError(
                    "kernel block (%d, %d) failed: %s" % (i, j, exc),
                    block_row=i, block_col=j, x=x_bad, y=y_bad) from exc
            np.multiply(block, -colw[j][None, :],
                        out=out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]])
    out[np.diag_indices(n)] += 1.0
    return out


def assemble_dd(kernel, m):
    """Double-double twin of :func:`assemble` on the m-point rule.

    Every component must be finite; it is mapped affinely onto
    :func:`gapdet.ddmath.dd_gauss_legendre` with the span, the points and
    the column weights carried in double-double.  Column weights must be
    real.  Returns the hi and lo words of I - K W.
    """
    t, w = dd_gauss_legendre(m)
    pts = []
    colw = []
    for dom, zw in zip(kernel.domains, kernel.weights):
        if dom.kind != "finite":
            raise DomainError("double-double assembly needs finite "
                              "components, got %s %r" % (dom.kind, dom.label))
        zw = complex(zw)
        if zw.imag != 0.0:
            raise DomainError("double-double path requires real weights")
        a = (dom.a, 0.0)
        span = dd_sub((dom.b, 0.0), a)
        pts.append(dd_add(dd_mul(t, span), a))
        wts = dd_mul_f(dd_mul(w, span), zw.real)
        colw.append((wts[0][None, :], wts[1][None, :]))
    offs = np.concatenate([[0], np.cumsum([p[0].size for p in pts])])
    n = int(offs[-1])
    hi = np.zeros((n, n))
    lo = np.zeros((n, n))
    for i in range(len(pts)):
        for j in range(len(pts)):
            blk = dd_mul(kernel.entry_dd(i, j, pts[i], pts[j]), colw[j])
            hi[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk[0]
            lo[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk[1]
    np.negative(hi, out=hi)
    np.negative(lo, out=lo)
    idx = np.arange(n)
    hi[idx, idx], lo[idx, idx] = dd_add_f((hi[idx, idx], lo[idx, idx]), 1.0)
    return hi, lo


def _locate_failure(kernel, i, j, xs, ys):
    for x in xs:
        for y in ys:
            try:
                kernel.entry(i, j, np.atleast_1d(x), np.atleast_1d(y))
            except Exception:
                return x, y
    return None, None


def determinant(matrix):
    """Determinant via numpy's dense LU with partial pivoting.

    The LU runs in complex arithmetic whatever the dtype of ``matrix``:
    the tabulated Tracy-Widom values were taken that way, and a real LU
    moves their last digits (at s = -7 its relative error against the
    reference grew from 2.3e-11 to 2.8e-11).  A zero pivot, a matrix
    singular to working precision, gives an exactly zero determinant.  A
    non-finite entry raises :class:`DomainError`.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("determinant needs a square matrix")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("determinant needs a finite matrix")
    return complex(np.linalg.det(matrix))


def inverse_rcond(matrix):
    """Inverse of a square matrix and its exact 1-norm reciprocal condition
    number 1 / (||A||_1 ||A^-1||_1); ``(None, 0.0)`` when A is singular.
    """
    try:
        inv = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return None, 0.0
    return inv, float(1.0 / (np.linalg.norm(matrix, 1)
                             * np.linalg.norm(inv, 1)))


def det_at(kernel, m, parts=None, measure=False):
    """Float64 rung: det S at m nodes per component, and ``parts``.

    S is the Schur complement N_GG - N_GL L^-1 N_LG of N = I - K W on the
    m-point rule (:func:`assemble`), L the block of the kernel's ``n_edge``
    leading components; at ``n_edge`` = 0, S is N.  With no component past
    the edge, det S is exactly 1 and nothing is assembled.  ``measure``
    adds to a copy of ``parts`` the exact 1-norm rconds of N and L
    (:func:`inverse_rcond`) and ``rounding_floor`` =
    eps (1/rcond_numerator + 1/rcond_denominator), eps = 2^-52, or inf if
    either is singular: the first-order estimate eps kappa of the relative
    LU rounding error of det S = det N / det L, without the order-n
    constant and growth factor of its backward-error bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 9 and
    15).  It is relative, so small probabilities keep their relative
    digits.  :func:`ladder` measures it at m0 only: rcond hardly moves
    under refinement (7.4e-8 at m = 40 and 7.3e-8 at m = 160 for the
    tacnode ratio numerator of the gap [-1, 1] at sigma = -4).
    """
    parts = {} if parts is None else parts
    if len(kernel.domains) == kernel.n_edge:
        return 1.0, dict(parts, rounding_floor=0.0) if measure else parts
    mat = assemble(kernel, gauss_legendre(m))
    k = kernel.n_edge * m
    lead = mat[:k, :k]
    schur = mat
    if k:
        schur = mat[k:, k:] - mat[k:, :k] @ np.linalg.solve(lead, mat[:k, k:])
    if measure:
        rc_num = inverse_rcond(mat)[1]
        rc_den = inverse_rcond(lead)[1]
        floor = _EPS / rc_num + _EPS / rc_den \
            if rc_num > 0.0 and rc_den > 0.0 else np.inf
        parts = dict(parts, rounding_floor=floor, rcond_numerator=rc_num,
                     rcond_denominator=rc_den)
    return determinant(schur), parts


def det_at_dd(kernel, m, parts):
    """Double-double twin of :func:`det_at`, with ``parts`` returned as
    given.

    Let E be the kernel's ``identity_block``, edge components on which
    N = I - K W (:func:`assemble_dd`) is exactly the identity, and X the
    other components in layout order.  Eliminating E is one product,
    det N = det(N_XX - N_XE N_EX), taken by :func:`gapdet.ddmath.dd_matmul`;
    the same product on the leading edge block gives det L, so det S is
    :func:`gapdet.ddmath.dd_det` of that order-|X| m matrix with its
    leading (``n_edge`` - |E|) m rows as the lead.  With no E the product
    is empty and ``dd_det`` sees N itself.  An E that holds a gap component
    or on which N is not exactly I raises :class:`SanityCheckError`.
    """
    hi, lo = assemble_dd(kernel, m)
    comps = sorted(kernel.identity_block)
    nodes = np.arange(hi.shape[0]).reshape(-1, m)
    e = nodes[comps].ravel()
    x = np.delete(nodes, comps, axis=0).ravel()
    ee = np.ix_(e, e)
    if not (set(comps) <= set(range(kernel.n_edge))
            and np.array_equal(hi[ee], np.eye(e.size)) and not lo[ee].any()):
        raise SanityCheckError(
            "identity_block %r must name edge components on which "
            "I - K W is exactly the identity" % (comps,))
    xe, ex, xx = np.ix_(x, e), np.ix_(e, x), np.ix_(x, x)
    schur = dd_sub((hi[xx], lo[xx]),
                   dd_matmul((hi[xe], lo[xe]), (hi[ex], lo[ex])))
    det = dd_det(*schur, lead=(kernel.n_edge - len(comps)) * m)
    return float(det[0]), parts


def ladder(rung, m0, tol, n_components, fallback=None):
    """Refine ``rung`` until the Cauchy estimate meets ``tol``.

    ``rung(m)`` evaluates the quantity with m nodes per component and
    returns ``(value, parts)``, a dict of diagnostics, which at m0 may hold
    a relative ``rounding_floor``.  A floor not within tol (NaN included)
    restarts the ladder from m0 on ``fallback``, the same quantity in
    higher precision; without one, or when the fallback's own m0 floor is
    not within tol either, it raises :class:`DivisionInstabilityError`
    carrying the floor and tol.  The ladder then runs 2*m0, and 4*m0 once
    if needed; it raises :class:`NonConvergenceError`, carrying the last
    two values and the estimate, when even 4*m0 leaves the estimate above
    tol, and when the final estimate is not below |value|: a value with no
    correct digit is refused, however small tol makes it.  The estimate
    is the difference of the last two rungs, floored at one ulp of the last
    value and at the m0 floor of the rung in use times |value|, so a
    tolerance below either is never met.  The :class:`DetResult` takes its
    value from the final rung, its parts from the m0 rung with the final
    rung's laid over them, and ``(m,) * n_components`` as ``m_used``.  An
    m0 below 10 and a tol that is not positive and finite, which no
    estimate meets honestly, are refused before the first rung.
    """
    if m0 < 10:
        raise DomainError("m0 must be at least 10, got %d" % m0)
    if not (np.isfinite(tol) and tol > 0.0):
        raise DomainError("tol must be a positive finite number, got %r"
                          % tol)
    prev, first = rung(m0)
    floor = first.get("rounding_floor", 0.0)
    if not floor <= tol and fallback is not None:
        rung = fallback
        prev, parts = rung(m0)
        floor = parts.get("rounding_floor", 0.0)
    if not floor <= tol:
        raise DivisionInstabilityError(
            "rounding floor %.3e of the m0 rung exceeds tol %.3e, and no "
            "higher-precision rung is left" % (floor, tol),
            rounding_floor=floor, tol=tol)

    def estimate(prev, curr):
        return max(abs(curr - prev), float(np.spacing(abs(curr))),
                   floor * abs(curr))

    m = 2 * m0
    curr, parts = rung(m)
    err = estimate(prev, curr)
    if not err <= tol:      # a NaN estimate climbs, and then raises
        prev = curr
        m = 4 * m0
        curr, parts = rung(m)
        err = estimate(prev, curr)
        if not err <= tol:
            raise NonConvergenceError(
                "not converged: err(v(%d), v(%d)) = %.3e > %.3e"
                % (m, m // 2, err, tol),
                values=(prev, curr), err_estimate=err)
    if not err < abs(curr):
        raise NonConvergenceError(
            "no correct digit: err %.3e >= |v(%d)| = %.3e"
            % (err, m, abs(curr)), values=(prev, curr), err_estimate=err)
    return DetResult(value=complex(curr), err_estimate=err,
                     m_used=(m,) * n_components, parts={**first, **parts})


def fredholm_det(kernel, m0=40, tol=1e-8):
    """det(I - K) refined by :func:`ladder` over :func:`det_at`."""
    return ladder(lambda m: det_at(kernel, m), m0, tol, len(kernel.domains))
