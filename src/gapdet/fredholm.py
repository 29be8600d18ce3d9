"""Nystrom discretization and Fredholm determinants of block kernels.

A block operator K acts on functions over an ordered list of domain
components; its (i, j) block is a kernel K_ij(x, y) with x on component i
and y on component j.  ``assemble`` produces the matrix

    M[p, q] = delta_pq - w_q * phi'_q * K(x_p, x_q) * zweight(q)

with all quadrature weights attached to the column index (one-sided
weighting).  The determinant of M converges to det(I - K) as the rule is
refined.  ``assemble_dd`` builds the same matrix in double-double (see
:mod:`gapdet.ddmath`) from the same kernel and components, so a component
layout is described once for both precisions.

Every value the package reports comes out of one refinement ladder,
:func:`ladder`: evaluate at m0 nodes per component, then at 2*m0, and once
more at 4*m0 if the Cauchy difference of the last two is still above the
tolerance (Bornemann, Math. Comp. 79 (2010)).  ``fredholm_det`` runs it on
a single determinant; the tacnode routes in :mod:`gapdet.gapprob` run it on
determinant ratios.
"""

from dataclasses import dataclass, field

import numpy as np

from .ddmath import dd_add, dd_add_f, dd_gauss_legendre, dd_mul, dd_mul_f, \
    dd_sub
from .errors import (DomainError, KernelEvaluationError, NonConvergenceError)
from .quadrature import gauss_legendre

__all__ = ["BlockKernel", "DetResult", "assemble", "assemble_dd",
           "determinant", "fredholm_det", "det_at", "ladder"]


class BlockKernel:
    """Base class for block operator kernels.

    Subclasses set ``n_blocks`` and implement ``entry(i, j, x, y)`` which
    receives 1-d arrays of points on components i and j and returns the
    (len(x), len(y)) matrix of kernel values.  ``weight(j)`` supplies an
    optional scalar factor applied to all columns of component j (used for
    generating-function weights); the default is 1.  Kernels that also
    assemble in double-double implement ``entry_dd(i, j, x, y)``, the same
    matrix with (hi, lo) pairs in and out.  ``condense(matrix)`` may
    replace the assembled float64 matrix by a smaller one with the same
    determinant before the LU; the default keeps it.
    """

    n_blocks = 1

    def entry(self, i, j, x, y):
        raise NotImplementedError

    def entry_dd(self, i, j, x, y):
        raise NotImplementedError

    def weight(self, j):
        return 1.0

    def condense(self, matrix):
        return matrix


@dataclass(frozen=True)
class DetResult:
    """Converged value of one :func:`ladder` plus convergence diagnostics.

    ``err_estimate`` is the Cauchy difference between the last two rungs,
    floored at one ulp of the value: two rungs that round to the same float
    confirm it only to its last bit.  ``m_used`` is the node count of the
    final rung per domain component, and
    ``norm_surrogate`` the final rung's max row sum of the weighted kernel
    matrix (an operator-norm stand-in used by sanity checks).  ``parts``
    holds whatever else the final rung reported.
    """

    value: complex
    err_estimate: float
    imag_residual: float
    m_used: tuple
    norm_surrogate: float
    parts: dict = field(default=None, compare=False)

    @property
    def real(self):
        return float(self.value.real)


def assemble(kernel, domains, rule):
    """Identity-minus-weighted-kernel matrix for one quadrature rule.

    Kernel evaluation failures are re-raised as
    :class:`KernelEvaluationError` with the offending block and, when it can
    be localized by a scalar re-scan, the node coordinates.
    """
    if kernel.n_blocks != len(domains):
        raise DomainError("kernel has %d blocks but %d domains given"
                          % (kernel.n_blocks, len(domains)))
    pts = []
    colw = []
    for j, dom in enumerate(domains):
        p, dp = dom.map_points(rule.nodes)
        pts.append(np.asarray(p))
        colw.append(rule.weights * dp * kernel.weight(j))
    sizes = [len(p) for p in pts]
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    n = int(offs[-1])
    # -K W is written in place, block by block, and I added last
    out = np.empty((n, n), dtype=complex)
    for i in range(len(domains)):
        for j in range(len(domains)):
            try:
                block = kernel.entry(i, j, pts[i], pts[j])
            except (DomainError, OverflowError, FloatingPointError) as exc:
                x_bad, y_bad = _locate_failure(kernel, i, j, pts[i], pts[j])
                raise KernelEvaluationError(
                    "kernel block (%d, %d) failed: %s" % (i, j, exc),
                    block_row=i, block_col=j, x=x_bad, y=y_bad) from exc
            np.multiply(np.asarray(block, dtype=complex), -colw[j][None, :],
                        out=out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]])
    surrogate = float(np.max(np.sum(np.abs(out), axis=1))) if n else 0.0
    out[np.diag_indices(n)] += 1.0
    return out, surrogate


def assemble_dd(kernel, domains, m):
    """Double-double twin of :func:`assemble` on the m-point rule.

    Every component must be finite; it is mapped affinely onto
    :func:`gapdet.ddmath.dd_gauss_legendre` with the span, the points and
    the column weights carried in double-double.  Column weights must be
    real.  Returns the hi and lo words of I - K W and the surrogate of
    :func:`assemble`, taken over the hi words.
    """
    if kernel.n_blocks != len(domains):
        raise DomainError("kernel has %d blocks but %d domains given"
                          % (kernel.n_blocks, len(domains)))
    t, w = dd_gauss_legendre(m)
    pts = []
    colw = []
    for j, dom in enumerate(domains):
        if dom.kind != "finite":
            raise DomainError("double-double assembly needs finite "
                              "components, got %s %r" % (dom.kind, dom.label))
        zw = complex(kernel.weight(j))
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
    for i in range(len(domains)):
        for j in range(len(domains)):
            blk = dd_mul(kernel.entry_dd(i, j, pts[i], pts[j]), colw[j])
            hi[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk[0]
            lo[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk[1]
    surrogate = float(np.max(np.sum(np.abs(hi), axis=1))) if n else 0.0
    hi, lo = -hi, -lo
    idx = np.arange(n)
    hi[idx, idx], lo[idx, idx] = dd_add_f((hi[idx, idx], lo[idx, idx]), 1.0)
    return hi, lo, surrogate


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

    A zero pivot, a matrix singular to working precision, gives an exactly
    zero determinant.  A non-finite entry raises :class:`DomainError`.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("determinant needs a square matrix")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("determinant needs a finite matrix")
    return complex(np.linalg.det(matrix))


def det_at(kernel, domains, m):
    """Discretized det(I - K) at a fixed per-component node count."""
    rule = gauss_legendre(m)
    mat, surrogate = assemble(kernel, domains, rule)
    return determinant(kernel.condense(mat)), surrogate


def ladder(rung, m0, tol, n_components=1):
    """Refine ``rung`` until the Cauchy estimate meets ``tol``.

    ``rung(m)`` evaluates the quantity with m nodes per component and
    returns ``(value, parts)``, where ``parts`` is a dict holding at least
    ``norm_surrogate``.  The ladder runs m0 and 2*m0, and 4*m0 once if
    needed; it raises :class:`NonConvergenceError`, carrying the last two
    values, when even 4*m0 leaves the estimate above tol.  The estimate is
    the difference of the last two rungs, floored at one ulp of the last
    value, so a tolerance below that is never met.  The
    :class:`DetResult` takes its value, surrogate and remaining parts from
    the final rung and reports ``(m,) * n_components`` as ``m_used``.
    """
    if m0 < 10:
        raise DomainError("m0 must be at least 10, got %d" % m0)

    def estimate(prev, curr):
        return max(abs(curr - prev), float(np.spacing(abs(curr))))

    prev, _ = rung(m0)
    m = 2 * m0
    curr, parts = rung(m)
    err = estimate(prev, curr)
    if err > tol:
        prev = curr
        m = 4 * m0
        curr, parts = rung(m)
        err = estimate(prev, curr)
        if err > tol:
            raise NonConvergenceError(
                "not converged: err(v(%d), v(%d)) = %.3e > %.3e"
                % (m, m // 2, err, tol),
                values=(prev, curr), err_estimate=err)
    value = complex(curr)
    surrogate = parts.pop("norm_surrogate")
    return DetResult(value=value,
                     err_estimate=err,
                     imag_residual=abs(value.imag),
                     m_used=(m,) * n_components,
                     norm_surrogate=surrogate,
                     parts=parts)


def fredholm_det(kernel, domains, m0=40, tol=1e-8):
    """det(I - K) refined by :func:`ladder` over :func:`det_at`."""
    def rung(m):
        value, surrogate = det_at(kernel, domains, m)
        return value, {"norm_surrogate": surrogate}
    return ladder(rung, m0, tol, n_components=len(domains))
