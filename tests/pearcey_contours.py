"""The three-contour route that pearcey_gap took before it moved to the
real line, kept as the tests' judge.

The Pearcey kernel runs from the imaginary axis to two hyperbola branches
and back, with the branches' couplings assembled in full on one rule per
contour.  The maps, the couplings and the block kernel are read by
test_quadrature, test_kernels and test_gapprob.
"""

import numpy as np

from gapdet.fredholm import BlockKernel
from gapdet.specfun import pearcey_phase

_EXP_GUARD = 700.0


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


def _cauchy(lam, mu):
    return 1.0 / (2j * np.pi * (lam[:, None] - mu[None, :]))


def branch_to_axis(lam, mu, params):
    """Pearcey kernel from points lam on a hyperbola branch (rows) to
    points mu on the imaginary axis (columns), both complex arrays."""
    # every exponent is a row term plus a column term
    r, c = _exp_outer(0.5 * pearcey_phase(lam, params.tau),
                      -0.5 * pearcey_phase(mu, params.tau))
    with np.errstate(under="ignore"):
        return np.outer(r, c) * _cauchy(lam, mu)


def axis_to_branch(lam, mu, params):
    """Pearcey kernel from the imaginary axis (rows) to a hyperbola branch
    (columns)."""
    half_l = 0.5 * pearcey_phase(lam, params.tau)
    half_m = 0.5 * pearcey_phase(mu, params.tau)
    cauchy = _cauchy(lam, mu)
    acc = np.zeros_like(cauchy)
    for k, a in enumerate(params.endpoints):
        r, c = _exp_outer(-half_l + a * lam, half_m - a * mu)
        sign = -1.0 if (k + 1) % 2 else 1.0
        with np.errstate(under="ignore"):
            acc += sign * np.outer(r, c)
    return -acc * cauchy


def map_contour_right(s):
    """Right hyperbola branch: comes in along arg pi/4, exits along -pi/4;
    (point, derivative) at s in (0, 1)."""
    a = s / (1.0 - s)
    b = (1.0 - s) / s
    da = 1.0 / (1.0 - s) ** 2
    db = -1.0 / s ** 2
    return 0.5 * (a + b) - 0.5j * (a - b), 0.5 * (da + db) - 0.5j * (da - db)


def map_contour_left(s):
    """Left hyperbola branch, the pointwise negation of the right one."""
    point, deriv = map_contour_right(s)
    return -point, -deriv


def map_contour_imag(s):
    """Imaginary axis swept upwards as i tan(pi (s - 1/2))."""
    c = np.cos(np.pi * (s - 0.5))
    return 1j * np.tan(np.pi * (s - 0.5)), 1j * np.pi / (c * c)


class _Contour:
    """A component on a complex contour: ``map_points`` maps (0, 1) onto
    it, which is all :func:`gapdet.fredholm.assemble` reads."""

    def __init__(self, map_points):
        self.map_points = map_points


class ContourPearcey(BlockKernel):
    """The Pearcey kernel on (left branch, imaginary axis, right branch);
    each branch couples only to the axis."""

    def __init__(self, params):
        super().__init__([_Contour(map_contour_left),
                          _Contour(map_contour_imag),
                          _Contour(map_contour_right)])
        self.params = params

    def entry(self, i, j, x, y):
        if i == 1 and j != 1:
            return axis_to_branch(x, y, self.params)
        if j == 1 and i != 1:
            return branch_to_axis(x, y, self.params)
        return np.zeros((len(x), len(y)), dtype=complex)
