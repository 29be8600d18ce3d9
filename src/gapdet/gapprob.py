"""High-level gap probabilities and generating functions.

Three families are exposed: the Tracy-Widom distribution (Airy kernel on a
ray), the Pearcey gap probability (the integrable Pearcey kernel on the gap
intervals), and the tacnode gap probability.  The tacnode value
is computed by two independent routes: the determinant ratio of the
coupled block kernel against an Airy denominator, and the formal extended
kernel conditioned on an empty edge.  Agreement of the two routes is the
strongest correctness check the package has; the test suite exercises it
on a parameter grid.

Each tacnode route is one determinant, det S of the gap block's Schur
complement in N = I - K W, whose leading edge block L is the ratio's
(R+, edge) block, of determinant F2(sigma_tilde) on N's own rule, or the
direct route's edge ray [sigma_tilde, inf).  As sigma drops, N and L
become ill-conditioned together while det S stays of order one.  Both
routes climb :func:`gapdet.fredholm.ladder` on the float64 rung
:func:`gapdet.fredholm.det_at`.  When its m0 rounding floor exceeds the
tolerance, ratios with real weights fall back to the double-double rung
:func:`gapdet.fredholm.det_at_dd`, which is all the deep-overlap scans
need, and complex weights and the direct route raise
:class:`DivisionInstabilityError`.  This module picks the kernel, the
route label and the fallback; the linear algebra lives in
:mod:`gapdet.fredholm`.
"""

import math

import numpy as np

from .errors import DomainError, SanityCheckError
from .fredholm import det_at, det_at_dd, fredholm_det, ladder
from .kernels import (AiryKernel, PearceyKernel, TacnodeDirectKernel,
                      TacnodeHKernel, parse_interval)
from .quadrature import DomainComponent

__all__ = ["tracy_widom_F2", "airy_gap", "pearcey_gap",
           "tacnode_gap_ratio", "tacnode_gap_direct", "generating_function",
           "SIGMA_WINDOW"]

#: Default stability window for tacnode queries; |sigma| beyond this is
#: rejected unless the caller forces it.
SIGMA_WINDOW = 9.0

_IMAG_TOL = 1e-8
_PROB_SLACK = 1e-6


def _check_probability(res, what):
    """Reject determinant values that cannot be probabilities.

    Tolerances: imaginary residual up to 1e-8 (quadrature noise on a real
    quantity), real part in [0, 1] with 1e-6 headroom above and a hair of
    rounding slack below zero.
    """
    if res.imag_residual > _IMAG_TOL:
        raise SanityCheckError(
            "%s has imaginary residual %.3e, expected a real probability"
            % (what, res.imag_residual))
    v = res.value.real
    if not -1e-9 <= v <= 1.0 + _PROB_SLACK:
        raise SanityCheckError(
            "%s = %.6g lies outside [0, 1]" % (what, v))


def tracy_widom_F2(s, m0=40, tol=1e-8):
    """Tracy-Widom distribution F2(s) = det(I - K_Ai restricted to [s, inf)).

    ``s`` must lie in [-12, 12], the window where the Airy evaluation
    underneath is accurate enough for the stated tolerance.  Below about
    s = -8.7 the ladder's error estimate reaches the value itself (at
    s = -8.75, err 4.2e-25 against F2 = 3.8e-25), and those values are
    refused with :class:`NonConvergenceError`.
    """
    s = float(s)
    if not -12.0 <= s <= 12.0:
        raise DomainError("s must lie in [-12, 12], got %g" % s)
    res = generating_function([(s, math.inf)], m0=m0, tol=tol)
    _check_probability(res, "F2(%g)" % s)
    return res


def _as_pair(iv):
    try:
        a, b = iv
    except (TypeError, ValueError):
        raise DomainError("interval must be an (a, b) pair, got %r"
                          % (iv,)) from None
    return float(a), float(b)


def airy_gap(intervals, m0=40, tol=1e-8):
    """Airy-process gap probability det(I - K_Ai) on a finite interval union.

    ``intervals`` is a sequence of disjoint (a, b) pairs with a < b, finite;
    this is :func:`generating_function` at z = 0 without the ray.  An item
    that is not an (a, b) pair raises :class:`DomainError`.
    """
    ivs = [_as_pair(iv) for iv in intervals]
    for a, b in ivs:
        if not np.isfinite(b):
            raise DomainError("interval needs finite a < b, got [%r, %r]"
                              % (a, b))
    res = generating_function(ivs, m0=m0, tol=tol)
    _check_probability(res, "airy gap")
    return res


def pearcey_gap(params, m0=20, tol=1e-8):
    """Pearcey gap probability over the union encoded by ``params``.

    Each rung assembles :class:`gapdet.kernels.PearceyKernel` on the gap
    intervals, whose contour rules refine with the rung's interval rule;
    ``m_used`` has one entry per gap interval.  tau in [0, 8] is the
    documented window; outside it the kernel's own overflow guard fires.
    With no endpoints there is no interval, and the value is exactly 1.
    """
    res = ladder(lambda m: det_at(PearceyKernel(params, m), m), m0, tol,
                 len(params.endpoints) // 2)
    _check_probability(res, "pearcey gap (tau=%g)" % params.tau)
    return res


# ---------------------------------------------------------------------------
# Tacnode: both routes climb one driver over their kernel

def _tacnode_gap(kernel, parts, dd_parts, n_components, m0, tol):
    """Ladder of ``kernel``'s Schur rung, labelled by ``parts``, with a
    double-double fallback labelled by ``dd_parts`` unless that is None;
    ``m_used`` has ``n_components`` entries.  Plain gap rows are checked to
    be probabilities."""
    fallback = None if dd_parts is None \
        else (lambda m: det_at_dd(kernel, m, dd_parts))
    res = ladder(lambda m: det_at(kernel, m, parts, m == m0), m0, tol,
                 n_components, fallback)
    if all(z == 0.0 for _, _, _, z in kernel.spec.flat()):
        _check_probability(res, "tacnode gap (sigma=%g)"
                           % kernel.params.sigma)
    return res


def _check_sigma_window(params, force_sigma):
    if abs(params.sigma) > SIGMA_WINDOW and not force_sigma:
        raise DomainError(
            "|sigma| = %g exceeds the stability window %g; pass "
            "force_sigma=True to override" % (abs(params.sigma),
                                              SIGMA_WINDOW))


def tacnode_gap_ratio(spec, params, m0=40, tol=1e-8, force_sigma=False):
    """Tacnode gap probability as a ratio of two Fredholm determinants.

    The numerator is the coupled block kernel restricted to
    [0, X] and [sigma_tilde, X] plus the gap intervals, with interval
    columns weighted by (1 - z); the denominator is the Airy kernel on
    [sigma_tilde, X].  The denominator is the numerator's own leading
    (R+, edge) block L, so the ratio is computed as one determinant, det S
    of the gap block's Schur complement (see the module docstring), and
    both determinants share the rule and the cutoff X by construction.

    An empty gap set returns exactly 1 without assembling, as the direct
    route does: S is 0 x 0 whatever the conditioning of L.  With every
    weight at z = 1, S is the identity and the ratio is exactly 1; that
    case runs through the ordinary code path as an accuracy check.

    Above the float64 rounding floor (:func:`gapdet.fredholm.det_at`) real
    weights climb the ladder in double-double, and complex weights raise
    :class:`DivisionInstabilityError` carrying ``rounding_floor`` and
    ``tol``.  ``parts`` carry the route taken, the cutoff, the m0
    ``rounding_floor`` and the rconds of N and L that gave it.  |sigma|
    beyond the stability window raises unless ``force_sigma`` is set.
    """
    _check_sigma_window(params, force_sigma)
    kernel = TacnodeHKernel(params, spec)
    real = all(z.imag == 0.0 for _, _, _, z in spec.flat())
    return _tacnode_gap(
        kernel, {"route": "float64", "cutoff": kernel.cutoff},
        {"route": "double-double", "cutoff": kernel.cutoff} if real else None,
        len(kernel.domains), m0, tol)


def tacnode_gap_direct(spec, params, m0=40, tol=1e-8, force_sigma=False):
    """Tacnode gap probability from the direct space-time kernel.

    det(I - K restricted to the gap intervals), with K the formal extended
    kernel conditioned on an empty edge [sigma_tilde, inf): the extended
    Airy kernel, the Gaussian transition and the Airy-resolvent correction.
    :class:`gapdet.kernels.TacnodeDirectKernel` lays the formal kernel out
    over the edge and the gaps, once per call, and the gap block's Schur
    complement conditions it, through the ratio's own rung and floor.  This
    route cross-validates :func:`tacnode_gap_ratio` in the kernel formula.
    It has no double-double rung: above its float64 rounding floor (at the
    default tol, from about sigma = -5 for the gap [-1, 1]) it raises
    :class:`DivisionInstabilityError` carrying ``rounding_floor`` and
    ``tol``.  ``parts`` are the ratio's, with route ``"direct"`` and no
    cutoff; ``m_used`` counts the gap intervals only.  An empty gap set
    returns exactly 1 without assembling.
    """
    _check_sigma_window(params, force_sigma)
    kernel = TacnodeDirectKernel(params, spec)
    return _tacnode_gap(kernel, {"route": "direct"}, None,
                        len(kernel.domains) - kernel.n_edge, m0, tol)


# ---------------------------------------------------------------------------
# Generating functions

def generating_function(intervals, m0=40, tol=1e-8):
    """Occupation-number generating function of the Airy process.

    ``intervals`` is a sequence of (a, b) or (a, b, z) with disjoint
    [a, b] and b = inf allowed (the last interval may be a ray).  Computes
    det(I - K_Ai W) where W scales the columns of interval j by (1 - z_j).
    At z = 0 everywhere this is the plain gap probability, through
    bit-identical assembly; at z = 1 everywhere the weighted projector
    vanishes and the value is 1.
    """
    norm = sorted((parse_interval(iv) for iv in intervals),
                  key=lambda iv: iv[0])
    for k in range(len(norm) - 1):
        if norm[k][1] > norm[k + 1][0]:
            raise DomainError("intervals must be disjoint")
    doms = []
    for a, b, z in norm:
        if np.isinf(b):
            doms.append(DomainComponent.ray(a))
        else:
            doms.append(DomainComponent.finite(a, b))
    kernel = AiryKernel(doms, [1.0 - z for _, _, z in norm])
    return fredholm_det(kernel, m0=m0, tol=tol)
