"""High-level gap probabilities and generating functions.

Three families are exposed: the Tracy-Widom distribution (Airy kernel on a
ray), the Pearcey gap probability (contour kernel over two hyperbolas and
the imaginary axis), and the tacnode gap probability.  The tacnode value
is computed by two independent routes: the determinant ratio of the
coupled block kernel against an Airy denominator, and the direct
space-time kernel restricted to the gap set.  Agreement of the two routes
is the strongest correctness check the package has; the test suite
exercises it on a parameter grid.

As sigma drops, the ratio's numerator and denominator vanish at matching
speed while their quotient stays of order one, and the quotient's digits
fall off the end of float64 long before the quadrature has converged.
The ratio route therefore switches to the double-double engine (see
:mod:`gapdet.ddmath`) once sigma <= -3; that path covers real interval
weights, which is all the deep-overlap scans need.  Complex weights stay
on the float64 path and degrade honestly through the convergence ladder.
Both precisions discretize the same kernels on the same components:
:func:`gapdet.fredholm.assemble` and :func:`gapdet.fredholm.assemble_dd`
read one :class:`gapdet.kernels.TacnodeHKernel` and one Airy denominator,
and the route only picks which of the two rung functions runs.
"""

import math
import threading

import numpy as np

from .ddmath import dd_det, dd_div
from .errors import DivisionInstabilityError, DomainError, SanityCheckError
from .fredholm import BlockKernel, assemble_dd, det_at, fredholm_det, ladder
from .kernels import (AiryKernel, PearceyKernel, TacnodeDirectKernel,
                      TacnodeHKernel, check_slots)
from .quadrature import DomainComponent, edge_components

__all__ = ["tracy_widom_F2", "airy_gap", "pearcey_gap",
           "tacnode_gap_ratio", "tacnode_gap_direct", "generating_function",
           "SIGMA_WINDOW", "DD_SIGMA"]

#: Default stability window for tacnode queries; |sigma| beyond this is
#: rejected unless the caller forces it.
SIGMA_WINDOW = 9.0

#: The ratio route switches from float64 to double-double at this sigma.
DD_SIGMA = -3.0

_DEN_FLOOR = 1e-12
_IMAG_TOL = 1e-8
_PROB_SLACK = 1e-6

#: A double-double rung is thousands of small numpy operations, each of
#: which releases and retakes the GIL; two of them in threads hand the GIL
#: back and forth on every operation and finish later than one after the
#: other, so they take turns.
_DD_TURN = threading.Lock()


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
    underneath is accurate enough for the stated tolerance.
    """
    s = float(s)
    if not -12.0 <= s <= 12.0:
        raise DomainError("s must lie in [-12, 12], got %g" % s)
    res = generating_function(AiryKernel(1), [(s, math.inf)], m0=m0, tol=tol)
    _check_probability(res, "F2(%g)" % s)
    return res


def airy_gap(intervals, m0=40, tol=1e-8):
    """Airy-process gap probability det(I - K_Ai) on a finite interval union.

    ``intervals`` is a sequence of disjoint (a, b) pairs with a < b, finite;
    this is :func:`generating_function` at z = 0 without the ray.
    """
    ivs = [(float(a), float(b)) for a, b in intervals]
    for a, b in ivs:
        if not np.isfinite(b):
            raise DomainError("interval needs finite a < b, got [%r, %r]"
                              % (a, b))
    res = generating_function(AiryKernel(1), ivs, m0=m0, tol=tol)
    _check_probability(res, "airy gap")
    return res


def pearcey_gap(params, m0=60, tol=1e-8, imag_variant="tan"):
    """Pearcey gap probability over the union encoded by ``params``.

    The determinant is assembled on the left hyperbola, the imaginary axis
    and the right hyperbola, and factored through the axis block
    (:meth:`gapdet.kernels.PearceyKernel.condense`).  tau in [0, 8] is the
    documented stable window; outside it the kernel's own overflow guard
    fires.  With no endpoints the axis-to-contour coupling vanishes and
    the value is 1.
    """
    ker = PearceyKernel(params)
    doms = PearceyKernel.domains(imag_variant=imag_variant)
    res = fredholm_det(ker, doms, m0=m0, tol=tol)
    _check_probability(res, "pearcey gap (tau=%g)" % params.tau)
    return res


# ---------------------------------------------------------------------------
# Tacnode, ratio route

def _check_sigma_window(params, force_sigma):
    if abs(params.sigma) > SIGMA_WINDOW and not force_sigma:
        raise DomainError(
            "|sigma| = %g exceeds the stability window %g; pass "
            "force_sigma=True to override" % (abs(params.sigma),
                                              SIGMA_WINDOW))


def _ratio_rung_f64(kernel, den_kernel, den_domains, m):
    num, surrogate = det_at(kernel, kernel.domains(), m)
    den, _ = det_at(den_kernel, den_domains, m)
    if abs(den) < _DEN_FLOOR:
        raise DivisionInstabilityError(
            "denominator %.3e is below %.1e; its float64 digits cannot "
            "support the ratio" % (abs(den), _DEN_FLOOR))
    parts = {"route": "float64", "numerator": num, "denominator": den,
             "cutoff": kernel.cutoff, "norm_surrogate": surrogate}
    return num / den, parts


def _dd_as_float(mant, exp2):
    """Best float64 rendering of mant * 2^exp2 (0.0 on underflow)."""
    try:
        return math.ldexp(float(mant[0]), int(exp2))
    except OverflowError:
        return math.inf if mant[0] > 0 else -math.inf


def _dd_log10(mant, exp2):
    if mant[0] == 0.0:
        return -math.inf
    return math.log10(abs(float(mant[0]))) + int(exp2) * math.log10(2.0)


def _ratio_rung_dd(kernel, den_kernel, den_domains, m):
    with _DD_TURN:
        nh, nl, surrogate = assemble_dd(kernel, kernel.domains(), m)
        mant_n, e_n = dd_det(nh, nl)
        dh, dl, _ = assemble_dd(den_kernel, den_domains, m)
        mant_d, e_d = dd_det(dh, dl)
    if mant_d[0] == 0.0:
        raise DivisionInstabilityError(
            "denominator is singular at the working precision")
    q = dd_div((np.asarray(mant_n[0]), np.asarray(mant_n[1])),
               (np.asarray(mant_d[0]), np.asarray(mant_d[1])))
    ratio = float(q[0]) * 2.0 ** (e_n - e_d)
    parts = {"route": "double-double",
             "numerator": _dd_as_float(mant_n, e_n),
             "denominator": _dd_as_float(mant_d, e_d),
             "log10_numerator": _dd_log10(mant_n, e_n),
             "log10_denominator": _dd_log10(mant_d, e_d),
             "cutoff": kernel.cutoff, "norm_surrogate": surrogate}
    return ratio, parts


def tacnode_gap_ratio(spec, params, m0=40, tol=1e-8, force_sigma=False):
    """Tacnode gap probability as a ratio of two Fredholm determinants.

    The numerator is the coupled block kernel restricted to
    [0, X] and [sigma_tilde, X] plus the gap intervals, with interval
    columns weighted by (1 - z); the denominator is the Airy kernel on
    [sigma_tilde, X].  Numerator and denominator share the rule family
    and the cutoff X and are refined in lockstep, so that their
    discretization errors stay correlated and partially cancel.

    With every interval empty, or every weight at z = 1, the interval
    blocks drop out of the numerator and the ratio collapses to 1; both
    cases run through the ordinary code path as accuracy checks.

    Returns a :class:`DetResult` whose ``parts`` carry both determinants
    and the route taken.  |sigma| beyond the stability window raises
    unless ``force_sigma`` is set; a denominator too small for its digits
    to be trusted raises :class:`DivisionInstabilityError`.
    """
    _check_sigma_window(params, force_sigma)
    kernel = TacnodeHKernel(params, spec)
    den_domains = edge_components(params.sigma_tilde, kernel.cutoff,
                                  label="edge")
    den_kernel = AiryKernel(len(den_domains))
    weights = [z for _, _, _, z in spec.flat()]
    if params.sigma <= DD_SIGMA and all(z.imag == 0.0 for z in weights):
        ratio_rung = _ratio_rung_dd
    else:
        ratio_rung = _ratio_rung_f64
    res = ladder(lambda m: ratio_rung(kernel, den_kernel, den_domains, m),
                 m0, tol)
    if all(z == 0.0 for z in weights):
        _check_probability(res, "tacnode gap (sigma=%g)" % params.sigma)
    return res


# ---------------------------------------------------------------------------
# Tacnode, direct route

def tacnode_gap_direct(spec, params, m0=40, tol=1e-8, m_inner=80,
                       force_sigma=False):
    """Tacnode gap probability from the direct space-time kernel.

    det(I - K restricted to the gap intervals), with K the formal extended
    kernel conditioned on an empty edge [sigma_tilde, inf): the extended
    Airy kernel, the Gaussian transition and the Airy-resolvent correction
    (:class:`gapdet.kernels.TacnodeDirectKernel`).  The kernel is rebuilt
    at every rung so the edge's node count matches the outer rule.  This
    route exists to cross-validate :func:`tacnode_gap_ratio`; it stays in
    float64, so it loses accuracy at deep negative sigma where the edge
    restriction becomes singular, and it reports that honestly.
    """
    _check_sigma_window(params, force_sigma)
    check_slots(spec, params)

    def rung(m):
        kernel = TacnodeDirectKernel(params, spec, m, m_inner=m_inner)
        val, surrogate = det_at(kernel, kernel.domains(), m)
        return val, {"route": "direct", "norm_surrogate": surrogate,
                     "resolvent_rcond": kernel.conditioned.rcond}

    res = ladder(rung, m0, tol)
    if all(z == 0.0 for _, _, _, z in spec.flat()):
        _check_probability(res, "tacnode gap (sigma=%g)" % params.sigma)
    return res


# ---------------------------------------------------------------------------
# Generating functions

class _WeightedRestriction(BlockKernel):
    """One-block kernel replicated over intervals with (1 - z) columns."""

    def __init__(self, base, weights):
        self.base = base
        self.n_blocks = len(weights)
        self._weights = list(weights)

    def entry(self, i, j, x, y):
        return self.base.entry(0, 0, x, y)

    def weight(self, j):
        return self._weights[j]


def generating_function(kernel, intervals, m0=40, tol=1e-8):
    """Occupation-number generating function of a determinantal process.

    ``kernel`` is a one-block kernel; ``intervals`` is a sequence of
    (a, b) or (a, b, z) with disjoint [a, b] and b = inf allowed (the last
    interval may be a ray).  Computes det(I - W K) where W scales the
    columns of interval j by (1 - z_j).  At z = 0 everywhere this is the
    plain gap probability, through bit-identical assembly; at z = 1
    everywhere the weighted projector vanishes and the value is 1.
    """
    if getattr(kernel, "n_blocks", None) != 1:
        raise DomainError("generating_function needs a one-block kernel")
    norm = []
    for iv in intervals:
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
        norm.append((a, b, complex(z)))
    norm.sort(key=lambda iv: iv[0])
    for k in range(len(norm) - 1):
        if norm[k][1] > norm[k + 1][0]:
            raise DomainError("intervals must be disjoint")
    doms = []
    for a, b, z in norm:
        if np.isinf(b):
            doms.append(DomainComponent.ray(a))
        else:
            doms.append(DomainComponent.finite(a, b))
    wrapped = _WeightedRestriction(kernel, [1.0 - z for _, _, z in norm])
    return fredholm_det(wrapped, doms, m0=m0, tol=tol)
