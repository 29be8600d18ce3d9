"""Gap probabilities: pinned values, invariances, route selection.

Pinned determinant values were cross-checked at higher node counts and,
for the tacnode family, against the independent direct-kernel route; the
first Tracy-Widom digits agree with commonly tabulated values.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet.errors import (DivisionInstabilityError, DomainError,
                           SanityCheckError)
from gapdet.fredholm import (DetResult, assemble, det_at, determinant,
                             fredholm_det)
from gapdet.gapprob import (DD_SIGMA, SIGMA_WINDOW, _check_probability,
                            airy_gap, generating_function, pearcey_gap,
                            tacnode_gap_direct, tacnode_gap_ratio,
                            tracy_widom_F2)
from gapdet.kernels import (AiryKernel, GapSpec, PearceyKernel, PearceyParams,
                            TacnodeParams)
from gapdet.quadrature import DomainComponent, gauss_legendre


def det_result(value, imag_residual=0.0):
    return DetResult(value=complex(value), err_estimate=0.0,
                     imag_residual=imag_residual, m_used=(40,),
                     norm_surrogate=0.0, parts={})


# ---------------------------------------------------------------------------
# Tracy-Widom

def test_tracy_widom_pinned_values():
    assert_allclose(tracy_widom_F2(0.0).real, 0.9693728283552626,
                    rtol=0, atol=5e-13)
    assert_allclose(tracy_widom_F2(-2.0).real, 0.4132241425051226,
                    rtol=0, atol=5e-13)
    assert_allclose(tracy_widom_F2(2.0).real, 0.9998875536983096,
                    rtol=0, atol=5e-13)
    assert_allclose(tracy_widom_F2(-6.0).real, 1.0622546741008592e-08,
                    rtol=1e-6, atol=0)


def test_tracy_widom_result_fields():
    res = tracy_widom_F2(-2.0)
    assert res.err_estimate <= 1e-10
    assert res.imag_residual <= 1e-12
    assert res.m_used == (80,)
    assert res.value.real == res.real


def test_tracy_widom_monotone_with_correct_limits():
    s = np.linspace(-8.0, 4.0, 25)
    vals = [tracy_widom_F2(x).real for x in s]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 1e-5
    assert vals[-1] >= 1.0 - 1e-3


def test_tracy_widom_domain_guard():
    with pytest.raises(DomainError):
        tracy_widom_F2(-12.5)
    with pytest.raises(DomainError):
        tracy_widom_F2(12.5)


# ---------------------------------------------------------------------------
# Airy gap on interval unions

def test_airy_gap_pinned_two_intervals():
    res = airy_gap([(-1.0, 0.0), (1.0, 2.0)])
    assert_allclose(res.real, 0.8352881791823507, rtol=0, atol=5e-13)


def test_airy_gap_validation():
    with pytest.raises(DomainError):
        airy_gap([(0.0, 2.0), (1.0, 3.0)])
    with pytest.raises(DomainError):
        airy_gap([(0.0, np.inf)])
    with pytest.raises(DomainError):
        airy_gap([(1.0, 1.0)])


# ---------------------------------------------------------------------------
# Pearcey gap

def test_pearcey_pinned_values():
    assert_allclose(pearcey_gap(PearceyParams(0.0, (-1.0, 1.0))).real,
                    0.6359104280440427, rtol=0, atol=5e-13)
    res = pearcey_gap(PearceyParams(2.0, (-1.0, 1.0)))
    assert_allclose(res.real, 0.9459049569839296, rtol=0, atol=5e-13)
    assert res.imag_residual <= 1e-8
    assert res.err_estimate <= 1e-8


def test_pearcey_branch_elimination_matches_full_determinant():
    # a Pearcey rung factors the axis block's Schur complement; the LU of
    # the full three-component matrix on the same rule is the reference
    ker = PearceyKernel(PearceyParams(2.0, (-1.5, -0.5, 0.5, 1.0)))
    doms = PearceyKernel.domains()
    for m in (60, 120):
        full = determinant(assemble(ker, doms, gauss_legendre(m))[0])
        assert abs(det_at(ker, doms, m)[0] - full) <= 1e-13


def test_pearcey_no_endpoints_gives_one():
    res = pearcey_gap(PearceyParams(3.0, ()))
    assert_allclose(res.real, 1.0, rtol=0, atol=1e-10)


def test_pearcey_reflection_symmetry():
    # the process is symmetric under x -> -x, so E and -E agree
    a = pearcey_gap(PearceyParams(2.0, (-0.5, 1.0))).real
    b = pearcey_gap(PearceyParams(2.0, (-1.0, 0.5))).real
    assert abs(a - b) <= 1e-8
    assert_allclose(a, 0.9627730647697068, rtol=0, atol=5e-13)


def test_pearcey_axis_map_variants_agree():
    a = pearcey_gap(PearceyParams(2.0, (-1.0, 1.0)), imag_variant="tan")
    b = pearcey_gap(PearceyParams(2.0, (-1.0, 1.0)), imag_variant="rational")
    assert abs(a.real - b.real) <= 1e-8


# ---------------------------------------------------------------------------
# Tacnode, both routes

def test_tacnode_ratio_pinned_symmetric_point():
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                            TacnodeParams(0.0, (0.0,)))
    assert_allclose(res.real, 0.6726669445727375, rtol=0, atol=5e-13)
    assert res.parts["route"] == "float64"
    assert res.parts["denominator"] != 0.0
    assert res.err_estimate <= 1e-8


def test_tacnode_two_time_routes_agree():
    spec = GapSpec([[(-1.0, 0.5)], [(-0.5, 1.0)]])
    par = TacnodeParams(-1.0, (-0.5, 0.5))
    ratio = tacnode_gap_ratio(spec, par)
    direct = tacnode_gap_direct(spec, par)
    assert_allclose(ratio.real, 0.3122614052029909, rtol=0, atol=5e-13)
    assert abs(ratio.real - direct.real) <= 1e-8
    assert direct.parts["route"] == "direct"
    assert direct.parts["resolvent_rcond"] > 1e-13


def test_tacnode_deep_sigma_switches_to_double_double():
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                            TacnodeParams(-5.0, (0.0,)))
    assert res.parts["route"] == "double-double"
    assert_allclose(res.real, 0.0034594797598081115, rtol=1e-9, atol=0)
    # the denominator alone is far below anything float64 could divide by
    assert res.parts["log10_denominator"] < -15.0


def test_tacnode_weighted_routes_agree():
    spec = GapSpec([[(-1.0, 0.5, 0.3)], [(-0.5, 1.0, 0.7)]])
    par = TacnodeParams(-1.0, (-0.5, 0.5))
    ratio = tacnode_gap_ratio(spec, par)
    direct = tacnode_gap_direct(spec, par)
    assert_allclose(ratio.real, 0.5820369471360609, rtol=0, atol=5e-13)
    assert abs(ratio.real - direct.real) <= 1e-8


def test_tacnode_empty_gap_gives_one():
    e_f64 = tacnode_gap_ratio(GapSpec([[]]), TacnodeParams(0.0, (0.0,)))
    assert_allclose(e_f64.real, 1.0, rtol=0, atol=1e-9)
    e_dd = tacnode_gap_ratio(GapSpec([[]]), TacnodeParams(-7.0, (0.0,)))
    assert_allclose(e_dd.real, 1.0, rtol=0, atol=1e-9)


def test_tacnode_unit_weight_gives_one():
    z_f64 = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 1.0)]]),
                              TacnodeParams(0.0, (0.0,)))
    assert_allclose(z_f64.real, 1.0, rtol=0, atol=1e-9)
    z_dd = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 1.0)]]),
                             TacnodeParams(-4.0, (0.0,)))
    assert_allclose(z_dd.real, 1.0, rtol=0, atol=1e-9)


def test_tacnode_time_reflection_invariance():
    a = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                          TacnodeParams(0.5, (0.7,)))
    b = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                          TacnodeParams(0.5, (-0.7,)))
    assert abs(a.real - b.real) <= 1e-8
    assert_allclose(a.real, 0.9403785387981144, rtol=0, atol=5e-13)


def test_tacnode_complex_weight_stays_on_float64():
    # the double-double route takes real weights only, so a complex weight
    # below DD_SIGMA is computed in float64
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 0.5j)]]),
                            TacnodeParams(-4.0, (0.0,)))
    assert res.parts["route"] == "float64"
    assert res.err_estimate <= 1e-8


def test_tacnode_complex_weight_instability_is_reported():
    # complex weights must stay on the float64 path, and at sigma = -5 the
    # denominator has fallen below what float64 digits can support
    spec = GapSpec([[(-1.0, 1.0, 0.5j)]])
    with pytest.raises(DivisionInstabilityError):
        tacnode_gap_ratio(spec, TacnodeParams(-5.0, (0.0,)))


def test_tacnode_sigma_window():
    spec = GapSpec([[(-1.0, 1.0)]])
    with pytest.raises(DomainError):
        tacnode_gap_ratio(spec, TacnodeParams(-9.5, (0.0,)))
    with pytest.raises(DomainError):
        tacnode_gap_direct(spec, TacnodeParams(9.5, (0.0,)))
    forced = tacnode_gap_ratio(spec, TacnodeParams(9.5, (0.0,)),
                               force_sigma=True)
    assert_allclose(forced.real, 1.0, rtol=0, atol=1e-9)
    assert abs(SIGMA_WINDOW) == 9.0
    assert DD_SIGMA == -3.0


def test_tacnode_slot_count_mismatch():
    one_slot = GapSpec([[(-1.0, 1.0)]])
    two_slots = GapSpec([[(-1.0, 1.0)], [(-1.0, 1.0)]])
    for spec, times in ((one_slot, (0.0, 1.0)), (two_slots, (0.0,))):
        with pytest.raises(DomainError):
            tacnode_gap_ratio(spec, TacnodeParams(0.0, times))
        with pytest.raises(DomainError):
            tacnode_gap_direct(spec, TacnodeParams(0.0, times))


# ---------------------------------------------------------------------------
# Generating functions

def test_generating_function_plain_gap_is_bit_identical():
    g = generating_function(AiryKernel(1), [(-1.0, 1.0)])
    a = airy_gap([(-1.0, 1.0)])
    assert g.real == a.real
    assert_allclose(g.real, 0.8096707158102225, rtol=0, atol=5e-13)


def test_generating_function_pinned_half_weight():
    g = generating_function(AiryKernel(1), [(0.0, 2.0, 0.5)])
    assert_allclose(g.real, 0.984742050341916, rtol=0, atol=5e-13)
    # same determinant through explicit column weights on the base kernel
    class HalfWeighted(AiryKernel):
        def weight(self, j):
            return 0.5

    twin = fredholm_det(HalfWeighted(1), [DomainComponent.finite(0.0, 2.0)])
    assert g.real == twin.real


def test_generating_function_unit_weight_gives_one():
    g = generating_function(AiryKernel(1), [(-1.0, 1.0, 1.0)])
    assert g.real == 1.0
    assert g.value.imag == 0.0


def test_generating_function_ray_matches_tracy_widom():
    g = generating_function(AiryKernel(1), [(0.0, math.inf)])
    assert g.real == tracy_widom_F2(0.0).real


def test_generating_function_validation():
    with pytest.raises(DomainError):
        generating_function(AiryKernel(2), [(0.0, 1.0)])
    with pytest.raises(DomainError):
        generating_function(AiryKernel(1), [(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(DomainError):
        generating_function(AiryKernel(1), [(0.0, 1.0, 0.3, 0.4)])


# ---------------------------------------------------------------------------
# Probability sanity checks

def test_check_probability_accepts_and_rejects():
    _check_probability(det_result(0.5), "ok")
    _check_probability(det_result(1.0 + 5e-7), "rounding headroom")
    with pytest.raises(SanityCheckError):
        _check_probability(det_result(1.5), "too large")
    with pytest.raises(SanityCheckError):
        _check_probability(det_result(-0.01), "negative")
    with pytest.raises(SanityCheckError):
        _check_probability(det_result(0.5, imag_residual=1e-6),
                           "imaginary contamination")
