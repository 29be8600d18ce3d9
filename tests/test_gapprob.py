"""Gap probabilities: pinned values, invariances, route selection.

Pinned determinant values were cross-checked at higher node counts and,
for the tacnode family, against the independent direct-kernel route; the
Pearcey values are checked against the three-contour route, kept in
pearcey_contours as a test kernel.  The first Tracy-Widom digits agree
with commonly tabulated values.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet import fredholm
from gapdet.errors import (DivisionInstabilityError, DomainError,
                           NonConvergenceError, SanityCheckError)
from gapdet.fredholm import (BlockKernel, DetResult, assemble, determinant,
                             fredholm_det)
from gapdet.gapprob import (SIGMA_WINDOW, _check_probability, airy_gap,
                            generating_function, pearcey_gap,
                            tacnode_gap_direct, tacnode_gap_ratio,
                            tracy_widom_F2)
from gapdet.kernels import (AiryKernel, ConditionedKernel,
                            FormalTacnodeKernel, GapSpec, PearceyParams,
                            TacnodeDirectKernel, TacnodeParams)
from gapdet.quadrature import DomainComponent, gauss_legendre
from pearcey_contours import ContourPearcey


def det_result(value):
    return DetResult(complex(value), 0.0, (40,))


# ---------------------------------------------------------------------------
# Matrix dtype

@pytest.mark.parametrize("call, dtype", [
    (lambda: tracy_widom_F2(-2.0), np.float64),
    (lambda: airy_gap([(-1.0, 0.0), (1.0, 2.0)]), np.float64),
    (lambda: tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 0.3)]]),
                               TacnodeParams(0.0, (0.0,))), np.float64),
    (lambda: tacnode_gap_direct(GapSpec([[(-1.0, 1.0, 0.3)]]),
                                TacnodeParams(0.0, (0.0,))), np.float64),
    (lambda: generating_function([(-1.0, 1.0, 0.5j)]), np.complex128),
    (lambda: tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 0.5j)]]),
                               TacnodeParams(0.0, (0.0,))), np.complex128),
    (lambda: pearcey_gap(PearceyParams(1.0, (-1.0, 1.0))), np.float64),
], ids=["F2", "airy-gap", "ratio", "direct", "complex-z", "ratio-complex-z",
        "pearcey"])
def test_matrix_dtype_follows_points_and_weights(monkeypatch, call, dtype):
    # real points with real weights assemble in real arithmetic; only
    # complex weights assemble complex matrices
    seen = set()

    def spy(kernel, rule):
        mat = assemble(kernel, rule)
        seen.add(mat.dtype)
        return mat
    monkeypatch.setattr(fredholm, "assemble", spy)
    call()
    assert seen == {np.dtype(dtype)}


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


@pytest.mark.parametrize("s", [-5.0, -6.0, -7.0, -8.0])
def test_tracy_widom_left_tail_matches_asymptotic(s):
    """F2 against its left-tail expansion, a judge that shares no code.

    A3(s) = tau2 |s|^(-1/8) exp(-|s|^3/12)
            (1 + 3/(2^6 |s|^3) + 2025/(2^13 |s|^6))
    (Tracy and Widom, "Level-spacing distributions and the Airy kernel",
    Comm. Math. Phys. 159 (1994)), with log tau2 = ln 2 / 24 + zeta'(-1)
    (Deift, Its and Krasovsky, Ann. Math. 167 (2008)).  The first omitted
    term is O(|s|^-9); |s|^9 |F2/A3 - 1| measures 7.3, 6.2, 5.5 and 2.4 at
    s = -5 .. -8, so 8 |s|^-9 bounds it, and a relative error of 1e-6 in
    F2 breaks that bound at every s here.
    """
    zeta_prime_m1 = -0.16542114370045092
    tau2 = np.exp(np.log(2.0) / 24.0 + zeta_prime_m1)
    a = abs(s)
    asym = tau2 * a ** -0.125 * np.exp(-a ** 3 / 12.0) \
        * (1.0 + 3.0 / (2 ** 6 * a ** 3) + 2025.0 / (2 ** 13 * a ** 6))
    assert abs(tracy_widom_F2(s).real / asym - 1.0) <= 8.0 * a ** -9


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


@pytest.mark.parametrize("s", [-8.75, -12.0])
def test_tracy_widom_refuses_values_without_a_correct_digit(s):
    # inside the window, but the rung difference exceeds the value itself
    with pytest.raises(NonConvergenceError) as info:
        tracy_widom_F2(s)
    assert info.value.err_estimate >= abs(info.value.values[1])


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


@pytest.mark.parametrize("item", [(-1.0, 1.0, 0.5), (-1.0,), 1.0])
def test_airy_gap_refuses_an_item_that_is_not_a_pair(item):
    with pytest.raises(DomainError, match="must be an \\(a, b\\) pair"):
        airy_gap([item])


# ---------------------------------------------------------------------------
# Pearcey gap

def test_pearcey_pinned_values():
    assert_allclose(pearcey_gap(PearceyParams(0.0, (-1.0, 1.0))).real,
                    0.6359104280440427, rtol=0, atol=5e-13)
    res = pearcey_gap(PearceyParams(2.0, (-1.0, 1.0)))
    assert_allclose(res.real, 0.9459049569839296, rtol=0, atol=5e-13)
    assert res.imag_residual <= 1e-8
    assert res.err_estimate <= 1e-8


def test_pearcey_no_endpoints_gives_one():
    res = pearcey_gap(PearceyParams(3.0, ()))
    assert_allclose(res.real, 1.0, rtol=0, atol=1e-10)


def test_pearcey_reflection_symmetry():
    # the process is symmetric under x -> -x, so E and -E agree
    a = pearcey_gap(PearceyParams(2.0, (-0.5, 1.0))).real
    b = pearcey_gap(PearceyParams(2.0, (-1.0, 0.5))).real
    assert abs(a - b) <= 1e-8
    assert_allclose(a, 0.9627730647697068, rtol=0, atol=5e-13)


@pytest.mark.parametrize("endpoints", [
    (-1.0, 1.0), (-2.0, 0.5), (-1.5, -0.5, 0.5, 1.0)],
    ids=["one", "one-skew", "two"])
@pytest.mark.parametrize("tau", [0.0, 2.0, 4.0, 6.0, 8.0])
def test_pearcey_real_line_matches_contour_route(tau, endpoints):
    par = PearceyParams(tau, endpoints)
    line = pearcey_gap(par)
    contour = fredholm_det(ContourPearcey(par), m0=60)
    diff = abs(line.value - contour.value)
    assert diff <= 1e-12 * abs(line.value)
    assert diff <= line.err_estimate + contour.err_estimate
    assert line.m_used == (40,) * (len(endpoints) // 2)


@pytest.mark.parametrize("tau", [0.0, 1.0, 2.0, 4.0, 6.0, 8.0])
def test_pearcey_node_cap(tau):
    # m0 = 120 asks for 960 ray nodes at its second rung; the rays keep
    # gauss_legendre's 512, and the value stays that of the default m0
    for endpoints in ((-1.0, 1.0), (-2.0, 0.5)):
        par = PearceyParams(tau, endpoints)
        assert abs(pearcey_gap(par, m0=120).value
                   - pearcey_gap(par).value) <= 1e-12


# ---------------------------------------------------------------------------
# Tacnode, both routes

def test_tacnode_ratio_pinned_symmetric_point():
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                            TacnodeParams(0.0, (0.0,)))
    assert_allclose(res.real, 0.6726669445727375, rtol=0, atol=5e-13)
    assert res.parts["route"] == "float64"
    assert res.err_estimate <= 1e-8


def test_tacnode_two_time_routes_agree():
    spec = GapSpec([[(-1.0, 0.5)], [(-0.5, 1.0)]])
    par = TacnodeParams(-1.0, (-0.5, 0.5))
    ratio = tacnode_gap_ratio(spec, par)
    direct = tacnode_gap_direct(spec, par)
    assert_allclose(ratio.real, 0.3122614052029909, rtol=0, atol=5e-13)
    assert abs(ratio.real - direct.real) <= 1e-8
    assert direct.parts["route"] == "direct"
    assert direct.parts["rcond_denominator"] > 1e-13


def test_tacnode_deep_sigma_switches_to_double_double():
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                            TacnodeParams(-5.0, (0.0,)))
    assert res.parts["route"] == "double-double"
    assert len(res.m_used) == 4
    assert_allclose(res.real, 0.0034594797598081115, rtol=1e-9, atol=0)


def test_tacnode_m_used_per_component():
    # one entry per component the ladder refined: on the ratio route R+,
    # the edge's two pieces either side of the origin and the gap, on the
    # direct route each gap interval
    ratio = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                              TacnodeParams(-4.0, (0.0,)))
    assert ratio.m_used == (80,) * 4
    two_gaps = GapSpec([[(-1.0, -0.2), (0.3, 1.0)]])
    direct = tacnode_gap_direct(two_gaps, TacnodeParams(0.0, (0.0,)))
    assert direct.m_used == (80, 80)


def test_tacnode_weighted_routes_agree():
    spec = GapSpec([[(-1.0, 0.5, 0.3)], [(-0.5, 1.0, 0.7)]])
    par = TacnodeParams(-1.0, (-0.5, 0.5))
    ratio = tacnode_gap_ratio(spec, par)
    direct = tacnode_gap_direct(spec, par)
    assert_allclose(ratio.real, 0.5820369471360609, rtol=0, atol=5e-13)
    assert abs(ratio.real - direct.real) <= 1e-8


class _ConditionedGaps(BlockKernel):
    """The formal kernel conditioned on an empty edge through an explicit
    resolvent on the m-point rule over the direct kernel's own edge, one
    block per gap: the direct route's formulation before it became a Schur
    complement."""

    def __init__(self, spec, par, m):
        gaps = spec.flat()
        super().__init__([DomainComponent.finite(a, b) for _, a, b, _ in gaps],
                         [1.0 - z for _, _, _, z in gaps])
        self.roles = [tidx + 1 for tidx, _, _, _ in gaps]
        self.ck = ConditionedKernel(FormalTacnodeKernel(par),
                                    TacnodeDirectKernel(par, spec).domains[0],
                                    gauss_legendre(m))

    def entry(self, i, j, x, y):
        return self.ck.value_matrix(self.roles[i], np.real(x),
                                    self.roles[j], np.real(y))


@pytest.mark.parametrize("sigma", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("spec, times", [
    (GapSpec([[(-1.0, 1.0)]]), (0.0,)),
    (GapSpec([[(-1.0, 0.5)], [(-0.5, 1.0)]]), (-0.5, 0.5)),
], ids=["one-time", "two-time"])
def test_tacnode_direct_matches_explicit_resolvent(spec, times, sigma):
    # the gap block's Schur complement is the explicitly conditioned
    # kernel; with the edge on the final rung's rule the two agree to
    # rounding
    par = TacnodeParams(sigma, times)
    direct = tacnode_gap_direct(spec, par)
    m = direct.m_used[0]
    oracle = fredholm_det(_ConditionedGaps(spec, par, m), m0=m // 2)
    assert oracle.m_used == direct.m_used
    assert abs(direct.value - oracle.value) <= 1e-14
    assert direct.err_estimate >= \
        direct.parts["rounding_floor"] * abs(direct.value)


@pytest.mark.parametrize("spec, times", [
    (GapSpec([[(-1.0, 1.0)]]), (0.0,)),
    (GapSpec([[(-1.0, 0.0)], [(-1.0, 1.0)]]), (-0.5, 0.5)),
], ids=["one-time", "two-time"])
def test_tacnode_direct_finite_edge_at_sigma_minus_4(spec, times):
    # on the ratio's finite edge the direct route converges geometrically
    # where the ray map did not: its err was 7.4e-9 and 2.7e-9 there, and
    # it missed the ratio by 1.1e-13
    par = TacnodeParams(-4.0, times)
    ratio = tacnode_gap_ratio(spec, par)
    direct = tacnode_gap_direct(spec, par)
    assert abs(ratio.real - direct.real) <= 5e-14
    assert direct.err_estimate <= 1e-9
    assert direct.parts["cutoff"] == ratio.parts["cutoff"]


@pytest.mark.parametrize("call", [tacnode_gap_ratio, tacnode_gap_direct],
                         ids=["ratio", "direct"])
def test_tacnode_touching_intervals_with_different_weights(call):
    # [-1, 0] and [0, 1] share one point, so their weights need not agree;
    # the value is that of the same intervals 1e-300 apart
    par = TacnodeParams(0.0, (0.0,))
    touching = call(GapSpec([[(-1.0, 0.0, 0.3), (0.0, 1.0, 0.7)]]), par)
    apart = call(GapSpec([[(-1.0, 0.0, 0.3), (1e-300, 1.0, 0.7)]]), par)
    assert touching.value == apart.value
    assert_allclose(touching.real, 0.8296511704968125, rtol=0, atol=5e-13)


def test_tacnode_direct_instability_is_reported():
    # the direct route has no double-double rung, and at sigma = -6 its
    # float64 rounding floor exceeds the tolerance
    with pytest.raises(DivisionInstabilityError) as info:
        tacnode_gap_direct(GapSpec([[(-1.0, 1.0)]]),
                           TacnodeParams(-6.0, (0.0,)))
    assert info.value.tol == 1e-8
    assert info.value.rounding_floor > info.value.tol


def test_tacnode_empty_gap_gives_one(monkeypatch):
    # the gap block's Schur complement is 0 x 0, so the ratio is 1 without
    # assembling, however ill-conditioned L is at sigma = -7 and -9
    def refuse(*args, **kwargs):
        raise AssertionError("an empty gap set needs no matrix")
    for name in ("assemble", "assemble_dd", "dd_det"):
        monkeypatch.setattr("gapdet.fredholm." + name, refuse)
    for sigma in (0.0, -7.0, -9.0):
        e = tacnode_gap_ratio(GapSpec([[]]), TacnodeParams(sigma, (0.0,)))
        assert e.parts["route"] == "float64"
        assert e.parts["rounding_floor"] == 0.0
        assert e.value == 1.0
        assert e.m_used == (80,) * (3 if sigma < 0.0 else 2)
    # the direct route needs no edge restriction, which is singular to
    # float64 at sigma = -7 and -9
    for sigma in (0.0, -7.0, -9.0):
        direct = tacnode_gap_direct(GapSpec([[]]),
                                    TacnodeParams(sigma, (0.0,)))
        assert direct.value == 1.0
        assert direct.m_used == ()


def test_tacnode_unit_weight_gives_one():
    # zero gap columns leave the gap block's Schur complement at I
    z_f64 = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 1.0)]]),
                              TacnodeParams(0.0, (0.0,)))
    assert z_f64.value == 1.0
    z_deep = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 1.0)]]),
                               TacnodeParams(-4.0, (0.0,)))
    assert z_deep.parts["route"] == "float64"
    assert z_deep.value == 1.0
    # a tolerance below the float64 floor (about 2.4e-9 here) sends the
    # same row through the double-double assembly's zero column weights
    z_dd = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 1.0)]]),
                             TacnodeParams(-4.0, (0.0,)), tol=1e-11)
    assert z_dd.parts["route"] == "double-double"
    assert z_dd.value == 1.0


def test_tacnode_time_reflection_invariance():
    a = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                          TacnodeParams(0.5, (0.7,)))
    b = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                          TacnodeParams(0.5, (-0.7,)))
    assert abs(a.real - b.real) <= 1e-8
    assert_allclose(a.real, 0.9403785387981144, rtol=0, atol=5e-13)


def test_tacnode_complex_weight_stays_on_float64():
    # at sigma = -4 the float64 rounding floor is within the tolerance, so
    # a complex weight, which has no double-double route, is computed
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0, 0.5j)]]),
                            TacnodeParams(-4.0, (0.0,)))
    assert res.parts["route"] == "float64"
    assert res.err_estimate <= 1e-8


def test_tacnode_complex_weight_instability_is_reported():
    # complex weights have no double-double route, and at sigma = -5 the
    # float64 rounding floor of the ratio exceeds the tolerance
    spec = GapSpec([[(-1.0, 1.0, 0.5j)]])
    with pytest.raises(DivisionInstabilityError) as info:
        tacnode_gap_ratio(spec, TacnodeParams(-5.0, (0.0,)))
    assert info.value.tol == 1e-8
    assert info.value.rounding_floor > info.value.tol


def test_tacnode_route_follows_rounding_floor():
    # at sigma = -3.5 the float64 floor eps (1/rcond_num + 1/rcond_den) is
    # about 2e-10: within a tolerance of 1e-8, beyond one of 1e-13
    spec = GapSpec([[(-1.0, 1.0)]])
    par = TacnodeParams(-3.5, (0.0,))
    f64 = tacnode_gap_ratio(spec, par, tol=1e-8)
    assert f64.parts["route"] == "float64"
    floor = f64.parts["rounding_floor"]
    assert 1e-13 < floor <= 1e-8
    assert floor == 2.0 ** -52 * (1.0 / f64.parts["rcond_numerator"]
                                  + 1.0 / f64.parts["rcond_denominator"])
    dd = tacnode_gap_ratio(spec, par, tol=1e-13)
    assert dd.parts["route"] == "double-double"
    assert dd.parts["rounding_floor"] == floor
    # the double-double row carries the float64 rconds that chose it
    assert dd.parts["rounding_floor"] == 2.0 ** -52 * (
        1.0 / dd.parts["rcond_numerator"]
        + 1.0 / dd.parts["rcond_denominator"])


def test_tacnode_float64_err_estimate_bounds_rounding():
    # at sigma = -4 float64 keeps about 11 digits of the ratio; its
    # estimate, floored at rounding_floor |value|, covers the distance to
    # a double-double value converged to 1e-13
    spec = GapSpec([[(-1.0, 1.0)]])
    par = TacnodeParams(-4.0, (0.0,))
    f64 = tacnode_gap_ratio(spec, par)
    dd = tacnode_gap_ratio(spec, par, tol=1e-13)
    assert f64.parts["route"] == "float64"
    assert dd.parts["route"] == "double-double"
    assert f64.err_estimate >= f64.parts["rounding_floor"] * abs(f64.real)
    assert abs(f64.real - dd.real) <= f64.err_estimate


def test_tacnode_sigma_window():
    spec = GapSpec([[(-1.0, 1.0)]])
    with pytest.raises(DomainError):
        tacnode_gap_ratio(spec, TacnodeParams(-9.5, (0.0,)))
    with pytest.raises(DomainError):
        tacnode_gap_direct(spec, TacnodeParams(9.5, (0.0,)))
    # past sigma ~ 14 the tail envelope falls below sigma_tilde, and the
    # cutoff must still leave the edge [sigma_tilde, cutoff] a proper
    # interval
    for sigma in (9.5, 26.0, 30.0, 60.0):
        par = TacnodeParams(sigma, (0.0,))
        forced = tacnode_gap_ratio(spec, par, force_sigma=True)
        direct = tacnode_gap_direct(spec, par, force_sigma=True)
        assert_allclose(forced.real, 1.0, rtol=0, atol=1e-9)
        assert abs(forced.real - direct.real) <= 1e-9
    assert abs(SIGMA_WINDOW) == 9.0


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
    g = generating_function([(-1.0, 1.0)])
    a = airy_gap([(-1.0, 1.0)])
    assert g.real == a.real
    assert_allclose(g.real, 0.8096707158102225, rtol=0, atol=5e-13)


def test_generating_function_pinned_half_weight():
    g = generating_function([(0.0, 2.0, 0.5)])
    assert_allclose(g.real, 0.984742050341916, rtol=0, atol=5e-13)
    # same determinant through explicit column weights on the base kernel
    twin = fredholm_det(AiryKernel([DomainComponent.finite(0.0, 2.0)], [0.5]))
    assert g.real == twin.real


def test_generating_function_unit_weight_gives_one():
    g = generating_function([(-1.0, 1.0, 1.0)])
    assert g.real == 1.0
    assert g.value.imag == 0.0


def test_generating_function_ray_matches_tracy_widom():
    g = generating_function([(0.0, math.inf)])
    assert g.real == tracy_widom_F2(0.0).real


def test_generating_function_validation():
    with pytest.raises(DomainError):
        generating_function([(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(DomainError):
        generating_function([(0.0, 1.0, 0.3, 0.4)])
    with pytest.raises(DomainError, match=r"\[0\.0, 1\.0\]"):
        generating_function([(0.0, 1.0, math.inf)])


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
        _check_probability(det_result(0.5 + 1e-6j),
                           "imaginary contamination")
