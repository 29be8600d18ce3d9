"""Tests for the Airy evaluator, the shifted variant and the small helpers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet.errors import DomainError
from gapdet.quadrature import gauss_legendre, map_contour_right
from gapdet.specfun import (
    AIRY_WINDOW_MIN,
    airy_ai,
    airy_ai_prime,
    airy_shifted,
    heat_kernel,
    load_airy_golden,
    pearcey_phase,
)

TWO_SIXTH = 2.0 ** (1.0 / 6.0)


# ---------------------------------------------------------------------------
# Point values

def test_airy_at_zero_closed_form():
    # Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    assert_allclose(airy_ai(0.0), ai0, rtol=0, atol=1e-15)
    assert_allclose(airy_ai_prime(0.0), aip0, rtol=0, atol=1e-15)


def test_airy_matches_golden_table():
    x, ai, aip = load_airy_golden()
    assert x.shape == ai.shape == aip.shape
    assert x[0] == -15.0 and x[-1] == 30.0
    assert_allclose(airy_ai(x), ai, rtol=0, atol=1e-14)
    assert_allclose(airy_ai_prime(x), aip, rtol=0, atol=1e-14)
    # on the decaying side the error must also be small relative to Ai
    # itself; the anchor ladder reaches 16
    pos = (x > 0.0) & (x < 16.0)
    assert_allclose(airy_ai(x[pos]), ai[pos], rtol=1e-14, atol=0)
    assert_allclose(airy_ai_prime(x[pos]), aip[pos], rtol=1e-14, atol=0)


def test_airy_vectorized_matches_scalar():
    xs = np.array([-9.3, -1.0, 0.0, 2.2, 11.5])
    assert_allclose(airy_ai(xs), [airy_ai(float(v)) for v in xs],
                    rtol=0, atol=0)


def test_airy_asymptotic_tail():
    # leading-order decay Ai(x) ~ exp(-(2/3) x^(3/2)) / (2 sqrt(pi) x^(1/4))
    x = 20.0
    lead = math.exp(-(2.0 / 3.0) * x ** 1.5) / (2.0 * math.sqrt(math.pi)
                                                * x ** 0.25)
    assert_allclose(airy_ai(x), lead, rtol=1e-2)


def test_airy_branch_seams_are_smooth():
    # the evaluator hands over to the asymptotic series at 16 and from one
    # Taylor anchor to the next halfway between anchors; after removing
    # the function's own slope, any mismatch would show up as a jump
    # across the switch point
    h = 1e-9
    for seam in (16.0, 3.625, -0.125, -9.125, -29.875):
        jump = airy_ai(seam + h) - airy_ai(seam - h) \
            - 2.0 * h * airy_ai_prime(seam)
        assert abs(jump) < 1e-12


# ---------------------------------------------------------------------------
# ODE and derivative properties

def test_airy_ode_residual_on_grid():
    h = 1e-4
    xs = np.linspace(-10.0, 10.0, 50)
    second = (airy_ai(xs + h) - 2.0 * airy_ai(xs) + airy_ai(xs - h)) / h ** 2
    resid = second - xs * airy_ai(xs)
    assert np.max(np.abs(resid)) < 1e-6


def test_airy_prime_matches_difference_quotient():
    h = 1e-6
    for x in (-3.0, 0.0, 3.0):
        quot = (airy_ai(x + h) - airy_ai(x - h)) / (2.0 * h)
        assert_allclose(airy_ai_prime(x), quot, rtol=0, atol=1e-6)


def test_airy_monotone_decay_on_positive_axis():
    xs = np.linspace(1.0, 20.0, 39)
    vals = airy_ai(xs)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


def test_airy_window_rejected_below_minimum():
    assert AIRY_WINDOW_MIN == -30.0
    airy_ai(-30.0)  # boundary is inside the window
    with pytest.raises(DomainError):
        airy_ai(-30.0000001)
    with pytest.raises(DomainError):
        airy_ai(np.array([0.0, -31.0]))


# ---------------------------------------------------------------------------
# Shifted Airy function

def test_shifted_at_tau_zero_is_scaled_airy():
    xs = np.linspace(-5.0, 5.0, 21)
    ratio = airy_shifted(0.0, xs) / airy_ai(xs)
    # pure prefactor at tau = 0, so the ratio is exact up to one rounding
    assert np.max(np.abs(ratio / TWO_SIXTH - 1.0)) < 1e-15


def test_shifted_unwinds_to_definition():
    for tau, x in ((1.0, 0.0), (-0.4, 2.3), (1.7, -1.2)):
        direct = TWO_SIXTH * math.exp(tau * x + 2.0 * tau ** 3 / 3.0) \
            * airy_ai(x + tau * tau)
        assert_allclose(airy_shifted(tau, x), direct, rtol=1e-13)


def test_shifted_against_contour_integral():
    # independent route: 2^(1/6)/(2 pi i) times the contour integral of
    # exp(z^3/3 + tau z^2 - z x) over the right hyperbola; the map runs
    # downward, the convention runs upward, hence the sign flip
    rule = gauss_legendre(200)
    z, dz = map_contour_right(rule.nodes)
    for tau, x in ((0.5, 2.0), (-0.8, 1.0), (0.0, 1.3)):
        f = np.exp(z ** 3 / 3.0 + tau * z * z - z * x)
        val = -np.sum(rule.weights * dz * f) / (2j * np.pi) * TWO_SIXTH
        assert abs(val.imag) < 1e-12
        assert_allclose(val.real, airy_shifted(tau, x), rtol=0, atol=1e-9)


def test_shifted_survives_huge_prefactor():
    # tau*x + 2 tau^3/3 alone overflows exp, but the Airy decay wins
    val = airy_shifted(12.0, 60.0)
    assert np.isfinite(val)
    assert val > 0.0


def test_shifted_overflow_raises():
    # a large negative tau against x chosen so the Airy argument stays
    # moderate: the prefactor alone exceeds the float range
    with pytest.raises(OverflowError):
        airy_shifted(-40.0, -1600.0)


# ---------------------------------------------------------------------------
# Gaussian factor and the quartic phase

@pytest.mark.parametrize("dt", [0.1, 1.0, 10.0])
def test_heat_kernel_normalization(dt):
    half = 12.0 * math.sqrt(dt)
    rule = gauss_legendre(200)
    y = -half + 2.0 * half * rule.nodes
    total = 2.0 * half * np.sum(rule.weights * heat_kernel(dt, 0.0, y))
    assert_allclose(total, 1.0, rtol=0, atol=1e-10)


def test_heat_kernel_peak_and_symmetry():
    assert_allclose(heat_kernel(1.0, 0.3, 0.3),
                    1.0 / math.sqrt(4.0 * math.pi), rtol=1e-15)
    assert heat_kernel(0.5, 0.1, 0.9) == heat_kernel(0.5, 0.9, 0.1)
    with pytest.raises(DomainError):
        heat_kernel(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        heat_kernel(-1.0, 0.0, 0.0)


def test_pearcey_phase_values():
    assert pearcey_phase(0.0, 3.0) == 0.0
    # on the imaginary axis the quartic phase is real
    val = pearcey_phase(1.5j, 1.0)
    assert_allclose(val.real, 1.5 ** 4 / 4.0 + 0.5 * 1.5 ** 2, rtol=1e-15)
    assert val.imag == 0.0
    arr = pearcey_phase(np.array([1.0, 2.0]), 0.0)
    assert_allclose(arr, [0.25, 4.0], rtol=1e-15)
