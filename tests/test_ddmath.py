"""Double-double arithmetic and special functions against mpmath.

Every tolerance here is relative to the oracle value computed at 50
significant digits; a normalized double-double carries roughly 32.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from gapdet.ddmath import (
    DD_LN2,
    DD_PI,
    dd_add,
    dd_airy_pair,
    dd_airy_shifted,
    dd_det,
    dd_div,
    dd_exp,
    dd_from_float,
    dd_gauss_legendre,
    dd_heat_kernel,
    dd_mul,
    dd_neg,
    dd_roots_of_two,
    dd_sqrt,
    dd_sub,
)
from gapdet.errors import DomainError
from gapdet.quadrature import gauss_legendre

mp.mp.dps = 50


def to_mp(pair):
    hi = np.asarray(pair[0]).reshape(-1)
    lo = np.asarray(pair[1]).reshape(-1)
    return [mp.mpf(float(h)) + mp.mpf(float(l)) for h, l in zip(hi, lo)]


def rel_err(pair, truth):
    got = to_mp(pair)
    truth = [truth] if not isinstance(truth, list) else truth
    worst = mp.mpf(0)
    for g, t in zip(got, truth):
        denom = abs(t) if t != 0 else mp.mpf(1)
        worst = max(worst, abs(g - t) / denom)
    return float(worst)


def sdd(x):
    v = np.asarray(float(x))
    return v, np.zeros_like(v)


def test_from_to_float_round_trip():
    x = np.array([0.1, -3.7, 1e-200])
    hi, lo = dd_from_float(x)
    assert np.all(hi == x)
    assert np.all(lo == 0.0)
    assert np.all(hi + lo == x)


def test_addition_captures_the_rounding_error():
    # 0.1 + 0.2 in float64 misses the exact sum by ~2.8e-17; the double-double
    # sum must carry that residue in the low word
    a, b = sdd(0.1), sdd(0.2)
    s = dd_add(a, b)
    truth = mp.mpf(0.1) + mp.mpf(0.2)
    assert rel_err(s, truth) < 1e-32
    assert float(np.asarray(s[1])) != 0.0


@pytest.mark.parametrize("x,y", [(0.1, 0.3), (-2.75, 1.0 / 3.0),
                                 (1e8, 1e-8), (12.5, -12.5000001)])
def test_field_operations_match_mpmath(x, y):
    mx, my = mp.mpf(x), mp.mpf(y)
    assert rel_err(dd_add(sdd(x), sdd(y)), mx + my) < 5e-32
    assert rel_err(dd_sub(sdd(x), sdd(y)), mx - my) < 5e-32
    assert rel_err(dd_mul(sdd(x), sdd(y)), mx * my) < 5e-32
    assert rel_err(dd_div(sdd(x), sdd(y)), mx / my) < 5e-31
    assert rel_err(dd_neg(sdd(x)), -mx) == 0.0


def test_sqrt_and_exp_match_mpmath():
    for x in (0.5, 2.0, 123.456, 1e-12):
        assert rel_err(dd_sqrt(sdd(x)), mp.sqrt(x)) < 5e-31
    for x in (-1.0, 0.0, 0.5, 10.0, -40.0, 300.0):
        assert rel_err(dd_exp(sdd(x)), mp.exp(x)) < 5e-30


def test_constants():
    assert rel_err(DD_LN2, mp.log(2)) < 1e-32
    assert rel_err(DD_PI, mp.pi) < 1e-32


def test_roots_of_two():
    roots = dd_roots_of_two()
    for pair, p in zip(roots, (mp.mpf(1) / 6, mp.mpf(1) / 3, mp.mpf(2) / 3)):
        assert rel_err(pair, mp.power(2, p)) < 5e-31


def test_gauss_legendre_nodes_refine_the_float64_rule():
    base = gauss_legendre(24)
    t, w = dd_gauss_legendre(24)
    assert np.max(np.abs(t[0] - base.nodes)) < 1e-15
    assert np.max(np.abs(w[0] - base.weights)) < 1e-15


def test_gauss_legendre_moments_in_double_double():
    # exactness on (0, 1): sum w t^k = 1/(k+1), held to double-double level
    t, w = dd_gauss_legendre(24)
    for k in range(9):
        acc = mp.mpf(0)
        tk = to_mp(t)
        wk = to_mp(w)
        for node, weight in zip(tk, wk):
            acc += weight * node ** k
        assert abs(acc - mp.mpf(1) / (k + 1)) < mp.mpf("1e-30")


@pytest.mark.parametrize("x", [-29.5, -10.0, -2.5, 0.0, 1.0, 4.0, 10.0,
                               30.0, 60.0])
def test_airy_pair_matches_mpmath(x):
    ai, aip = dd_airy_pair(sdd(x))
    # relative to the local amplitude, which the asymptotic envelope tracks
    amp = max(abs(mp.airyai(x)), abs(mp.airyai(x, 1)), mp.mpf("1e-300"))
    assert rel_err(ai, mp.airyai(x)) * abs(mp.airyai(x)) / amp < 1e-27
    assert rel_err(aip, mp.airyai(x, 1)) * abs(mp.airyai(x, 1)) / amp < 1e-27


def test_airy_pair_guards_and_tail():
    with pytest.raises(DomainError):
        dd_airy_pair(sdd(-30.5))
    ai, aip = dd_airy_pair(sdd(800.0))
    assert float(np.asarray(ai[0])) == 0.0
    assert float(np.asarray(aip[0])) == 0.0


def test_airy_shifted_matches_mpmath():
    for tau, x in ((0.0, 1.0), (0.3, -2.0), (-1.5, 4.0), (2.0, 6.0)):
        got = dd_airy_shifted((tau, 0.0), sdd(x))
        t, xx = mp.mpf(tau), mp.mpf(x)
        truth = mp.power(2, mp.mpf(1) / 6) * mp.exp(t * xx + 2 * t ** 3 / 3) \
            * mp.airyai(xx + t * t)
        assert rel_err(got, truth) < 1e-26


def test_airy_shifted_overflow_guard():
    with pytest.raises(OverflowError):
        dd_airy_shifted((-40.0, 0.0), sdd(-1600.0))


def test_heat_kernel_matches_mpmath():
    got = dd_heat_kernel((1.0, 0.0), sdd(0.3), sdd(-0.9))
    # the oracle must take the exact float64 inputs, not the decimal 1.2
    d = mp.mpf(0.3) - mp.mpf(-0.9)
    truth = mp.exp(-d ** 2 / 4) / mp.sqrt(4 * mp.pi)
    assert rel_err(got, truth) < 1e-30
    with pytest.raises(DomainError):
        dd_heat_kernel((0.0, 0.0), sdd(0.0), sdd(1.0))


def test_det_matches_mpmath_on_seeded_matrix():
    rng = np.random.default_rng(20240815)
    a = rng.uniform(-1.0, 1.0, size=(5, 5))
    mant, exp2 = dd_det(a, np.zeros_like(a))
    got = (mp.mpf(mant[0]) + mp.mpf(mant[1])) * mp.power(2, exp2)
    truth = mp.det(mp.matrix(a.tolist()))
    assert 0.5 <= abs(mant[0]) < 1.0
    assert abs(got - truth) / abs(truth) < mp.mpf("1e-28")


def test_det_mantissa_exponent_split_survives_underflow():
    # a determinant of 2^-1200 cannot live in float64; the split must
    a = np.diag([2.0 ** -600, 2.0 ** -600])
    mant, exp2 = dd_det(a, np.zeros_like(a))
    assert mant[0] == 0.5
    assert mant[1] == 0.0
    assert exp2 == -1199
    assert math.ldexp(mant[0], exp2 + 1200) == 1.0


def test_det_exact_zero_for_singular_matrix():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    mant, exp2 = dd_det(a, np.zeros_like(a))
    assert mant[0] == 0.0 and mant[1] == 0.0
    assert exp2 == 0
