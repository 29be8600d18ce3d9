"""Double-double arithmetic and special functions against mpmath.

Every tolerance here is relative to the oracle value computed at 50
significant digits; a normalized double-double carries roughly 32.
"""

import mpmath as mp
import numpy as np
import pytest

from gapdet import ddmath
from gapdet.ddmath import (
    DD_CBRT2,
    DD_LN2,
    DD_PI,
    DD_TWO_SIXTH,
    dd_add,
    dd_airy_ai,
    dd_airy_shifted,
    dd_det,
    dd_div,
    dd_exp,
    dd_from_float,
    dd_gauss_legendre,
    dd_heat_kernel,
    dd_mul,
    dd_neg,
    dd_sqrt,
    dd_sub,
)
from gapdet.errors import DivisionInstabilityError, DomainError
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
    assert rel_err(DD_TWO_SIXTH, mp.power(2, mp.mpf(1) / 6)) < 1e-32
    assert rel_err(DD_CBRT2, mp.power(2, mp.mpf(1) / 3)) < 1e-32


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
    ai = dd_airy_ai(sdd(x))
    # relative to the local amplitude, which the asymptotic envelope tracks;
    # below x = 16 the anchor table carries the seed's ~5e-32 error
    amp = max(abs(mp.airyai(x)), abs(mp.airyai(x, 1)), mp.mpf("1e-300"))
    bound = 1e-31 if x < 16.0 else 1e-27
    assert rel_err(ai, mp.airyai(x)) * abs(mp.airyai(x)) / amp < bound


def test_airy_pair_guards_and_tail():
    with pytest.raises(DomainError):
        dd_airy_ai(sdd(-30.5))
    ai = dd_airy_ai(sdd(800.0))
    assert float(np.asarray(ai[0])) == 0.0
    assert float(np.asarray(ai[1])) == 0.0


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
    det = dd_det(a, np.zeros_like(a))
    got = mp.mpf(det[0]) + mp.mpf(det[1])
    truth = mp.det(mp.matrix(a.tolist()))
    assert abs(got - truth) / abs(truth) < mp.mpf("1e-28")


def test_det_exact_zero_for_singular_matrix():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    det = dd_det(a, np.zeros_like(a))
    assert det[0] == 0.0 and det[1] == 0.0


def test_det_lead_gives_leading_schur_complement():
    # the first column's largest entry lies below the leading block, so a
    # pivot search over all rows would not leave its Schur complement
    rng = np.random.default_rng(20261018)
    n, k = 8, 3
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a[6, 0] = 5.0
    zero = np.zeros_like(a)
    det = dd_det(a, zero, lead=k)
    want = np.linalg.det(a) / np.linalg.det(a[:k, :k])
    assert abs(det[0] - want) <= 1e-13 * abs(want)
    assert dd_det(a, zero, lead=0) == dd_det(a, zero)
    plain = dd_det(a, zero)
    assert abs(plain[0] - np.linalg.det(a)) <= 1e-13 * abs(np.linalg.det(a))
    det = dd_det(a, zero, lead=n)
    assert det[0] == 1.0 and det[1] == 0.0
    a[0, :k] = 0.0      # a singular leading block has no Schur complement
    with pytest.raises(DivisionInstabilityError):
        dd_det(a, zero, lead=k)


# ------------------------------------------------ dd_det against its oracle

def rank1_dd_det(a_hi, a_lo, lead=0):
    """Reference LU for dd_det's bits: the same pivoting, with the trailing
    update as one dd_mul and one dd_sub over the whole trailing block per
    pivot.  dd_det's in-place update in row blocks must match it exactly."""
    hi = np.array(a_hi, dtype=float, copy=True)
    lo = np.array(a_lo, dtype=float, copy=True)
    n = hi.shape[0]
    det = (1.0, 0.0)
    sign = 1.0
    for k in range(n):
        rows = lead if k < lead else n
        p = int(np.argmax(np.abs(hi[k:rows, k]))) + k
        if hi[p, k] == 0.0 and lo[p, k] == 0.0:
            if k < lead:
                raise DivisionInstabilityError(
                    "leading %d x %d block is singular at the working "
                    "precision" % (lead, lead))
            return 0.0, 0.0
        if p != k:
            hi[[k, p], k:] = hi[[p, k], k:]
            lo[[k, p], k:] = lo[[p, k], k:]
            if k >= lead:       # a leading swap flips both determinants
                sign = -sign
        piv = (hi[k, k], lo[k, k])
        if k >= lead:
            det = dd_mul(det, piv)
        if k + 1 < n:
            col = (hi[k + 1:, k], lo[k + 1:, k])
            mult = dd_div(col, piv)
            prod = dd_mul((mult[0][:, None], mult[1][:, None]),
                          (hi[k, k + 1:][None, :], lo[k, k + 1:][None, :]))
            blk = dd_sub((hi[k + 1:, k + 1:], lo[k + 1:, k + 1:]), prod)
            hi[k + 1:, k + 1:] = blk[0]
            lo[k + 1:, k + 1:] = blk[1]
    return sign * float(det[0]), sign * float(det[1])


def bits(pair):
    return np.array(pair, dtype=float).view(np.uint64).tolist()


def dd_matrix(rng, n, diag=0.0):
    """A seeded normalized double-double matrix whose every lo word is
    nonzero, with ``diag`` added to its diagonal."""
    hi = rng.uniform(-1.0, 1.0, size=(n, n)) + diag * np.eye(n)
    return hi, rng.uniform(-0.25, 0.25, size=(n, n)) * np.spacing(hi)


def assert_matches_oracle(hi, lo, lead):
    """Same bits as the oracle, and the caller's words left as they were."""
    hi_before, lo_before = hi.copy(), lo.copy()
    got = dd_det(hi, lo, lead)
    assert np.array_equal(hi, hi_before) and np.array_equal(lo, lo_before)
    assert bits(got) == bits(rank1_dd_det(hi, lo, lead))
    return got


BLOCK = ddmath._DET_BLOCK
# one row, a trailing block smaller than one row block, one and two rows
# past a block boundary, and a first trailing update over three blocks
DET_SIZES = [1, BLOCK - 5, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 7]


@pytest.mark.parametrize("n", DET_SIZES)
def test_det_blocked_update_reproduces_rank1_bits(n):
    hi, lo = dd_matrix(np.random.default_rng(17000 + n), n)
    assert np.count_nonzero(lo) == n * n
    for lead in sorted({0, n // 3, n}):
        assert_matches_oracle(hi, lo, lead)


def test_det_row_swaps_inside_and_after_the_leading_phase():
    # D is strictly diagonally dominant by columns, so partial pivoting on
    # D never swaps; with its leading and trailing rows each reversed, every
    # pivot search of P D must swap D's row back, in the leading phase and
    # after it.  The eliminations are the same up to row order, so the
    # result is D's determinant with the sign of the trailing reversal,
    # (n - lead) // 2 transpositions, chosen odd.
    n, lead = BLOCK + 9, 7
    assert (n - lead) // 2 % 2 == 1
    hi, lo = dd_matrix(np.random.default_rng(17101), n, diag=n + 1.0)
    perm = np.r_[np.arange(lead)[::-1], np.arange(lead, n)[::-1]]
    plain = assert_matches_oracle(hi, lo, lead)
    swapped = assert_matches_oracle(hi[perm], lo[perm], lead)
    assert bits(swapped) == bits((-plain[0], -plain[1]))


def test_det_zero_trailing_pivot_and_singular_lead():
    n, lead = BLOCK + 5, 4
    hi, lo = dd_matrix(np.random.default_rng(17202), n)
    # a zero column stays exactly zero through every update
    hi[:, n - 3] = 0.0
    lo[:, n - 3] = 0.0
    assert assert_matches_oracle(hi, lo, lead) == (0.0, 0.0)
    # a zero row of the leading block leaves it singular
    hi, lo = dd_matrix(np.random.default_rng(17203), n)
    hi[1, :lead] = 0.0
    lo[1, :lead] = 0.0
    for det in (dd_det, rank1_dd_det):
        with pytest.raises(DivisionInstabilityError):
            det(hi, lo, lead)


def test_det_rejects_malformed_input():
    a = np.eye(3)
    zero = np.zeros_like(a)
    cases = [(np.ones((2, 3)), np.zeros((2, 3)), 0),       # not square
             (np.ones(3), np.zeros(3), 0),                 # not a matrix
             (a, np.zeros((3, 2)), 0),                     # word shapes
             (a, zero, -1), (a, zero, 4),                  # lead range
             (np.where(a == 1.0, np.nan, a), zero, 0),     # NaN hi word
             (a, np.where(a == 1.0, np.inf, zero), 0)]     # inf lo word
    for hi, lo, lead in cases:
        with pytest.raises(DomainError):
            dd_det(hi, lo, lead)
