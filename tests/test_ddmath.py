"""Double-double arithmetic and special functions against mpmath.

Every tolerance here is relative to the oracle value computed at 50
significant digits; a normalized double-double carries roughly 32.
"""

from fractions import Fraction

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


# ---------------------------------------------- dd_matmul against its oracles

def pairwise_dd_matmul(a, b):
    """Reference for dd_matmul: every term a[r, l] b[l, c] one dd_mul, the
    k terms of each entry summed by dd_add in a balanced tree.  A product
    rounds by at most 2^-103 |a[r, l] b[l, c]| and a tree level by at most
    2^-104 sum_l |a[r, l] b[l, c]|, so its own error is below
    (depth + 2) 2^-104 times that sum, with depth = ceil(log2 k)."""
    terms = [dd_mul((a[0][:, l, None], a[1][:, l, None]),
                    (b[0][None, l], b[1][None, l]))
             for l in range(a[0].shape[1])]
    while len(terms) > 1:
        pairs = [dd_add(x, y) for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0]


def spread_dd_matrix(rng, rows, cols, positive=False):
    """Seeded normalized pair whose rows are scaled across 1e-30..1e3; every
    lo word of a nonzero hi word is nonzero.  ``positive`` rows hold
    entries in [0.875, 1) times a power of two, so they fill the top of
    their binade."""
    if positive:
        hi = np.ldexp(rng.uniform(0.875, 1.0, size=(rows, cols)),
                      rng.integers(-99, 10, size=(rows, 1)))
    else:
        hi = rng.uniform(-1.0, 1.0, size=(rows, cols)) \
            * 10.0 ** rng.uniform(-30.0, 3.0, size=(rows, 1))
    return hi, rng.uniform(-0.25, 0.25, size=(rows, cols)) * np.spacing(hi)


def matmul_operands(k, seed, positive=False):
    """a (5 x k) with rows over 1e-30..1e3 and a zero row; b (k x 4) with
    columns over the same span and a zero column."""
    rng = np.random.default_rng(seed)
    a = spread_dd_matrix(rng, 5, k, positive=positive)
    bt = spread_dd_matrix(rng, 4, k, positive=positive)
    b = (bt[0].T.copy(), bt[1].T.copy())
    for w in a:
        w[3] = 0.0
    for w in b:
        w[:, 1] = 0.0
    return a, b


def fraction_matrix(pair):
    return [[Fraction(float(h)) + Fraction(float(l)) for h, l in zip(*rows)]
            for rows in zip(*pair)]


def stated_bound(a, b):
    """dd_matmul's bound 2^-104 k max|a[r]| max|b[:, c]| per entry."""
    k = a[0].shape[1]
    return 2.0 ** -104 * k * np.max(np.abs(a[0]), axis=1)[:, None] \
        * np.max(np.abs(b[0]), axis=0)[None, :]


@pytest.mark.parametrize("k, positive", [(3, False), (47, False),
                                         (640, True)])
def test_matmul_slices_and_their_gemms_are_exact(k, positive):
    # with entries at the top of their binade the slice-1 products of
    # k = 640 sum to about 2^51 units; one more bit of slice width would
    # carry them past 2^53
    a, b = matmul_operands(k, 18000 + k, positive)
    beta = ddmath._slice_width(k)
    s = ddmath._slice_count(beta)
    assert k << (2 * beta) <= 1 << 53
    ea = ddmath._exponents(a[0], 1)[:, None]
    eb = ddmath._exponents(b[0], 0)[None, :]
    sa = ddmath._slices(np.ldexp(a[0], -ea), np.ldexp(a[1], -ea), beta, s)
    sb = ddmath._slices(np.ldexp(b[0], -eb), np.ldexp(b[1], -eb), beta, s)
    fa = [fraction_matrix((p, np.zeros_like(p))) for p in sa]
    fb = [fraction_matrix((p, np.zeros_like(p))) for p in sb]
    rest_bound = Fraction(2) ** (-beta * s) \
        * (Fraction(1, 2) + Fraction(2) ** (beta - 54))
    for sl, fsl, (hi, lo), e in ((sa, fa, a, ea), (sb, fb, b, eb)):
        # slice i: multiples of 2^(-beta i), at most 2^(beta (1 - i));
        # together they leave a remainder within rest_bound of the operand
        for i, piece in enumerate(sl, start=1):
            units = np.ldexp(piece, beta * i)
            assert np.array_equal(units, np.rint(units))
            assert np.max(np.abs(units)) <= 2.0 ** beta
        scaled = fraction_matrix((np.ldexp(hi, -e), np.ldexp(lo, -e)))
        for r, row in enumerate(scaled):
            for c, x in enumerate(row):
                assert abs(x - sum(f[r][c] for f in fsl)) <= rest_bound
    # each GEMM against the exact product, in integer units of its level
    ia = [np.ldexp(p, beta * i).astype(np.int64).astype(object)
          for i, p in enumerate(sa, start=1)]
    ib = [np.ldexp(p, beta * j).astype(np.int64).astype(object)
          for j, p in enumerate(sb, start=1)]
    for i in range(s):
        for j in range(s - i):
            got = np.ldexp(sa[i] @ sb[j], beta * (i + j + 2))
            assert np.array_equal(got.astype(np.int64).astype(object),
                                  ia[i] @ ib[j])
            assert np.array_equal(got, np.rint(got))


@pytest.mark.parametrize("k", [1, 47, 320, 640])
def test_matmul_within_its_bound_of_the_exact_and_elementwise_products(k):
    a, b = matmul_operands(k, 18100 + k)
    got = ddmath.dd_matmul(a, b)
    bound = stated_bound(a, b)
    assert not got[0][3].any() and not got[0][:, 1].any()
    assert not got[1][3].any() and not got[1][:, 1].any()
    ref = pairwise_dd_matmul(a, b)
    depth = int(np.ceil(np.log2(k)))
    slack = (depth + 2) * 2.0 ** -104 * (np.abs(a[0]) @ np.abs(b[0]))
    diff = (got[0] - ref[0]) + (got[1] - ref[1])
    assert np.all(np.abs(diff) <= bound + slack)
    # against the exact product, on the first two rows
    fa, fb = fraction_matrix(a), fraction_matrix(b)
    for r in (0, 1):
        for c in range(4):
            exact = sum(fa[r][l] * fb[l][c] for l in range(k))
            err = Fraction(float(got[0][r, c])) \
                + Fraction(float(got[1][r, c])) - exact
            assert abs(err) <= Fraction(float(bound[r, c]))


def test_matmul_of_an_empty_inner_dimension_is_zero():
    got = ddmath.dd_matmul((np.ones((3, 0)), np.zeros((3, 0))),
                           (np.ones((0, 2)), np.zeros((0, 2))))
    assert np.array_equal(got[0], np.zeros((3, 2)))
    assert np.array_equal(got[1], np.zeros((3, 2)))


def test_matmul_rejects_malformed_input():
    a = (np.ones((2, 3)), np.zeros((2, 3)))
    b = (np.ones((3, 2)), np.zeros((3, 2)))
    cases = [((np.ones(3), np.zeros(3)), b),                  # not a matrix
             (a, (np.ones((2, 2)), np.zeros((2, 2)))),         # k differs
             ((a[0], np.zeros((2, 2))), b),                    # word shapes
             (a, (b[0], np.zeros((2, 3)))),
             ((np.where(a[0] == 1.0, np.nan, 0.0), a[1]), b),  # NaN hi word
             (a, (b[0], np.full((3, 2), np.inf)))]             # inf lo word
    for x, y in cases:
        with pytest.raises(DomainError):
            ddmath.dd_matmul(x, y)
