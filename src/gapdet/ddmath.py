"""Double-double arithmetic for determinants beyond float64 reach.

The relative sensitivity of det(I - K) to a perturbation of the matrix is
about 1/(1 - lambda_0), where lambda_0 is the top eigenvalue of the
discretized operator.  For the Airy operator restricted to [s, oo) the gap
closes like 1 - lambda_0 ~ exp(-(2*sqrt(2)/3)*|s|^(3/2)), so by s ~ -14 the
sensitivity reaches ~1e22 and float64 cannot produce the answer no matter
how the computation is organized: both the kernel entries and the linear
algebra need roughly 25 significant digits end to end.

This module supplies those digits.  A value is a "double-double" pair
(hi, lo) of float64 arrays with hi = fl(hi + lo) and |lo| <= ulp(hi)/2,
carrying ~31 decimal digits.  All arithmetic is built from the classical
error-free transforms (TwoSum, Dekker split / TwoProd) applied to numpy
arrays, so matrix assembly is vectorized.  Matrix products are exact
float64 GEMMs of split operands, summed in double-double.  On one core of
an Intel Xeon server the LU determinant of order n = 320 takes about 0.2 s
and the product of two such matrices about 0.04 s, where an
arbitrary-precision library needs minutes to hours.  On top of the
arithmetic sit the few special values the deep-gap path needs:
Gauss-Legendre rules, the Airy function Ai, the shifted Airy function, the
Gaussian transition factor, a matrix product and an LU determinant.
Together they serve the tacnode ratio det S: the product eliminates the
ratio matrix's identity edge block, and the LU factors what is left.  det S
is a number of order one, so it is returned as one double-double pair.

Ai comes from a ladder of Taylor anchors spaced 0.25 apart,
seeded at x = 16 from the exponential asymptotic expansion truncated near
its optimal index (error ~ exp(-2*zeta(16)) ~ 1e-37) and marched down to
-30 through the differential equation y'' = x*y.  The ladder and the
expansion's coefficients are built once per process, on first use, and
are the only Airy tables in the package: the float64 evaluator in
:mod:`gapdet.specfun` reads their high words, through the same window
check and nearest-anchor rule.

Functions accept and return (hi, lo) tuples and assume inputs normalized.
Scalars may be passed as plain-float pairs; numpy broadcasting applies.
"""

from functools import lru_cache

import numpy as np

from .errors import DivisionInstabilityError, DomainError
from .quadrature import gauss_legendre

__all__ = [
    "dd_from_float",
    "dd_add",
    "dd_sub",
    "dd_neg",
    "dd_mul",
    "dd_div",
    "dd_sqrt",
    "dd_exp",
    "dd_gauss_legendre",
    "dd_airy_ai",
    "dd_airy_shifted",
    "dd_heat_kernel",
    "dd_matmul",
    "dd_det",
    "DD_LN2",
    "DD_PI",
    "DD_TWO_SIXTH",
    "DD_CBRT2",
]

_SPLITTER = 134217729.0            # 2^27 + 1, Dekker's constant

# hi/lo pairs of ln 2, pi, 2^(1/6) and 2^(1/3); the lo parts are the
# correctly rounded remainders, the same values every dd library ships.
DD_LN2 = (6.931471805599453e-01, 2.3190468138462996e-17)
DD_PI = (3.141592653589793e0, 1.2246467991473532e-16)
DD_TWO_SIXTH = (1.122462048309373e0, -3.578507116853557e-17)
DD_CBRT2 = (1.2599210498948732e0, -2.589933375300507e-17)

_ANCHOR_TOP = 16.0
_ANCHOR_STEP = 0.25
_WINDOW_MIN = -30.0
_N_ANCHORS = int(round((_ANCHOR_TOP - _WINDOW_MIN) / _ANCHOR_STEP)) + 1
_BUILD_ORDER = 60    # Taylor order while marching the anchor seeds
_EVAL_ORDER = 48     # Taylor order kept for runtime evaluation
_SEED_TERMS = 90     # asymptotic terms at the seed (optimal index ~ 85)
_ASYM_TERMS = 120    # asymptotic terms for runtime x >= 16
_EXP_ORDER = 16      # Taylor order of exp after four halvings
_DET_BLOCK = 48      # rows per block of dd_det's trailing update


# ------------------------------------------------------------ transforms
# Exact identities in IEEE arithmetic; numpy evaluates them as written.

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    """TwoSum specialization valid when |a| >= |b| or a == 0."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLITTER * a
    h = t - (t - a)
    return h, a - h


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# ------------------------------------------------------------- arithmetic

def dd_from_float(x):
    """Promote a float or float array to a double-double pair."""
    hi = np.asarray(x, dtype=float)
    return hi, np.zeros_like(hi)


def dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e = e + x[1] + y[1]
    return _quick_two_sum(s, e)


def dd_add_f(x, f):
    s, e = _two_sum(x[0], f)
    e = e + x[1]
    return _quick_two_sum(s, e)


def dd_neg(x):
    return -x[0], -x[1]


def dd_sub(x, y):
    s, e = _two_sum(x[0], -y[0])
    e = e + x[1] - y[1]
    return _quick_two_sum(s, e)


def dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p, e)


def dd_mul_f(x, f):
    p, e = _two_prod(x[0], f)
    e = e + x[1] * f
    return _quick_two_sum(p, e)


def dd_mul_pow2(x, f):
    """Multiply by an exact power of two (error-free)."""
    return x[0] * f, x[1] * f


def dd_sqr(x):
    p, e = _two_prod(x[0], x[0])
    e = e + 2.0 * x[0] * x[1]
    return _quick_two_sum(p, e)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_f(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_f(y, q2))
    q3 = r[0] / y[0]
    s, e = _quick_two_sum(q1, q2)
    return _quick_two_sum(s, e + q3)


def dd_sqrt(x):
    """Square root via x/r averaged with r, r the float64 estimate."""
    r = np.sqrt(x[0])
    t = dd_div(x, (r, np.zeros_like(r)))
    return dd_mul_pow2(dd_add(t, (r, np.zeros_like(r))), 0.5)


def _inv_factorials(n):
    out = [(1.0, 0.0)]
    cur = (1.0, 0.0)
    for k in range(1, n + 1):
        cur = dd_div(cur, (float(k), 0.0))
        out.append((float(cur[0]), float(cur[1])))
    return out


_INV_FACT = _inv_factorials(_EXP_ORDER)


def dd_exp(x):
    """exp(x) elementwise; relative error a few units of 1e-31.

    Range reduction exp(x) = 2^k * exp(r) with |r| <= ln2/2, four argument
    halvings, a degree-16 Taylor polynomial of expm1, then four
    double-and-square steps carried on s = exp(r') - 1 so the small part is
    never lost against the leading 1.
    """
    k = np.rint(x[0] / DD_LN2[0])
    r = dd_sub(x, dd_mul_f(DD_LN2, k))
    r = dd_mul_pow2(r, 0.0625)
    s = _INV_FACT[_EXP_ORDER]
    for j in range(_EXP_ORDER - 1, 0, -1):
        s = dd_add(dd_mul(s, r), _INV_FACT[j])
    s = dd_mul(s, r)
    for _ in range(4):
        s = dd_add(dd_mul_pow2(s, 2.0), dd_sqr(s))
    e = dd_add_f(s, 1.0)
    ik = np.asarray(k, dtype=np.int64)
    return np.ldexp(e[0], ik), np.ldexp(e[1], ik)


@lru_cache(maxsize=1)
def _asym_coeffs_dd():
    """u_k, v_k (k < _ASYM_TERMS) of the large-x expansions, as dd pairs."""
    u = [(1.0, 0.0)]
    v = [(1.0, 0.0)]
    for k in range(1, _ASYM_TERMS):
        num = float((6 * k - 5) * (6 * k - 3) * (6 * k - 1))
        den = float(216 * k * (2 * k - 1))
        uk = dd_div(dd_mul(u[-1], (num, 0.0)), (den, 0.0))
        vk = dd_div(dd_mul(uk, (-float(6 * k + 1), 0.0)),
                    (float(6 * k - 1), 0.0))
        u.append(uk)
        v.append(vk)
    return tuple(u), tuple(v)


@lru_cache(maxsize=1)
def _sqrt_pi_s():
    r = dd_sqrt((np.asarray(DD_PI[0]), np.asarray(DD_PI[1])))
    return float(r[0]), float(r[1])


def _seed_pair():
    """(Ai, Ai') at x = _ANCHOR_TOP from the asymptotic expansion.

    At x = 16, zeta = 2/3 * 16^(3/2) = 128/3 and the near-optimally
    truncated series leaves a relative error ~ exp(-2*zeta) ~ 1e-37,
    comfortably below the double-double unit roundoff.
    """
    u, v = _asym_coeffs_dd()
    zeta = dd_div((128.0, 0.0), (3.0, 0.0))
    t = dd_neg(dd_div((1.0, 0.0), zeta))
    su = u[_SEED_TERMS - 1]
    sv = v[_SEED_TERMS - 1]
    for k in range(_SEED_TERMS - 2, -1, -1):
        su = dd_add(dd_mul(su, t), u[k])
        sv = dd_add(dd_mul(sv, t), v[k])
    # exp(-zeta) as exp(-42) * exp(-2/3): exp turns the absolute rounding
    # of its argument into relative error; 42 is exact and 2/3 rounds 64x
    # finer than 128/3
    two_thirds = dd_div((2.0, 0.0), (3.0, 0.0))
    e = dd_exp((np.array([-42.0, -two_thirds[0]]),
                np.array([0.0, -two_thirds[1]])))
    damp = dd_mul((float(e[0][0]), float(e[1][0])),
                  (float(e[0][1]), float(e[1][1])))
    root = (2.0, 0.0)                    # 16^(1/4)
    den = dd_mul(dd_mul((2.0, 0.0), _sqrt_pi_s()), root)
    ai = dd_div(dd_mul(su, damp), den)
    aip = dd_neg(dd_div(dd_mul(dd_mul(sv, damp), root),
                        dd_mul((2.0, 0.0), _sqrt_pi_s())))
    return ai, aip


def _fundamental_coeffs(x0, order):
    """Taylor coefficients of y'' = x*y at every anchor x0.

    Row k holds the k-th coefficient of the two solutions with
    (y, y') = (1, 0) and (0, 1) at x0; shape (order, 2, len(x0)).  The
    coefficients of any solution are the combination of these two rows
    weighted by its (y, y'), so the recurrence runs on all anchors at once.
    """
    hi = np.zeros((order, 2, x0.size))
    lo = np.zeros((order, 2, x0.size))
    hi[0, 0] = 1.0
    hi[1, 1] = 1.0
    for n in range(order - 2):
        t = dd_mul_f((hi[n], lo[n]), x0)
        if n >= 1:
            t = dd_add(t, (hi[n - 1], lo[n - 1]))
        hi[n + 2], lo[n + 2] = dd_div(t, (float((n + 1) * (n + 2)), 0.0))
    return hi, lo


@lru_cache(maxsize=1)
def _anchor_table():
    """March the seed down to -30, storing Taylor coefficients per anchor.

    Returns (c_hi, c_lo, d_hi): the value series' coefficients and the
    high words of the derivative series', arrays of shape
    (n_anchors, order); anchor i sits at x0 = _ANCHOR_TOP - i*_ANCHOR_STEP.
    Only :mod:`gapdet.specfun`'s float64 Ai' reads the derivative words.
    Only the 2x2 map taking (y, y') from one anchor to the next is applied
    in sequence.
    """
    x0 = _ANCHOR_TOP - _ANCHOR_STEP * np.arange(_N_ANCHORS)
    hi, lo = _fundamental_coeffs(x0, _BUILD_ORDER)
    # step matrix per anchor: Taylor sums of both solutions and their
    # derivatives at h = -_ANCHOR_STEP (a power of two, so h-products are
    # exact)
    h = -_ANCHOR_STEP
    val = (hi[-1], lo[-1])
    der = dd_mul_f(val, float(_BUILD_ORDER - 1))
    for k in range(_BUILD_ORDER - 2, -1, -1):
        ck = (hi[k], lo[k])
        val = dd_add(dd_mul_pow2(val, h), ck)
        if k >= 1:
            der = dd_add(dd_mul_pow2(der, h), dd_mul_f(ck, float(k)))
    a, p = _seed_pair()
    ys = np.empty((4, _N_ANCHORS))     # a_hi, a_lo, p_hi, p_lo per anchor
    for i in range(_N_ANCHORS):
        # the march is sequential; plain-float pairs skip numpy's 0-d
        # overhead at every step
        ys[:, i] = (*a, *p)
        va = (float(val[0][0, i]), float(val[1][0, i]))
        vp = (float(val[0][1, i]), float(val[1][1, i]))
        da = (float(der[0][0, i]), float(der[1][0, i]))
        dp = (float(der[0][1, i]), float(der[1][1, i]))
        a, p = (dd_add(dd_mul(va, a), dd_mul(vp, p)),
                dd_add(dd_mul(da, a), dd_mul(dp, p)))
    fa = (hi[:_EVAL_ORDER, 0], lo[:_EVAL_ORDER, 0])
    fp = (hi[:_EVAL_ORDER, 1], lo[:_EVAL_ORDER, 1])
    c = dd_add(dd_mul(fa, (ys[0], ys[1])), dd_mul(fp, (ys[2], ys[3])))
    d = dd_mul_f((c[0][1:], c[1][1:]), np.arange(1.0, _EVAL_ORDER)[:, None])
    return tuple(np.ascontiguousarray(v.T) for v in (c[0], c[1], d[0]))


@lru_cache(maxsize=1)
def _asym_table():
    """(u_hi, u_lo, v_hi) arrays; only float64 Ai' reads the v_k."""
    u, v = _asym_coeffs_dd()
    return (np.array([c[0] for c in u]), np.array([c[1] for c in u]),
            np.array([c[0] for c in v]))


# ----------------------------------------------------------------- airy

def _check_window(x):
    """:class:`DomainError` for an Airy argument below the window."""
    if x.size and float(np.min(x)) < _WINDOW_MIN:
        raise DomainError(
            "airy argument %g below accuracy window minimum %g"
            % (float(np.min(x)), _WINDOW_MIN))


def _nearest_anchor(x):
    """(index, abscissa, a multiple of 0.25) of the anchor nearest x."""
    idx = np.rint((_ANCHOR_TOP - x) / _ANCHOR_STEP).astype(np.intp)
    idx = np.clip(idx, 0, _N_ANCHORS - 1)
    return idx, _ANCHOR_TOP - _ANCHOR_STEP * idx


def _airy_anchor(x):
    c_hi, c_lo, _ = _anchor_table()
    idx, x0 = _nearest_anchor(x[0])
    h = dd_add_f(x, -x0)
    ca_hi, ca_lo = c_hi[idx], c_lo[idx]
    ai = (ca_hi[..., -1], ca_lo[..., -1])
    for k in range(_EVAL_ORDER - 2, -1, -1):
        ai = dd_add(dd_mul(ai, h), (ca_hi[..., k], ca_lo[..., k]))
    return ai


def _airy_asym_scaled(x):
    """(Ai*e^zeta, zeta) for x >= _ANCHOR_TOP.

    A fixed 120-term Horner evaluation keeps the truncation error below
    ~1e-34 for every x >= 16: at the lower edge the optimally small terms
    sit near index 85 and have not grown back past that level by 120, and
    for larger x the series is still decaying at index 120.
    """
    u_hi, u_lo, _ = _asym_table()
    zeta = dd_div(dd_mul_pow2(dd_mul(x, dd_sqrt(x)), 2.0), (3.0, 0.0))
    t = dd_neg(dd_div((np.ones_like(x[0]), np.zeros_like(x[0])), zeta))
    su = (np.full_like(x[0], u_hi[-1]), np.full_like(x[0], u_lo[-1]))
    for k in range(_ASYM_TERMS - 2, -1, -1):
        su = dd_add(dd_mul(su, t), (u_hi[k], u_lo[k]))
    root = dd_sqrt(dd_sqrt(x))
    two_sqrt_pi = (2.0 * _sqrt_pi_s()[0], 2.0 * _sqrt_pi_s()[1])
    return dd_div(su, dd_mul(root, two_sqrt_pi)), zeta


def dd_airy_ai(x):
    """Ai(x) elementwise in double-double.

    Accuracy target: ~1e-28 relative to the local amplitude across the
    window [-30, oo).  Arguments below -30 raise :class:`DomainError`; far
    in the exponential tail the value underflows to exact zeros.  Ai' has
    no double-double evaluator: no kernel reads it.
    """
    hi = np.asarray(x[0], dtype=float)
    lo = np.asarray(x[1], dtype=float)
    _check_window(hi)
    ai_hi = np.empty_like(hi)
    ai_lo = np.empty_like(hi)
    near = hi < _ANCHOR_TOP
    if np.any(near):
        ai_hi[near], ai_lo[near] = _airy_anchor((hi[near], lo[near]))
    far = ~near
    if np.any(far):
        amp_ai, zeta = _airy_asym_scaled((hi[far], lo[far]))
        with np.errstate(under="ignore"):
            damp = dd_exp(dd_neg(zeta))
            ai = dd_mul(amp_ai, damp)
        # below ~1e-290 the lo parts hit subnormals; flush them so later
        # arithmetic never sees junk spacing
        ai_hi[far] = ai[0]
        ai_lo[far] = np.where(damp[0] < 1e-290, 0.0, ai[1])
    return ai_hi, ai_lo


# --------------------------------------------------------------- specfun

def dd_airy_shifted(tau, x):
    """Shifted Airy function 2^(1/6)*exp(tau*x + 2*tau^3/3)*Ai(x + tau^2).

    ``tau`` is a scalar pair, ``x`` an array pair.  Mirrors the float64
    version: in the exponential tail the prefactor exponent and -zeta are
    combined before a single exp so the result never round-trips through
    inf.  Raises OverflowError when the value itself is unrepresentable.
    """
    tau2 = dd_mul(tau, tau)
    c0 = dd_mul(dd_mul(tau2, tau), dd_div((2.0, 0.0), (3.0, 0.0)))
    w = dd_add_f(dd_add_f(x, tau2[0]), tau2[1])
    pref = dd_add(dd_add(dd_mul_f(x, tau[0]), dd_mul_f(x, tau[1])), c0)
    out_hi = np.empty_like(x[0])
    out_lo = np.empty_like(x[0])
    far = w[0] >= _ANCHOR_TOP
    if np.any(far):
        amp_ai, zeta = _airy_asym_scaled((w[0][far], w[1][far]))
        expo = dd_sub((pref[0][far], pref[1][far]), zeta)
        if np.any(expo[0] > 700.0):
            raise OverflowError(
                "dd_airy_shifted overflow: log-magnitude %.3g exceeds "
                "float range" % float(np.max(expo[0])))
        with np.errstate(under="ignore"):
            val = dd_mul(dd_mul(amp_ai, dd_exp(expo)), DD_TWO_SIXTH)
        out_hi[far], out_lo[far] = val
    near = ~far
    if np.any(near):
        pn = (pref[0][near], pref[1][near])
        if np.any(pn[0] > 700.0):
            raise OverflowError(
                "dd_airy_shifted overflow: log-magnitude %.3g exceeds "
                "float range" % float(np.max(pn[0])))
        ai = dd_airy_ai((w[0][near], w[1][near]))
        with np.errstate(under="ignore"):
            val = dd_mul(dd_mul(ai, dd_exp(pn)), DD_TWO_SIXTH)
        out_hi[near], out_lo[near] = val
    return out_hi, out_lo


def dd_heat_kernel(dt, x1, x2):
    """Gaussian factor exp(-(x1-x2)^2/(4 dt)) / sqrt(4 pi dt), dt scalar."""
    if not dt[0] > 0.0:
        raise DomainError("dd_heat_kernel requires dt > 0, got %r" % (dt[0],))
    d = dd_sub(x1, x2)
    four_dt = (4.0 * dt[0], 4.0 * dt[1])
    arg = dd_neg(dd_div(dd_sqr(d), four_dt))
    norm = dd_mul(four_dt, DD_PI)
    rn = dd_sqrt((np.asarray(norm[0]), np.asarray(norm[1])))
    with np.errstate(under="ignore"):
        val = dd_exp(arg)
    return dd_div(val, (float(rn[0]), float(rn[1])))


# ------------------------------------------------------------- quadrature

def _legendre_pair(y, m):
    """(P_m(y), P_m'(y)) by the three-term recurrence in double-double."""
    p0 = (np.ones_like(y[0]), np.zeros_like(y[0]))
    p1 = y
    for k in range(2, m + 1):
        t = dd_mul_f(dd_mul(y, p1), float(2 * k - 1))
        t = dd_sub(t, dd_mul_f(p0, float(k - 1)))
        p0, p1 = p1, dd_div(t, (float(k), 0.0))
    num = dd_mul_f(dd_sub(dd_mul(y, p1), p0), float(m))
    den = dd_add_f(dd_sqr(y), -1.0)
    return p1, dd_div(num, den)


@lru_cache(maxsize=64)
def dd_gauss_legendre(m):
    """Gauss-Legendre rule on (0, 1) in double-double.

    Float64 nodes from :func:`gapdet.quadrature.gauss_legendre` are refined
    by three Newton steps with the Legendre recurrence carried in
    double-double, converging the roots to ~1e-31.
    """
    base = gauss_legendre(m)
    y = dd_add_f(dd_mul_pow2(dd_from_float(np.asarray(base.nodes)), 2.0),
                 -1.0)
    for _ in range(3):
        p, dp = _legendre_pair(y, m)
        y = dd_sub(y, dd_div(p, dp))
    _, dp = _legendre_pair(y, m)
    one_minus_y2 = dd_neg(dd_add_f(dd_sqr(y), -1.0))
    w = dd_div((np.ones_like(y[0]), np.zeros_like(y[0])),
               dd_mul(one_minus_y2, dd_sqr(dp)))
    t_nodes = dd_mul_pow2(dd_add_f(y, 1.0), 0.5)
    return t_nodes, w


# ---------------------------------------------------------------- product

def _slice_width(k):
    """Largest beta with k * 2^(2 beta) <= 2^53: a slice entry is at most
    2^beta units of its level, rounding included, so every partial sum of
    a k-term dot product of two slices is an integer below 2^53 units."""
    beta = 26
    while k << (2 * beta) > 1 << 53:
        beta -= 1
    return beta


def _slice_count(beta):
    """Fewest slices s with 2^(-beta s) (s + 3) <= 2^-106 (see
    :func:`dd_matmul`)."""
    s = 1
    while 1 << (beta * s) < (s + 3) << 106:
        s += 1
    return s


def _slices(hi, lo, beta, s):
    """s float64 matrices whose exact sum is hi + lo to within
    (1/2 + 2^(beta - 54)) 2^(-beta s) per entry, for |hi| < 1; slice i
    holds multiples of 2^(-beta i) of magnitude at most 2^(beta (1 - i)).

    Slice i is the high word rounded to the grid 2^(-beta i) by adding and
    subtracting 1.5 * 2^52 units; what is left, and the low word, are
    carried on exactly as a normalized pair.
    """
    out = []
    for i in range(1, s + 1):
        c = 1.5 * 2.0 ** (52 - beta * i)
        top = (hi + c) - c
        out.append(top)
        hi, lo = _two_sum(hi - top, lo)
    return out


def _exponents(words, axis):
    """Per-row (axis 1) or per-column (axis 0) exponents e with every
    |entry| < 2^e; 0 for a line of zeros."""
    return np.frexp(np.max(np.abs(words), axis=axis))[1]


def dd_matmul(a, b):
    """Product of two double-double matrices from exact float64 GEMMs.

    ``a`` is a (p, k) and ``b`` a (k, q) pair of hi and lo words; returns
    the (p, q) product as a pair.  Each row of ``a`` and each column of
    ``b`` is scaled by a power of two into (-1, 1) and cut into s slices
    of beta bits (Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59
    (2012) 95-118): beta is the largest width with k 2^(2 beta) <= 2^53,
    counting the bit that rounding to a slice can add, so each product of
    slices A_i B_j is one float64 GEMM whose every partial sum is exact.
    The products with i + j <= s + 1 are summed in double-double from the
    highest i + j, the smallest, down.  s is the fewest slices with
    2^(-beta s) (s + 3) <= 2^-106: 5 for k <= 512, and 6 for
    512 < k <= 32768.

    Barring underflow and overflow, entry (r, c) of the result is within
    2^-104 k max_l |a[r, l]| max_l |b[l, c]| of the exact product.  The
    dropped products and the slice remainders contribute at most 2^-108 k
    on the scaled operands, whose row and column maxima are at least 1/2,
    and the double-double additions at most about 2^-106 k on them.  With
    k = 0 the product is exactly zero.  Operands that are not matrices,
    whose shapes do not chain, whose hi and lo words differ in shape, or
    that hold a non-finite entry raise :class:`DomainError`.
    """
    (a_hi, a_lo), (b_hi, b_lo) = (
        tuple(np.asarray(w, dtype=float) for w in pair) for pair in (a, b))
    if a_hi.ndim != 2 or b_hi.ndim != 2 or a_hi.shape[1] != b_hi.shape[0]:
        raise DomainError("dd_matmul needs (p, k) and (k, q) matrices, got "
                          "shapes %r and %r" % (a_hi.shape, b_hi.shape))
    if a_lo.shape != a_hi.shape or b_lo.shape != b_hi.shape:
        raise DomainError("dd_matmul got hi and lo words of different "
                          "shapes")
    if not all(np.all(np.isfinite(w)) for w in (a_hi, a_lo, b_hi, b_lo)):
        raise DomainError("dd_matmul needs finite matrices")
    k = a_hi.shape[1]
    out = np.zeros((a_hi.shape[0], b_hi.shape[1])), \
        np.zeros((a_hi.shape[0], b_hi.shape[1]))
    if k == 0:
        return out
    beta = _slice_width(k)
    s = _slice_count(beta)
    ea = _exponents(a_hi, 1)[:, None]
    eb = _exponents(b_hi, 0)[None, :]
    sa = _slices(np.ldexp(a_hi, -ea), np.ldexp(a_lo, -ea), beta, s)
    sb = _slices(np.ldexp(b_hi, -eb), np.ldexp(b_lo, -eb), beta, s)
    for level in range(s + 1, 1, -1):
        for i in range(1, level):
            out = dd_add_f(out, sa[i - 1] @ sb[level - i - 1])
    e = ea + eb
    return np.ldexp(out[0], e), np.ldexp(out[1], e)


# ------------------------------------------------------------ determinant

def dd_det(a_hi, a_lo, lead=0):
    """Determinant of a double-double matrix by LU with partial pivoting.

    Returns the determinant as a scalar double-double pair, the pivots
    multiplied straight into it; an empty product is ``(1.0, 0.0)``.  A
    determinant beyond float64's range would underflow or overflow, but
    the one this serves, the tacnode ratio det S, is of order one.  Its
    matrix is the ratio matrix with the identity edge block eliminated by
    :func:`dd_matmul`, of order 2m for one gap interval at m nodes per
    component.

    With ``lead = k`` the first k columns take their pivots from the
    leading k rows only, which leaves the Schur complement of the leading
    k x k block in the trailing rows, and only the remaining pivots are
    multiplied: the result is det(A) / det(A[:k, :k]).  An exactly zero
    pivot in the leading block raises :class:`DivisionInstabilityError`.
    A matrix that is not square, hi and lo words of different shapes, a
    non-finite entry and a ``lead`` outside [0, n] raise
    :class:`DomainError`.

    The trailing update after each pivot is ``dd_sub(A, dd_mul(l, u))``
    for the multiplier column l and the pivot row u, evaluated in place:
    the same floating-point operations in the same order, written through
    numpy's ``out=`` into the trailing rows of the working copy, a block of
    ``_DET_BLOCK`` rows at a time so that the operands stay in cache.
    Beyond its copy of the input it needs O(_DET_BLOCK * n) working memory.
    """
    hi = np.array(a_hi, dtype=float, order="C")
    lo = np.array(a_lo, dtype=float, order="C")
    if hi.ndim != 2 or hi.shape[0] != hi.shape[1]:
        raise DomainError("dd_det needs a square matrix, got shape %r"
                          % (hi.shape,))
    if lo.shape != hi.shape:
        raise DomainError("dd_det got hi words of shape %r and lo words of "
                          "shape %r" % (hi.shape, lo.shape))
    n = hi.shape[0]
    if not 0 <= lead <= n:
        raise DomainError("lead must lie in [0, %d], got %r" % (n, lead))
    if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
        raise DomainError("dd_det needs a finite matrix")
    work = np.empty((4, min(_DET_BLOCK, n) * n))
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
            mult = dd_div((hi[k + 1:, k], lo[k + 1:, k]), piv)
            _trailing_update(hi[k + 1:, k + 1:], lo[k + 1:, k + 1:],
                             mult, (hi[k, k + 1:], lo[k, k + 1:]), work)
    return sign * float(det[0]), sign * float(det[1])


def _trailing_update(a_hi, a_lo, mult, row, work):
    """A -= mult * row (outer product) in double-double, in place.

    Spells out ``dd_sub(A, dd_mul(mult[:, None], row[None, :]))`` one
    rounding at a time, in the same order, so the bits match; the column
    and row splits of TwoProd are taken once for all row blocks.
    """
    m_hi, m_lo = mult[0][:, None], mult[1][:, None]
    u_hi, u_lo = row[0][None, :], row[1][None, :]
    m_ah, m_al = _split(m_hi)
    bh, bl = _split(u_hi)
    for r0 in range(0, a_hi.shape[0], _DET_BLOCK):
        rb = slice(r0, r0 + _DET_BLOCK)
        x_hi, x_lo = a_hi[rb], a_lo[rb]
        p, e, s, t = (w[:x_hi.size].reshape(x_hi.shape) for w in work)
        mh, ml, ah, al = m_hi[rb], m_lo[rb], m_ah[rb], m_al[rb]
        # TwoProd: p + e = mult * row exactly, then the cross terms
        np.multiply(mh, u_hi, out=p)
        np.multiply(ah, bh, out=e)
        e -= p
        e += np.multiply(ah, bl, out=t)
        e += np.multiply(al, bh, out=t)
        e += np.multiply(al, bl, out=t)
        e += np.multiply(mh, u_lo, out=t)
        e += np.multiply(ml, u_hi, out=t)
        # QuickTwoSum(p, e) -> (-s, e): the product, its high word negated
        np.add(p, e, out=s)
        np.subtract(s, p, out=t)
        e -= t
        np.negative(s, out=s)
        # TwoSum(x_hi, -s) -> (p, s), then QuickTwoSum with the low words
        np.add(x_hi, s, out=p)
        np.subtract(p, x_hi, out=t)
        s -= t
        np.subtract(p, t, out=t)
        np.subtract(x_hi, t, out=t)
        np.add(t, s, out=s)
        s += x_lo
        s -= e
        np.add(p, s, out=x_hi)
        np.subtract(x_hi, p, out=t)
        np.subtract(s, t, out=x_lo)
