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
arrays, so vectorized matrix assembly and an O(n^3) LU determinant stay
within seconds for n ~ 1000 where an arbitrary-precision library needs
minutes to hours.  On top of the arithmetic sit the few special values the
deep-gap path needs: Gauss-Legendre rules, the Airy pair, the shifted Airy
function, the Gaussian transition factor, and an LU determinant returning a
(mantissa, power-of-two) pair because the determinants themselves can
underflow float64 (values down to ~1e-110 arise).

The Airy pair comes from a ladder of Taylor anchors spaced 0.25 apart,
seeded at x = 16 from the exponential asymptotic expansion truncated near
its optimal index (error ~ exp(-2*zeta(16)) ~ 1e-37) and marched down to
-30 through the differential equation y'' = x*y.  The ladder is built once
per process, on first use, and is the only Airy ladder in the package: the
float64 evaluator in :mod:`gapdet.specfun` reads the high words of the same
coefficients.

Functions accept and return (hi, lo) tuples and assume inputs normalized.
Scalars may be passed as plain-float pairs; numpy broadcasting applies.
"""

from functools import lru_cache

import numpy as np

from .errors import DomainError
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
    "dd_airy_pair",
    "dd_airy_shifted",
    "dd_heat_kernel",
    "dd_det",
    "dd_roots_of_two",
    "DD_LN2",
    "DD_PI",
]

_SPLITTER = 134217729.0            # 2^27 + 1, Dekker's constant

# hi/lo decompositions of ln 2 and pi; the lo parts are the correctly
# rounded remainders, the same values every double-double library ships.
DD_LN2 = (6.931471805599453e-01, 2.3190468138462996e-17)
DD_PI = (3.141592653589793e0, 1.2246467991473532e-16)

_ANCHOR_TOP = 16.0
_ANCHOR_STEP = 0.25
_WINDOW_MIN = -30.0
_BUILD_ORDER = 60    # Taylor order while marching the anchor seeds
_EVAL_ORDER = 48     # Taylor order kept for runtime evaluation
_SEED_TERMS = 90     # asymptotic terms at the seed (optimal index ~ 85)
_ASYM_TERMS = 120    # asymptotic terms for runtime x >= 16
_EXP_ORDER = 16      # Taylor order of exp after four halvings


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


def _asym_coeffs_dd(n):
    """u_k, v_k of the large-x expansions, as scalar double-doubles."""
    u = [(1.0, 0.0)]
    v = [(1.0, 0.0)]
    for k in range(1, n):
        num = float((6 * k - 5) * (6 * k - 3) * (6 * k - 1))
        den = float(216 * k * (2 * k - 1))
        uk = dd_div(dd_mul(u[-1], (num, 0.0)), (den, 0.0))
        vk = dd_div(dd_mul(uk, (-float(6 * k + 1), 0.0)),
                    (float(6 * k - 1), 0.0))
        u.append(uk)
        v.append(vk)
    return u, v


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
    u, v = _asym_coeffs_dd(_SEED_TERMS)
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

    Returns (c_hi, c_lo, d_hi, d_lo): value-series and derivative-series
    coefficient arrays of shape (n_anchors, order); anchor i sits at
    x0 = _ANCHOR_TOP - i*_ANCHOR_STEP.  Only the 2x2 map taking (y, y') from
    one anchor to the next is applied in sequence.
    """
    n_steps = int(round((_ANCHOR_TOP - _WINDOW_MIN) / _ANCHOR_STEP))
    x0 = _ANCHOR_TOP - _ANCHOR_STEP * np.arange(n_steps + 1)
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
    ys = np.empty((4, n_steps + 1))     # a_hi, a_lo, p_hi, p_lo per anchor
    for i in range(n_steps + 1):
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
    return tuple(np.ascontiguousarray(v.T) for v in (c[0], c[1], d[0], d[1]))


@lru_cache(maxsize=1)
def _asym_table():
    u, v = _asym_coeffs_dd(_ASYM_TERMS)
    return (np.array([c[0] for c in u]), np.array([c[1] for c in u]),
            np.array([c[0] for c in v]), np.array([c[1] for c in v]))


# ----------------------------------------------------------------- airy

def _airy_anchor(x):
    c_hi, c_lo, d_hi, d_lo = _anchor_table()
    idx = np.rint((_ANCHOR_TOP - x[0]) / _ANCHOR_STEP).astype(int)
    idx = np.clip(idx, 0, c_hi.shape[0] - 1)
    x0 = _ANCHOR_TOP - _ANCHOR_STEP * idx     # exact: multiples of 0.25
    h = dd_add_f(x, -x0)
    ca_hi, ca_lo = c_hi[idx], c_lo[idx]
    cd_hi, cd_lo = d_hi[idx], d_lo[idx]
    ai = (ca_hi[..., -1], ca_lo[..., -1])
    for k in range(_EVAL_ORDER - 2, -1, -1):
        ai = dd_add(dd_mul(ai, h), (ca_hi[..., k], ca_lo[..., k]))
    aip = (cd_hi[..., -1], cd_lo[..., -1])
    for k in range(_EVAL_ORDER - 3, -1, -1):
        aip = dd_add(dd_mul(aip, h), (cd_hi[..., k], cd_lo[..., k]))
    return ai, aip


def _airy_asym_scaled(x):
    """(Ai*e^zeta, Ai'*e^zeta, zeta) for x >= _ANCHOR_TOP.

    A fixed 120-term Horner evaluation keeps the truncation error below
    ~1e-34 for every x >= 16: at the lower edge the optimally small terms
    sit near index 85 and have not grown back past that level by 120, and
    for larger x the series is still decaying at index 120.
    """
    u_hi, u_lo, v_hi, v_lo = _asym_table()
    zeta = dd_div(dd_mul_pow2(dd_mul(x, dd_sqrt(x)), 2.0), (3.0, 0.0))
    t = dd_neg(dd_div((np.ones_like(x[0]), np.zeros_like(x[0])), zeta))
    su = (np.full_like(x[0], u_hi[-1]), np.full_like(x[0], u_lo[-1]))
    sv = (np.full_like(x[0], v_hi[-1]), np.full_like(x[0], v_lo[-1]))
    for k in range(_ASYM_TERMS - 2, -1, -1):
        su = dd_add(dd_mul(su, t), (u_hi[k], u_lo[k]))
        sv = dd_add(dd_mul(sv, t), (v_hi[k], v_lo[k]))
    root = dd_sqrt(dd_sqrt(x))
    two_sqrt_pi = (2.0 * _sqrt_pi_s()[0], 2.0 * _sqrt_pi_s()[1])
    amp_ai = dd_div(su, dd_mul(root, two_sqrt_pi))
    amp_aip = dd_neg(dd_div(dd_mul(sv, root), two_sqrt_pi))
    return amp_ai, amp_aip, zeta


def dd_airy_pair(x):
    """(Ai(x), Ai'(x)) elementwise in double-double.

    Accuracy target: ~1e-28 relative to the local amplitude across the
    window [-30, oo).  Arguments below -30 raise :class:`DomainError`; far
    in the exponential tail the pair underflows to exact zeros.
    """
    hi = np.asarray(x[0], dtype=float)
    lo = np.asarray(x[1], dtype=float)
    if hi.size and float(np.min(hi)) < _WINDOW_MIN:
        raise DomainError(
            "airy argument %g below accuracy window minimum %g"
            % (float(np.min(hi)), _WINDOW_MIN))
    ai_hi = np.empty_like(hi)
    ai_lo = np.empty_like(hi)
    aip_hi = np.empty_like(hi)
    aip_lo = np.empty_like(hi)
    near = hi < _ANCHOR_TOP
    if np.any(near):
        ai, aip = _airy_anchor((hi[near], lo[near]))
        ai_hi[near], ai_lo[near] = ai
        aip_hi[near], aip_lo[near] = aip
    far = ~near
    if np.any(far):
        amp_ai, amp_aip, zeta = _airy_asym_scaled((hi[far], lo[far]))
        with np.errstate(under="ignore"):
            damp = dd_exp(dd_neg(zeta))
            ai = dd_mul(amp_ai, damp)
            aip = dd_mul(amp_aip, damp)
        # below ~1e-290 the lo parts hit subnormals; flush them so later
        # arithmetic never sees junk spacing
        tiny = damp[0] < 1e-290
        ai_hi[far] = ai[0]
        ai_lo[far] = np.where(tiny, 0.0, ai[1])
        aip_hi[far] = aip[0]
        aip_lo[far] = np.where(tiny, 0.0, aip[1])
    return (ai_hi, ai_lo), (aip_hi, aip_lo)


# --------------------------------------------------------------- specfun

@lru_cache(maxsize=1)
def dd_roots_of_two():
    """(2^(1/6), 2^(1/3), 2^(2/3)) as scalar double-double pairs."""
    out = []
    for num, den in ((1.0, 6.0), (1.0, 3.0), (2.0, 3.0)):
        # the fraction itself must be a double-double; a float64 exponent
        # error of ~1e-17 would survive into 2^frac
        frac = dd_div((num, 0.0), (den, 0.0))
        arg = dd_mul(DD_LN2, frac)
        e = dd_exp((np.asarray(arg[0]), np.asarray(arg[1])))
        out.append((float(e[0]), float(e[1])))
    return tuple(out)


def dd_airy_shifted(tau, x):
    """Shifted Airy function 2^(1/6)*exp(tau*x + 2*tau^3/3)*Ai(x + tau^2).

    ``tau`` is a scalar pair, ``x`` an array pair.  Mirrors the float64
    version: in the exponential tail the prefactor exponent and -zeta are
    combined before a single exp so the result never round-trips through
    inf.  Raises OverflowError when the value itself is unrepresentable.
    """
    two_sixth = dd_roots_of_two()[0]
    tau2 = dd_mul(tau, tau)
    c0 = dd_mul(dd_mul(tau2, tau), dd_div((2.0, 0.0), (3.0, 0.0)))
    w = dd_add_f(dd_add_f(x, tau2[0]), tau2[1])
    pref = dd_add(dd_add(dd_mul_f(x, tau[0]), dd_mul_f(x, tau[1])), c0)
    out_hi = np.empty_like(x[0])
    out_lo = np.empty_like(x[0])
    far = w[0] >= _ANCHOR_TOP
    if np.any(far):
        amp_ai, _, zeta = _airy_asym_scaled((w[0][far], w[1][far]))
        expo = dd_sub((pref[0][far], pref[1][far]), zeta)
        if np.any(expo[0] > 700.0):
            raise OverflowError(
                "dd_airy_shifted overflow: log-magnitude %.3g exceeds "
                "float range" % float(np.max(expo[0])))
        with np.errstate(under="ignore"):
            val = dd_mul(dd_mul(amp_ai, dd_exp(expo)), two_sixth)
        out_hi[far], out_lo[far] = val
    near = ~far
    if np.any(near):
        pn = (pref[0][near], pref[1][near])
        if np.any(pn[0] > 700.0):
            raise OverflowError(
                "dd_airy_shifted overflow: log-magnitude %.3g exceeds "
                "float range" % float(np.max(pn[0])))
        ai, _ = dd_airy_pair((w[0][near], w[1][near]))
        with np.errstate(under="ignore"):
            val = dd_mul(dd_mul(ai, dd_exp(pn)), two_sixth)
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


# ------------------------------------------------------------ determinant

def dd_det(a_hi, a_lo):
    """Determinant of a double-double matrix by LU with partial pivoting.

    Returns ``(mant, exp2)``: ``mant`` a scalar double-double pair with
    0.5 <= |mant| < 1 (or exactly zero) and determinant = mant * 2^exp2.
    The split representation matters because the determinants this is used
    for can underflow float64 on their own.
    """
    hi = np.array(a_hi, dtype=float, copy=True)
    lo = np.array(a_lo, dtype=float, copy=True)
    n = hi.shape[0]
    mant = (1.0, 0.0)
    exp2 = 0
    sign = 1.0
    for k in range(n):
        p = int(np.argmax(np.abs(hi[k:, k]))) + k
        if hi[p, k] == 0.0 and lo[p, k] == 0.0:
            return (0.0, 0.0), 0
        if p != k:
            hi[[k, p], k:] = hi[[p, k], k:]
            lo[[k, p], k:] = lo[[p, k], k:]
            sign = -sign
        piv = (hi[k, k], lo[k, k])
        mp_, ep_ = np.frexp(piv[0])
        mant = dd_mul(mant, (float(mp_), float(np.ldexp(piv[1], -int(ep_)))))
        exp2 += int(ep_)
        mm, em = np.frexp(mant[0])
        mant = (float(mm), float(np.ldexp(mant[1], -int(em))))
        exp2 += int(em)
        if k + 1 < n:
            col = (hi[k + 1:, k], lo[k + 1:, k])
            mult = dd_div(col, piv)
            prod = dd_mul((mult[0][:, None], mult[1][:, None]),
                          (hi[k, k + 1:][None, :], lo[k, k + 1:][None, :]))
            blk = dd_sub((hi[k + 1:, k + 1:], lo[k + 1:, k + 1:]), prod)
            hi[k + 1:, k + 1:] = blk[0]
            lo[k + 1:, k + 1:] = blk[1]
    return (sign * mant[0], sign * mant[1]), exp2
