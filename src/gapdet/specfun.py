"""Airy function, its shifted variant, Gaussian kernel and quartic phase.

The Airy pair (Ai, Ai') is evaluated from scratch; no special-function
library is used at runtime.  Two regimes cover the window:

* ``x < 16``  -- the Taylor polynomial of degree 21 about the nearest anchor
  of the ladder built by :mod:`gapdet.ddmath` (anchors every 0.25 on
  [-30, 16]), read from the high words of its double-double coefficients.
  With |x - anchor| <= 1/8 the truncation error is below 1e-24 relative to
  the local amplitude, so what remains is float64 rounding: a few units in
  the last place, relative to Ai itself on the positive side.  The ladder
  is built once per process, on first use.
* ``x >= 16`` -- the exponential asymptotic expansion, 25 terms, whose
  truncation error there is below 1e-22 relative.  Far out it underflows to
  an exact 0.0 (the correctly rounded value) rather than raising.

Accuracy window: x >= -30.  Arguments below -30 raise :class:`DomainError`.
"""

from functools import lru_cache

import numpy as np

from .ddmath import _ANCHOR_STEP, _ANCHOR_TOP, _WINDOW_MIN, _anchor_table
from .errors import DomainError

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "airy_shifted",
    "heat_kernel",
    "pearcey_phase",
    "load_airy_golden",
    "AIRY_WINDOW_MIN",
]

_ASYM_TERMS = 25
_EVAL_ORDER = 22     # Taylor order for runtime anchor evaluation

AIRY_WINDOW_MIN = _WINDOW_MIN

_SQRT_PI = np.sqrt(np.pi)
_TWO_SIXTH = 2.0 ** (1.0 / 6.0)


def _asym_coeffs(n):
    """Coefficient sequences u_k, v_k of the large-x expansion."""
    u = np.empty(n)
    v = np.empty(n)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(1, n):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) \
            / (216.0 * k * (2 * k - 1))
        v[k] = -u[k] * (6 * k + 1) / (6 * k - 1)
    return u, v


_U_COEF, _V_COEF = _asym_coeffs(_ASYM_TERMS)


def _ai_asym_pos_scaled(x):
    """Exponential-form expansion, returning (ai*e^zeta, aip*e^zeta, zeta)."""
    x = np.asarray(x, dtype=float)
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    t = -1.0 / zeta
    su = np.full_like(x, _U_COEF[-1])
    sv = np.full_like(x, _V_COEF[-1])
    for k in range(_ASYM_TERMS - 2, -1, -1):
        su = su * t + _U_COEF[k]
        sv = sv * t + _V_COEF[k]
    root = np.sqrt(np.sqrt(x))
    amp_ai = su / (2.0 * _SQRT_PI * root)
    amp_aip = -sv * root / (2.0 * _SQRT_PI)
    return amp_ai, amp_aip, zeta


def _ai_asym_pos(x):
    amp_ai, amp_aip, zeta = _ai_asym_pos_scaled(x)
    damp = np.exp(-zeta)
    return amp_ai * damp, amp_aip * damp


@lru_cache(maxsize=1)
def _anchor_coeffs():
    """High words of the anchor table, one contiguous row per order."""
    c_hi, _, d_hi, _ = _anchor_table()
    return (np.ascontiguousarray(c_hi[:, :_EVAL_ORDER].T),
            np.ascontiguousarray(d_hi[:, :_EVAL_ORDER - 1].T))


def _ai_anchor(x):
    coef, dcoef = _anchor_coeffs()
    idx = np.rint((_ANCHOR_TOP - x) / _ANCHOR_STEP).astype(np.intp)
    idx = np.clip(idx, 0, coef.shape[1] - 1)
    h = x - (_ANCHOR_TOP - _ANCHOR_STEP * idx)
    ai = coef[-1][idx]
    for k in range(_EVAL_ORDER - 2, -1, -1):
        ai *= h
        ai += coef[k][idx]
    aip = dcoef[-1][idx]
    for k in range(_EVAL_ORDER - 3, -1, -1):
        aip *= h
        aip += dcoef[k][idx]
    return ai, aip


def _airy_eval(x):
    """Vectorized (Ai, Ai') over the supported window."""
    x = np.asarray(x, dtype=float)
    if x.size and float(np.min(x)) < AIRY_WINDOW_MIN:
        raise DomainError(
            "airy argument %g below accuracy window minimum %g"
            % (float(np.min(x)), AIRY_WINDOW_MIN))
    near = x < _ANCHOR_TOP
    if np.all(near):
        return _ai_anchor(x)
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    if np.any(near):
        ai[near], aip[near] = _ai_anchor(x[near])
    far = ~near
    with np.errstate(under="ignore"):
        ai[far], aip[far] = _ai_asym_pos(x[far])
    return ai, aip


def airy_ai(x):
    """Ai(x) for scalar or array x; accuracy window x >= -30."""
    arr = np.asarray(x, dtype=float)
    ai, _ = _airy_eval(arr)
    return float(ai) if np.isscalar(x) or arr.ndim == 0 else ai


def airy_ai_prime(x):
    """Ai'(x) for scalar or array x; accuracy window x >= -30."""
    arr = np.asarray(x, dtype=float)
    _, aip = _airy_eval(arr)
    return float(aip) if np.isscalar(x) or arr.ndim == 0 else aip


def airy_shifted(tau, x):
    """Shifted Airy function 2^(1/6) * exp(tau*x + 2*tau^3/3) * Ai(x + tau^2).

    The exponent is handled in log magnitude so that a huge prefactor against
    a tiny Airy value never round-trips through inf.  Raises OverflowError
    only when the result itself is not representable.
    """
    tau = float(tau)
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or arr.ndim == 0
    xv = np.atleast_1d(arr).astype(float)
    w = xv + tau * tau
    pref = tau * xv + 2.0 * tau ** 3 / 3.0
    out = np.empty_like(xv)

    far = w >= _ANCHOR_TOP
    if np.any(far):
        amp_ai, _, zeta = _ai_asym_pos_scaled(w[far])
        expo = pref[far] - zeta
        if np.any(expo > 700.0):
            raise OverflowError(
                "airy_shifted overflow: log-magnitude %.3g exceeds float range"
                % float(np.max(expo)))
        with np.errstate(under="ignore"):
            out[far] = _TWO_SIXTH * amp_ai * np.exp(expo)
    near = ~far
    if np.any(near):
        aiw, _ = _airy_eval(w[near])
        pn = pref[near]
        with np.errstate(divide="ignore"):
            total = pn + np.log(np.abs(aiw))
        if np.any(total > 700.0):
            raise OverflowError(
                "airy_shifted overflow: log-magnitude %.3g exceeds float range"
                % float(np.max(total)))
        vals = np.empty_like(pn)
        direct = pn <= 700.0
        with np.errstate(under="ignore"):
            vals[direct] = np.exp(pn[direct]) * aiw[direct]
            big = ~direct
            vals[big] = np.sign(aiw[big]) * np.exp(total[big])
        out[near] = _TWO_SIXTH * vals
    return float(out[0]) if scalar else out.reshape(arr.shape)


def heat_kernel(dt, x1, x2):
    """Gaussian transition density exp(-(x1-x2)^2/(4 dt)) / sqrt(4 pi dt)."""
    if not dt > 0.0:
        raise DomainError("heat_kernel requires dt > 0, got %r" % (dt,))
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d = x1 - x2
    with np.errstate(under="ignore"):
        val = np.exp(-(d * d) / (4.0 * dt)) / np.sqrt(4.0 * np.pi * dt)
    if val.ndim == 0:
        return float(val)
    return val


def pearcey_phase(lam, tau):
    """Quartic phase lam^4/4 - tau*lam^2/2 on the complex plane."""
    lam = np.asarray(lam, dtype=complex)
    lam2 = lam * lam
    val = 0.25 * lam2 * lam2 - 0.5 * tau * lam2
    if val.ndim == 0:
        return complex(val)
    return val


def load_airy_golden(path=None):
    """Load the golden (x, Ai, Ai') table shipped with the package.

    The file is plain text with three space-separated columns per row:
    ``x ai ai_prime``, 17 significant digits.
    """
    if path is None:
        from importlib.resources import files
        path = files("gapdet").joinpath("data/airy_golden.txt")
        data = np.loadtxt(str(path))
    else:
        data = np.loadtxt(path)
    return data[:, 0], data[:, 1], data[:, 2]
