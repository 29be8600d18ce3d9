"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible through pytest's capture) so
a full run doubles as a quality report for the numerical claims the
package stands behind: the two tacnode routes agree, the limit regimes
land on Airy and Pearcey laws, conditioning identities hold, and the
refinement ladder is actually converged where it says it is.
"""

import time

import numpy as np

from gapdet.cli import (run_scan_pearcey_airy, run_scan_tacnode_airy,
                        run_scan_tacnode_pearcey)
from gapdet.fredholm import BlockKernel, fredholm_det
from gapdet.gapprob import (airy_gap, generating_function, pearcey_gap,
                            tacnode_gap_direct, tacnode_gap_ratio,
                            tracy_widom_F2)
from gapdet.kernels import (AiryKernel, ConditionedKernel, GapSpec,
                            PearceyParams, TacnodeParams, airy_kernel_matrix,
                            ext_airy_matrix)
from gapdet.quadrature import DomainComponent, gauss_legendre
from gapdet.specfun import airy_ai, airy_ai_prime


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print("\n[acceptance] %-34s %s  (%s)"
              % (label + ":", "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


def test_two_route_tacnode_identity(capsys):
    t0 = time.time()
    spec = GapSpec([[(-1.0, 1.0)]])
    worst = 0.0
    for sigma in (-2.0, 0.0, 2.0):
        for tau in (-1.0, 0.0, 1.0):
            par = TacnodeParams(sigma, (tau,))
            r = tacnode_gap_ratio(spec, par).real
            d = tacnode_gap_direct(spec, par).real
            worst = max(worst, abs(r - d) / abs(d))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 300.0
    report(capsys, "two-route tacnode identity", ok,
           "max rel diff %.2e over 3x3 grid, %.1fs" % (worst, elapsed))


def test_pearcey_degenerates_to_two_airy_edges(capsys):
    _, far = run_scan_pearcey_airy(5.314, -3.0, 1.0, 5)
    _, near = run_scan_pearcey_airy(3.0, -3.0, 1.0, 5)
    assert not any("error" in r for r in far + near)
    max_far = max(abs(r["reldiff"]) for r in far)
    max_near = max(abs(r["reldiff"]) for r in near)
    ok = max_far < 0.15 and max_near > max_far
    report(capsys, "pearcey to airy-squared limit", ok,
           "max |reldiff| %.4f at tau 5.314, %.4f at tau 3"
           % (max_far, max_near))


def test_tacnode_approaches_airy_for_large_sigma(capsys):
    _, rows = run_scan_tacnode_airy(-0.3, 0.5, "sigma-sweep", 1.0, 5.0, 5)
    assert not any("error" in r for r in rows)
    rd = [abs(r["reldiff"]) for r in rows]
    sigmas = np.array([r["param"] for r in rows])
    decreasing = all(a > b for a, b in zip(rd, rd[1:]))
    # the sigma = 5 row sits below float64 resolution and may come out as
    # exactly 0; the fit sees it at eps
    lg = np.log10(np.maximum(rd, np.finfo(float).eps))
    coef = np.polyfit(sigmas, lg, 1)
    pred = np.polyval(coef, sigmas)
    r2 = 1.0 - np.sum((lg - pred) ** 2) / np.sum((lg - np.mean(lg)) ** 2)
    ok = decreasing and coef[0] < 0.0 and r2 > 0.9
    report(capsys, "tacnode to airy limit", ok,
           "|reldiff| %s, log-linear slope %.2f, R^2 %.3f"
           % ("decreasing" if decreasing else "NOT decreasing",
              coef[0], r2))


def test_tacnode_approaches_pearcey_for_deep_sigma(capsys):
    t0 = time.time()
    _, rows = run_scan_tacnode_pearcey([-3.0, -5.0, -7.0, -9.0],
                                       -1.0, 1.0, [0.0])
    converged = not any("error" in r for r in rows)
    rd = [abs(r["reldiff"]) for r in rows if "reldiff" in r]
    monotone = len(rd) == 4 and all(a > b for a, b in zip(rd, rd[1:]))
    ok = converged and monotone
    report(capsys, "tacnode to pearcey limit", ok,
           "|reldiff| %.2e -> %.2e over sigma -3..-9, %s, %.1fs"
           % (rd[0], rd[-1],
              "monotone" if monotone else "NOT monotone", time.time() - t0))


class _Conditioned(BlockKernel):
    """One-block view of a conditioned kernel, for determinant assembly."""

    def __init__(self, ck):
        self.ck = ck
        self.n_blocks = 1

    def entry(self, i, j, x, y):
        return self.ck.value_matrix(0, np.real(x), 0, np.real(y))


def _conditioning_identity_gap(e, a):
    """|det(1 - K_A on E) - det(1 - K on E+A) / det(1 - K on A)|."""
    ck = ConditionedKernel(AiryKernel(1), DomainComponent.finite(*a),
                           gauss_legendre(80))
    lhs = fredholm_det(_Conditioned(ck), [DomainComponent.finite(*e)]).real
    rhs = airy_gap([e, a]).real / airy_gap([a]).real
    return abs(lhs - rhs)


def test_conditioned_process_identity(capsys):
    diffs = [_conditioning_identity_gap((-1.0, 0.0), (1.0, 2.0))]
    rng = np.random.default_rng(20240817)
    for _ in range(3):
        e_lo = rng.uniform(-2.0, 0.3)
        e_hi = e_lo + rng.uniform(0.3, 1.0)
        a_lo = e_hi + rng.uniform(0.2, 0.6)
        a_hi = a_lo + rng.uniform(0.3, 1.0)
        diffs.append(_conditioning_identity_gap((e_lo, e_hi), (a_lo, a_hi)))
    worst = max(diffs)
    report(capsys, "conditioned-process identity", worst <= 1e-8,
           "max |lhs - rhs| %.2e over 4 region pairs" % worst)


def test_refinement_ladder_is_converged(capsys):
    # the reported err_estimate of an m0=40 run is the m=40 vs m=80
    # doubling difference
    f2_err = max(tracy_widom_F2(s, m0=40).err_estimate
                 for s in (-6.0, -4.0, -2.0, 0.0, 2.0))
    imag = max(pearcey_gap(PearceyParams(t, (-1.0, 1.0))).imag_residual
               for t in (2.0, 5.314))
    ok = f2_err <= 1e-10 and imag <= 1e-8
    report(capsys, "refinement and residual control", ok,
           "max F2 doubling diff %.2e, max pearcey imag residual %.2e"
           % (f2_err, imag))


def test_structural_properties_hold(capsys):
    checks = {}

    x = np.linspace(-10.0, 10.0, 10)
    h = 1e-4
    second = (airy_ai(x + h) - 2.0 * airy_ai(x) + airy_ai(x - h)) / h ** 2
    checks["airy ODE residual"] = float(np.max(np.abs(second - x * airy_ai(x)))) <= 1e-6

    rule = gauss_legendre(8)
    exact = all(abs(np.sum(rule.weights * rule.nodes ** k) - 1.0 / (k + 1))
                <= 1e-13 for k in range(16))
    checks["quadrature exactness"] = exact

    lim = airy_ai_prime(0.3) ** 2 - 0.3 * airy_ai(0.3) ** 2
    checks["airy kernel diagonal limit"] = \
        abs(airy_kernel_matrix([0.3], [0.3 + 1e-9])[0, 0] - lim) <= 1e-8

    # the inner rule is converged when doubling it moves the value <= 1e-8
    ext = [ext_airy_matrix(0.0, 0.0, [0.3], [0.8], m)[0, 0]
           for m in (80, 160)]
    checks["extended kernel at zero times"] = \
        abs(ext[1] - ext[0]) <= 1e-8 \
        and abs(ext[1] - airy_kernel_matrix([0.3], [0.8])[0, 0]) <= 1e-9

    spec = GapSpec([[(-1.0, 1.0)]])
    fwd = tacnode_gap_ratio(spec, TacnodeParams(0.5, (0.7,))).real
    rev = tacnode_gap_ratio(spec, TacnodeParams(0.5, (-0.7,))).real
    checks["time-reflection invariance"] = abs(fwd - rev) / abs(fwd) <= 1e-8

    empty = tacnode_gap_ratio(GapSpec([[]]), TacnodeParams(0.0, (0.0,))).real
    checks["empty gap gives 1"] = abs(empty - 1.0) <= 1e-9

    gen = generating_function(AiryKernel(1), [(-1.0, 1.0, 1.0)]).real
    checks["unit weight gives 1"] = abs(gen - 1.0) <= 1e-9

    failed = [name for name, ok in checks.items() if not ok]
    report(capsys, "structural properties", not failed,
           "%d/%d hold%s" % (len(checks) - len(failed), len(checks),
                             "" if not failed else "; failed: "
                             + ", ".join(failed)))
