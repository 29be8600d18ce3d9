"""Tests for the Airy, Pearcey and tacnode kernel families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet import fredholm, gapprob, kernels
from gapdet.errors import (DivisionInstabilityError, DomainError,
                           KernelEvaluationError, SingularRestrictionError)
from gapdet.fredholm import assemble, assemble_dd, determinant
from gapdet.gapprob import tracy_widom_F2
from gapdet.kernels import (
    AiryKernel,
    ConditionedKernel,
    FormalTacnodeKernel,
    GapSpec,
    PearceyKernel,
    PearceyParams,
    TacnodeDirectKernel,
    TacnodeHKernel,
    TacnodeParams,
    airy_kernel_matrix,
    coupling_matrix,
    ext_airy_matrix,
    parse_interval,
    conditioning_edge,
    tacnode_block_entry,
    tail_cutoff,
)
from gapdet.quadrature import DomainComponent, gauss_legendre, map_ray
from gapdet.specfun import (airy_ai, airy_ai_prime, airy_shifted, heat_kernel,
                            pearcey_phase)
from pearcey_contours import axis_to_branch, branch_to_axis

CBRT2 = 2.0 ** (1.0 / 3.0)

def airy_kernel(x, y):
    return airy_kernel_matrix([x], [y])[0, 0]


def converged_inner(fn, *args):
    """Value of ``fn(*args, m_inner)`` at m_inner = 160, after checking that
    doubling the inner rule from 80 moves it by at most 1e-8."""
    coarse = fn(*args, 80)
    fine = fn(*args, 160)
    assert np.max(np.abs(fine - coarse)) <= 1e-8
    return fine


# ---------------------------------------------------------------------------
# Airy kernel

def test_airy_kernel_diagonal_formula():
    for x in (-1.5, 0.0, 2.0):
        want = airy_ai_prime(x) ** 2 - x * airy_ai(x) ** 2
        assert_allclose(airy_kernel(x, x), want, rtol=1e-14)
    assert_allclose(airy_kernel(0.0, 0.0), airy_ai_prime(0.0) ** 2,
                    rtol=1e-15)


def test_airy_kernel_symmetry():
    assert airy_kernel(1.0, 2.0) == airy_kernel(2.0, 1.0)


def test_airy_kernel_accurate_through_diagonal_switch():
    # the difference quotient hands over to a stabilized confluent form
    # below |x - y| = 1e-6; check both sides of the switch against 40-digit
    # evaluations of the defining quotient
    x = 0.7
    assert_allclose(airy_kernel(x, x + 0.9e-6), 0.014892793067704676,
                    rtol=0, atol=1e-13)
    assert_allclose(airy_kernel(x, x + 1.1e-6), 0.014892789489466519,
                    rtol=0, atol=1e-11)


def test_airy_kernel_factorization():
    # independent representation: K(x, y) = int_0^inf Ai(x+u) Ai(y+u) du
    rule = gauss_legendre(200)
    u, du = map_ray(rule.nodes, 0.0)
    for x, y in ((0.5, 1.0), (-1.0, 0.3)):
        integral = np.sum(rule.weights * du
                          * airy_ai(x + u) * airy_ai(y + u))
        assert_allclose(airy_kernel(x, y), integral, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Pearcey kernel

def pearcey_integrals(x, tau, n=400, length=7.0):
    """p_k(x) and q_k(x), k = 0..3, by complex quadrature over all four lam
    rays and the whole imaginary axis, with no conjugate pairing."""
    rule = gauss_legendre(n)
    r, w = length * rule.nodes, length * rule.weights
    p = np.zeros(4, dtype=complex)
    # in along pi/4 and -3pi/4, out along -pi/4 and 3pi/4
    for angle, sign in ((0.25, -1.0), (-0.75, -1.0), (-0.25, 1.0),
                        (0.75, 1.0)):
        d = np.exp(1j * np.pi * angle)
        lam = d * r
        f = sign * d * w * np.exp(pearcey_phase(lam, tau) + lam * x)
        p += [np.sum(f * lam ** k) for k in range(4)]
    mu = 1j * length * (2.0 * rule.nodes - 1.0)
    f = 2j * length * rule.weights * np.exp(-pearcey_phase(mu, tau) - mu * x)
    q = np.array([np.sum(f * mu ** k) for k in range(4)])
    return p / (2j * np.pi), q / (2j * np.pi)


def test_pearcey_kernel_matches_its_integrals():
    # off the diagonal the integrable form, on it the p3 form, with p_k and
    # q_k from full contours: the kernel's conjugate halving and its rays
    # on [0, 6] lose nothing
    par = PearceyParams(2.0, (-1.5, -0.5, 0.25, 1.0))
    ker = PearceyKernel(par, 20)
    assert [(c.kind, c.a, c.b) for c in ker.domains] == \
        [("finite", -1.5, -0.5), ("finite", 0.25, 1.0)]
    xs = np.array([-1.2, -0.7])
    ys = np.array([0.3, 0.8])
    got = ker.entry(0, 1, xs, ys)
    for r, x in enumerate(xs):
        p, _ = pearcey_integrals(x, par.tau)
        assert np.max(np.abs(p.imag)) <= 1e-14
        for c, y in enumerate(ys):
            _, q = pearcey_integrals(y, par.tau)
            assert np.max(np.abs(q.imag)) <= 1e-14
            want = (p[2] * q[0] + p[1] * q[1] + p[0] * q[2]
                    - par.tau * p[0] * q[0]) / (x - y)
            assert_allclose(got[r, c], want.real, rtol=1e-12)
    diag = np.diag(ker.entry(1, 1, ys, ys))
    for c, y in enumerate(ys):
        p, q = pearcey_integrals(y, par.tau)
        want = p[3] * q[0] + p[2] * q[1] + p[1] * q[2] \
            - par.tau * p[1] * q[0]
        assert_allclose(diag[c], want.real, rtol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 3.0, 8.0])
def test_pearcey_p3_obeys_the_pearcey_equation(tau):
    # p3 = tau p1 - x p0, the identity the kernel's diagonal reads; the
    # quadrature's rounding is absolute, on integrands of order one
    for x in (-2.0, 0.4, 3.0):
        p, _ = pearcey_integrals(x, tau)
        scale = max(1.0, np.max(np.abs(p.real)))
        assert_allclose(p[3].real, tau * p[1].real - x * p[0].real,
                        rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("tau", [0.0, 2.0, 5.0])
def test_pearcey_diagonal_is_the_limit_off_it(tau):
    # the numerator vanishes at x = y, and the symmetric difference quotient
    # of the off-diagonal form converges to the diagonal one as O(h^2)
    ker = PearceyKernel(PearceyParams(tau, (-1.0, 1.0)), 20)
    h = 1e-4
    for x in (-0.8, 0.1, 0.7):
        row = ker.entry(0, 0, np.array([x]), np.array([x, x - h, x + h]))[0]
        assert_allclose(row[0], 0.5 * (row[1] + row[2]), rtol=0, atol=1e-8)


# The contour oracle's couplings, against their closed forms at the vertex
# of each hyperbola branch

def test_pearcey_contour_to_axis_formula():
    par = PearceyParams(0.0, (-1.0, 1.0))
    mu = 1.0j
    for lam in (1.0 + 0.0j, -1.0 + 0.0j):       # vertex of each branch
        got = branch_to_axis(np.array([lam]), np.array([mu]), par)[0, 0]
        want = np.exp(0.5 * (pearcey_phase(lam, 0.0)
                             - pearcey_phase(mu, 0.0))) \
            / (2j * np.pi * (lam - mu))
        assert_allclose(got, complex(want), rtol=1e-14)


def test_pearcey_axis_to_contour_formula():
    par = PearceyParams(0.0, (-1.0, 1.0))
    lam = 1.0j
    for mu in (1.0 + 0.0j, -1.0 + 0.0j):        # vertex of each branch
        got = axis_to_branch(np.array([lam]), np.array([mu]), par)[0, 0]
        acc = 0.0
        for k, a in enumerate(par.endpoints):
            sign = -1.0 if (k + 1) % 2 else 1.0
            acc += sign * np.exp(
                -0.5 * (pearcey_phase(lam, 0.0) - pearcey_phase(mu, 0.0))
                + a * (lam - mu))
        want = -acc / (2j * np.pi * (lam - mu))
        assert_allclose(got, complex(want), rtol=1e-14)


def test_pearcey_exponent_guard():
    """The guard reads the largest real part of a table's exponents,
    theta(lam) + lam x on the rays: about 553 at x = 200 passes, and about
    948 at x = 300 raises."""
    ker = PearceyKernel(PearceyParams(0.0, (-1.0, 1.0)), 20)
    assert np.isfinite(ker.entry(0, 0, np.array([200.0]), np.array([0.0])))
    with pytest.raises(OverflowError, match="exponent 9"):
        ker.entry(0, 0, np.array([300.0]), np.array([0.0]))


@pytest.mark.parametrize("tau", [0.0, 2.0, 4.0, 6.0])
def test_pearcey_entries_bounded_on_default_grid(tau):
    par = PearceyParams(tau, (-1.0, 1.0))
    ker = PearceyKernel(par, 60)
    x = ker.domains[0].map_points(gauss_legendre(60).nodes)[0]
    assert np.max(np.abs(ker.entry(0, 0, x, x))) <= 1.0


def test_pearcey_overflow_is_located_on_its_interval():
    # the rows of the far interval overflow, and only there
    ker = PearceyKernel(PearceyParams(2.0, (-1.0, 1.0, 300.0, 301.0)), 20)
    with pytest.raises(KernelEvaluationError, match="exponent") as info:
        assemble(ker, gauss_legendre(20))
    assert (info.value.block_row, info.value.block_col) == (1, 0)
    assert 300.0 < info.value.x < 301.0 and -1.0 < info.value.y < 1.0


def test_pearcey_params_validation():
    with pytest.raises(DomainError):
        PearceyParams(0.0, (1.0, -1.0))
    with pytest.raises(DomainError):
        PearceyParams(0.0, (0.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        PearceyParams(np.inf, (0.0, 1.0))
    assert PearceyParams(1.0, ()).endpoints == ()


# ---------------------------------------------------------------------------
# Tacnode building blocks

def test_gap_spec_normalization():
    spec = GapSpec([[(1.0, 2.0), (-1.0, 0.0)], []])
    assert spec.n_times == 2
    assert spec.flat() == [(0, -1.0, 0.0, 0.0), (0, 1.0, 2.0, 0.0)]
    merged = GapSpec([[(0.0, 1.0), (0.5, 2.0)]])
    assert merged.flat() == [(0, 0.0, 2.0, 0.0)]
    with pytest.raises(DomainError):
        GapSpec([[(0.0, 1.0, 0.2), (0.5, 2.0, 0.8)]])
    # intervals that share one point merge when their weights agree and
    # stay apart when they differ
    assert GapSpec([[(0.0, 1.0, 0.2), (1.0, 2.0, 0.2)]]).flat() \
        == [(0, 0.0, 2.0, 0.2)]
    assert GapSpec([[(1.0, 2.0, 0.8), (0.0, 1.0, 0.2)]]).flat() \
        == [(0, 0.0, 1.0, 0.2), (0, 1.0, 2.0, 0.8)]
    with pytest.raises(DomainError):
        GapSpec([[(0.0, 1.0, 0.2), (1.0, 2.0, 0.8), (1.0, 1.5, 0.2)]])
    with pytest.raises(DomainError):
        GapSpec([[(1.0, 1.0)]])
    with pytest.raises(DomainError, match=r"\[-1\.0, 1\.0\]"):
        GapSpec([[(-1.0, 1.0, np.nan)]])
    assert GapSpec([[], []]).flat() == []


def test_parse_interval_gives_real_weights_as_floats():
    # a real z assembles a real matrix, whatever type it came in as
    z = parse_interval((-1.0, 1.0, 0.3 + 0j))[2]
    assert type(z) is float and z == 0.3
    assert type(parse_interval((-1.0, 1.0))[2]) is float
    assert parse_interval((-1.0, 1.0, 0.3j))[2] == 0.3j


def test_tacnode_params_validation():
    par = TacnodeParams(-2.0, (0.0, 1.0))
    assert par.r == 2
    assert_allclose(par.sigma_tilde, -2.0 * 2.0 ** (2.0 / 3.0), rtol=1e-15)
    with pytest.raises(DomainError):
        TacnodeParams(0.0, ())
    with pytest.raises(DomainError):
        TacnodeParams(0.0, (1.0, 1.0))
    with pytest.raises(DomainError):
        TacnodeParams(np.nan, (0.0,))


def test_block_entry_edge_blocks():
    par = TacnodeParams(0.5, (0.3,))
    x = np.array([0.2, 1.0])
    y = np.array([0.4])
    assert np.all(tacnode_block_entry(-1, -1, x, y, par) == 0.0)
    assert np.all(tacnode_block_entry(0, 0, x, y, par) == 0.0)
    got = tacnode_block_entry(-1, 0, np.array([1.0]), np.array([2.0]), par)
    assert_allclose(got[0, 0], -airy_ai(3.0), rtol=1e-14)
    sym = tacnode_block_entry(0, -1, np.array([2.0]), np.array([1.0]), par)
    assert got[0, 0] == sym[0, 0]


def test_block_entry_coupling_rows_and_columns():
    par = TacnodeParams(0.5, (0.3,))
    x, y = 0.7, -0.2
    got = tacnode_block_entry(-1, 1, np.array([x]), np.array([y]), par)
    want = airy_shifted(-0.3, CBRT2 * x + par.sigma - y)
    assert_allclose(got[0, 0], want, rtol=1e-14)
    got = tacnode_block_entry(0, 1, np.array([x]), np.array([y]), par)
    want = airy_shifted(-0.3, CBRT2 * x + y - par.sigma)
    assert_allclose(got[0, 0], want, rtol=1e-14)
    got = tacnode_block_entry(1, -1, np.array([x]), np.array([y]), par)
    want = airy_shifted(0.3, par.sigma - x + CBRT2 * y)
    assert_allclose(got[0, 0], want, rtol=1e-14)
    got = tacnode_block_entry(1, 0, np.array([x]), np.array([y]), par)
    want = airy_shifted(0.3, x - par.sigma + CBRT2 * y)
    assert_allclose(got[0, 0], want, rtol=1e-14)


@pytest.mark.parametrize("sigma", [-1.0, -4.0])
def test_coupling_blocks_are_exact_transposes_at_time_zero(sigma):
    # both orientations of a coupling block read one argument, so at t = 0
    # each (gap, edge) block is its (edge, gap) block transposed, bit for
    # bit, in float64 and in double-double
    ker = TacnodeHKernel(TacnodeParams(sigma, (0.0,)),
                         GapSpec([[(-1.0, 1.0)]]))
    gap = len(ker.domains) - 1
    g = np.linspace(-1.0, 1.0, 7)
    g_dd = (g, 1e-17 * g)
    for edge in range(ker.n_edge):
        e = np.linspace(ker.domains[edge].a, ker.domains[edge].b, 5)
        e_dd = (e, 1e-17 * e)
        block = ker.entry(edge, gap, e, g)
        assert np.all(block != 0.0)
        assert np.array_equal(ker.entry(gap, edge, g, e), block.T)
        hi, lo = ker.entry_dd(edge, gap, e_dd, g_dd)
        hi_t, lo_t = ker.entry_dd(gap, edge, g_dd, e_dd)
        assert np.array_equal(hi_t, hi.T) and np.array_equal(lo_t, lo.T)


def test_block_entry_time_blocks_are_causal():
    par = TacnodeParams(0.0, (-0.5, 0.5))
    x = np.array([0.1])
    y = np.array([0.4])
    later = tacnode_block_entry(2, 1, x, y, par)
    assert_allclose(later[0, 0], -heat_kernel(1.0, 0.1, 0.4), rtol=1e-15)
    assert np.all(tacnode_block_entry(1, 2, x, y, par) == 0.0)
    assert np.all(tacnode_block_entry(1, 1, x, y, par) == 0.0)


def test_tail_cutoff_properties():
    spec = GapSpec([[(-1.0, 1.0)]])
    base = tail_cutoff(TacnodeParams(0.0, (0.0,)), spec)
    assert base >= 16.0
    assert tail_cutoff(TacnodeParams(-5.0, (0.0,)), spec) > base
    assert tail_cutoff(TacnodeParams(0.0, (2.0,)), spec) > base
    assert tail_cutoff(TacnodeParams(0.0, (0.0,)),
                       GapSpec([[(-6.0, 6.0)]])) > base
    # the decay envelope of the gauged kernel reaches e^-75 at the cutoff
    for sigma, tau, e in ((-3.0, 1.5, 1.0), (0.0, 0.0, 1.0), (-9.0, 2.0, 4.0)):
        par = TacnodeParams(sigma, (tau,))
        sp = GapSpec([[(-e, e)]])
        x = tail_cutoff(par, sp)
        s0 = abs(sigma) + e + tau * tau + 1.0
        exponent = tau * (abs(sigma) + e) \
            - (2.0 / 3.0) * (CBRT2 * x - s0) ** 1.5
        assert exponent <= -75.0 + 1e-9


def test_h_kernel_layout_and_weights():
    par = TacnodeParams(-1.0, (0.0,))
    spec = GapSpec([[(-1.0, 1.0, 0.25)]])
    ker = TacnodeHKernel(par, spec)
    doms = ker.domains
    # edge [0, X], edge [sigma_tilde, X] split at 0, one interval
    assert len(doms) == 4
    assert (doms[0].a, doms[0].b) == (0.0, ker.cutoff)
    assert (doms[1].a, doms[1].b) == (par.sigma_tilde, 0.0)
    assert (doms[2].a, doms[2].b) == (0.0, ker.cutoff)
    assert (doms[3].a, doms[3].b) == (-1.0, 1.0)
    assert ker.weights == [1.0, 1.0, 1.0, 0.75]
    with pytest.raises(DomainError):
        TacnodeHKernel(par, GapSpec([[], []]))


@pytest.mark.parametrize("sigma", [1.0, -1.0, -4.0])
def test_direct_kernel_edge_ends_at_the_ratio_cutoff(sigma):
    # one finite edge [sigma_tilde, cutoff], truncated where the ratio
    # truncates its own edges for the same (params, spec)
    par = TacnodeParams(sigma, (-0.5, 0.5))
    spec = GapSpec([[(-1.0, 0.0)], [(-2.0, 1.0, 0.3)]])
    direct = TacnodeDirectKernel(par, spec)
    ratio = TacnodeHKernel(par, spec)
    assert direct.n_edge == 1
    edge = direct.domains[0]
    assert edge == conditioning_edge(par, tail_cutoff(par, spec))
    assert edge.kind == "finite"
    assert (edge.a, edge.b) == (par.sigma_tilde, ratio.cutoff)
    assert direct.cutoff == ratio.cutoff == ratio.domains[0].b


@pytest.mark.parametrize("sigma", [1.0, 0.0, -1.0, -2.0])
def test_h_kernel_leading_block_is_the_airy_denominator(sigma):
    # the ratio's denominator F2(sigma_tilde) is the determinant of the
    # assembled numerator's leading (R+, edge) block
    par = TacnodeParams(sigma, (0.0,))
    ker = TacnodeHKernel(par, GapSpec([[(-1.0, 1.0, 0.25)]]))
    assert ker.n_edge == (2 if sigma >= 0.0 else 3)
    k = ker.n_edge * 80
    lead = determinant(assemble(ker, gauss_legendre(80))[:k, :k])
    f2 = tracy_widom_F2(par.sigma_tilde).real
    assert abs(lead - f2) <= 1e-12 * f2


@pytest.mark.parametrize("times, per_time", [
    ((0.0,), [[(-1.0, 1.0)]]),
    ((-0.5, 0.5), [[(-1.0, 0.0, 0.3)], [(0.0, 1.0, 0.7)]]),
], ids=["one-time", "two-times-weighted"])
def test_double_double_assembly_matches_float64(times, per_time):
    # one component layout, two precisions: the high part of the
    # double-double matrix must agree with the float64 assembly of the
    # same kernel on the same components (heat-kernel blocks and (1 - z)
    # column weights included)
    par = TacnodeParams(-1.0, times)
    ker = TacnodeHKernel(par, GapSpec(per_time))
    mat = assemble(ker, gauss_legendre(24))
    hi, lo = assemble_dd(ker, 24)
    assert hi.shape == mat.shape
    assert np.max(np.abs(mat.real - hi)) < 1e-13
    assert np.max(np.abs(lo)) < 1e-15


@pytest.mark.parametrize("case", ["complex-weight", "ray"])
def test_double_double_assembly_rejects_complex_weights(case):
    if case == "complex-weight":
        kernel = TacnodeHKernel(TacnodeParams(-4.0, (0.0,)),
                                GapSpec([[(-1.0, 1.0, 0.5j)]]))
    else:
        # the F2 domain: a ray has no affine double-double map
        kernel = AiryKernel([DomainComponent.ray(-2.0)])
    with pytest.raises(DomainError):
        assemble_dd(kernel, 16)


# ---------------------------------------------------------------------------
# Extended Airy kernel, coupling function, resolvent

def test_ext_airy_reduces_to_airy_at_zero_times():
    xs = np.linspace(-2.0, 2.0, 5)
    got = converged_inner(ext_airy_matrix, 0.0, 0.0, xs, xs)
    assert np.max(np.abs(got - airy_kernel_matrix(xs, xs))) < 1e-9


def test_ext_airy_time_reversal_symmetry():
    a = converged_inner(ext_airy_matrix, 0.5, -0.2, [1.0], [2.0])
    b = converged_inner(ext_airy_matrix, 0.2, -0.5, [2.0], [1.0])
    assert_allclose(a, b, rtol=1e-12)


def test_ext_airy_guards():
    # inner rules below 20 nodes are rejected wherever they enter
    with pytest.raises(DomainError):
        ext_airy_matrix(0.0, 0.0, [0.0], [0.0], 10)
    with pytest.raises(DomainError):
        coupling_matrix(0.0, [0.0], [0.0], 10)
    par = TacnodeParams(0.0, (0.0,))
    with pytest.raises(DomainError):
        FormalTacnodeKernel(par, m_inner=10)


def test_coupling_consistency_with_direct_quadrature():
    # coupling = shifted Airy minus the Airy-transformed reflection; at
    # (0, 0, 0) the subtracted term is int_0^inf 2^(1/6) Ai(2^(1/3) v) Ai(v) dv
    rule = gauss_legendre(200)
    v, dv = map_ray(rule.nodes, 0.0)
    integral = np.sum(rule.weights * dv * 2.0 ** (1.0 / 6.0)
                      * airy_ai(CBRT2 * v) * airy_ai(v))
    got = converged_inner(coupling_matrix, 0.0, [0.0], [0.0])[0, 0]
    assert_allclose(got, airy_shifted(0.0, 0.0) - integral, rtol=0, atol=1e-9)


def test_coupling_decays_along_the_ray():
    got = converged_inner(coupling_matrix, 0.0, [0.0], [15.0])[0, 0]
    assert abs(got) < 1e-6


def test_resolvent_solves_identity_like_system():
    # on the region's own nodes the conditioned kernel L is the resolvent
    # image of K: (I - K W) L = K
    ck = ConditionedKernel(AiryKernel(), DomainComponent.ray(0.0),
                           gauss_legendre(60))
    assert ck.rcond > 1e-6
    kmat = airy_kernel_matrix(ck.nodes, ck.nodes)
    mat = -kmat * ck.colw[None, :]
    mat[np.diag_indices(60)] += 1.0
    got = mat @ ck.value_matrix(0, ck.nodes, 0, ck.nodes)
    assert_allclose(got, kmat, rtol=0, atol=1e-12)


def test_resolvent_singular_far_left():
    # an edge [sigma_tilde, inf) starting deep in the bulk, at -13.5: the
    # edge block of I - K W is so ill-conditioned that the float64 rounding
    # floor of the direct route exceeds the tolerance
    par = TacnodeParams(-13.5 / 2.0 ** (2.0 / 3.0), (0.0,))
    with pytest.raises(DivisionInstabilityError) as info:
        gapprob.tacnode_gap_direct(GapSpec([[(-1.0, 1.0)]]), par)
    assert info.value.rounding_floor > info.value.tol


def _conditioned_formal(par, m):
    """The formal kernel conditioned on an empty edge [sigma_tilde, inf)
    through an explicit resolvent on the m-point ray rule."""
    return ConditionedKernel(FormalTacnodeKernel(par),
                             DomainComponent.ray(par.sigma_tilde),
                             gauss_legendre(m))


def test_direct_kernel_correction_vanishes_for_large_sigma():
    par = TacnodeParams(6.0, (0.0,))
    ck = _conditioned_formal(par, 80)
    xi = np.array([0.3])
    full = ck.value_matrix(1, xi, 1, xi)
    bare = converged_inner(ext_airy_matrix, 0.0, 0.0, par.sigma - xi,
                           par.sigma - xi)
    assert abs(full[0, 0] - bare[0, 0]) < 1e-6


def test_direct_kernel_symmetric_at_equal_times():
    par = TacnodeParams(0.0, (0.0,))
    ck = _conditioned_formal(par, 40)
    x = np.array([0.4, -0.6])
    got = ck.value_matrix(1, x, 1, x)
    assert_allclose(got[0, 1], got[1, 0], rtol=1e-12)


def _two_time_direct():
    return (GapSpec([[(-1.0, 0.0)], [(-1.0, 1.0)]]),
            TacnodeParams(-2.0, (-0.5, 0.5)))


def test_direct_kernel_builds_each_table_once_per_component(monkeypatch):
    # one kernel per call; per rung (one assembly) and gap component: one
    # coupling row, one coupling column and the two extended-Airy tables,
    # however many blocks read them; the Airy-transform table on the edge
    # points is shared by all couplings of the rung
    calls = {}

    def count(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    count(gapprob, "TacnodeDirectKernel")
    count(fredholm, "assemble")
    for name in ("_coupling_matrix", "_ext_airy_table",
                 "_airy_transform_table"):
        count(kernels, name)
    spec, par = _two_time_direct()
    gapprob.tacnode_gap_direct(spec, par)
    assert calls["TacnodeDirectKernel"] == 1
    rungs = calls["assemble"]
    assert rungs >= 2
    r = len(spec.flat())
    assert calls["_coupling_matrix"] == 2 * r * rungs
    assert calls["_ext_airy_table"] == 2 * r * rungs
    assert calls["_airy_transform_table"] == rungs


def test_direct_kernel_blocks_equal_their_formula_bit_for_bit():
    # the shared tables give the bits of the block-by-block formula: the
    # Airy kernel on the edge, the couplings between edge and gaps, and the
    # extended Airy kernel minus the heat kernel between gaps
    spec, par = _two_time_direct()
    ker = TacnodeDirectKernel(par, spec)
    assert ker.n_edge == 1
    sig = par.sigma
    pts = [dom.map_points(gauss_legendre(24).nodes)[0]
           for dom in ker.domains]
    edge = pts[0]

    def same(got, want):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    same(ker.entry(0, 0, edge, edge), airy_kernel_matrix(edge, edge))
    for i, ti in enumerate(par.times, start=1):
        x = pts[i]
        same(ker.entry(i, 0, x, edge),
             -coupling_matrix(ti, x - sig, edge, 80))
        same(ker.entry(0, i, edge, x),
             -coupling_matrix(-ti, x - sig, edge, 80).T)
        for j, tj in enumerate(par.times, start=1):
            y = pts[j]
            want = ext_airy_matrix(ti, tj, sig - x, sig - y, 80)
            if ti > tj:
                want = want - heat_kernel(ti - tj, x[:, None], y[None, :])
            same(ker.entry(i, j, x, y), want)


# ---------------------------------------------------------------------------
# Formal extended kernel and conditioning

def test_formal_kernel_block_structure():
    par = TacnodeParams(0.0, (0.0,))
    ker = FormalTacnodeKernel(par)
    x = np.array([-0.5, 0.3])
    got = ker.entry(0, 0, x, x)
    assert_allclose(got, airy_kernel_matrix(x, x), rtol=0, atol=0)
    # at tau = 0 the two coupling blocks are mutual transposes
    y = np.array([0.1, 0.8, -1.2])
    a = ker.entry(0, 1, x, y)
    b = ker.entry(1, 0, y, x)
    assert_allclose(a, b.T, rtol=0, atol=1e-14)


def test_conditioned_kernel_symmetry():
    ck = ConditionedKernel(AiryKernel(), DomainComponent.finite(1.0, 2.0),
                           gauss_legendre(60))
    assert ck.rcond > 1e-8
    a = ck.value_matrix(0, [0.2], 0, [-0.7])[0, 0]
    b = ck.value_matrix(0, [-0.7], 0, [0.2])[0, 0]
    assert_allclose(a, b, rtol=1e-12)


def test_conditioned_kernel_correction_sign():
    # conditioning on emptiness of [1, 2] raises the correlation nearby
    ck = ConditionedKernel(AiryKernel(), DomainComponent.finite(1.0, 2.0),
                           gauss_legendre(60))
    assert ck.value_matrix(0, [0.9], 0, [0.9])[0, 0] > airy_kernel(0.9, 0.9)


def test_conditioned_kernel_singular_region():
    with pytest.raises(SingularRestrictionError):
        ConditionedKernel(AiryKernel(), DomainComponent.ray(-13.5),
                          gauss_legendre(80))
