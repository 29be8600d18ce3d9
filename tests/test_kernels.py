"""Tests for the Airy, Pearcey and tacnode kernel families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet.errors import DomainError, SingularRestrictionError
from gapdet.fredholm import assemble, assemble_dd
from gapdet.gapprob import tacnode_gap_direct
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
    tacnode_block_entry,
    tail_cutoff,
)
from gapdet.quadrature import (DomainComponent, edge_components,
                               gauss_legendre, map_ray)
from gapdet.specfun import airy_ai, airy_ai_prime, airy_shifted, heat_kernel

CBRT2 = 2.0 ** (1.0 / 3.0)

# the Pearcey kernel's component order: left branch, imaginary axis,
# right branch
LEFT, AXIS, RIGHT = 0, 1, 2


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
    u, du = map_ray(rule.nodes, 0.0, 4.0)
    for x, y in ((0.5, 1.0), (-1.0, 0.3)):
        integral = np.sum(rule.weights * du
                          * airy_ai(x + u) * airy_ai(y + u))
        assert_allclose(airy_kernel(x, y), integral, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Pearcey kernel

def test_pearcey_same_component_blocks_vanish():
    ker = PearceyKernel(PearceyParams(1.0, (-1.0, 1.0)))
    contour = np.array([1.0 + 0.5j, -1.0 - 0.5j])
    axis = np.array([0.5j, -2.0j])
    for i, j in ((LEFT, RIGHT), (RIGHT, RIGHT), (LEFT, LEFT)):
        assert np.all(ker.entry(i, j, contour, contour[::-1]) == 0.0)
    assert np.all(ker.entry(AXIS, AXIS, axis, axis[::-1]) == 0.0)


def test_pearcey_contour_to_axis_formula():
    from gapdet.specfun import pearcey_phase

    par = PearceyParams(0.0, (-1.0, 1.0))
    lam, mu = 1.0 + 0.0j, 1.0j
    ker = PearceyKernel(par)
    got = ker.entry(RIGHT, AXIS, [lam], [mu])[0, 0]
    assert ker.entry(LEFT, AXIS, [lam], [mu])[0, 0] == got
    want = np.exp(0.5 * (pearcey_phase(lam, 0.0) - pearcey_phase(mu, 0.0))) \
        / (2j * np.pi * (lam - mu))
    assert_allclose(got, complex(want), rtol=1e-14)


def test_pearcey_axis_to_contour_formula():
    from gapdet.specfun import pearcey_phase

    par = PearceyParams(0.0, (-1.0, 1.0))
    lam, mu = 1.0j, 1.0 + 0.0j
    ker = PearceyKernel(par)
    got = ker.entry(AXIS, RIGHT, [lam], [mu])[0, 0]
    assert ker.entry(AXIS, LEFT, [lam], [mu])[0, 0] == got
    acc = 0.0
    for k, a in enumerate(par.endpoints):
        sign = -1.0 if (k + 1) % 2 else 1.0
        acc += sign * np.exp(
            -0.5 * (pearcey_phase(lam, 0.0) - pearcey_phase(mu, 0.0))
            + a * (lam - mu))
    want = -acc / (2j * np.pi * (lam - mu))
    assert_allclose(got, complex(want), rtol=1e-14)


def test_pearcey_exponent_guard():
    """The guard is on the summed exponent: a row term past exp's range
    still gives a finite entry when the column term brings the sum back,
    and a sum past the guard raises."""
    from gapdet.specfun import pearcey_phase

    ker = PearceyKernel(PearceyParams(0.0, (-1.0, 1.0)))
    lam, mu = 9.0 + 0.0j, 8.0j      # exponents 820 and -512
    got = ker.entry(RIGHT, AXIS, [lam], [mu])[0, 0]
    want = np.exp(0.5 * (pearcey_phase(lam, 0.0) - pearcey_phase(mu, 0.0))) \
        / (2j * np.pi * (lam - mu))
    assert np.isfinite(got)
    # exponents near 800 carry about 2e-13 of relative rounding
    assert_allclose(got, complex(want), rtol=1e-12)
    with pytest.raises(OverflowError):
        ker.entry(RIGHT, AXIS, [10.0 + 0.0j], [0.0j])     # exponent 1250


@pytest.mark.parametrize("tau", [0.0, 2.0, 4.0, 6.0])
def test_pearcey_entries_bounded_on_default_grid(tau):
    ker = PearceyKernel(PearceyParams(tau, (-1.0, 1.0)))
    doms = PearceyKernel.domains()
    rule = gauss_legendre(60)
    pts = [d.map_points(rule.nodes)[0] for d in doms]
    for i in range(3):
        for j in range(3):
            blk = ker.entry(i, j, pts[i], pts[j])
            assert np.max(np.abs(blk)) <= 1.0


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
    assert not spec.all_empty
    assert spec.flat() == [(0, -1.0, 0.0, 0.0), (0, 1.0, 2.0, 0.0)]
    merged = GapSpec([[(0.0, 1.0), (0.5, 2.0)]])
    assert merged.flat() == [(0, 0.0, 2.0, 0.0)]
    with pytest.raises(DomainError):
        GapSpec([[(0.0, 1.0, 0.2), (0.5, 2.0, 0.8)]])
    with pytest.raises(DomainError):
        GapSpec([[(1.0, 1.0)]])
    assert GapSpec([[], []]).all_empty


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
    doms = ker.domains()
    # edge [0, X], edge [sigma_tilde, X] split at 0, one interval
    assert len(doms) == 4
    assert (doms[0].a, doms[0].b) == (0.0, ker.cutoff)
    assert (doms[1].a, doms[1].b) == (par.sigma_tilde, 0.0)
    assert (doms[2].a, doms[2].b) == (0.0, ker.cutoff)
    assert (doms[3].a, doms[3].b) == (-1.0, 1.0)
    assert [ker.weight(j) for j in range(4)] == [1.0, 1.0, 1.0, 0.75]
    with pytest.raises(DomainError):
        TacnodeHKernel(par, GapSpec([[], []]))


@pytest.mark.parametrize("times, per_time", [
    ((0.0,), [[(-1.0, 1.0)]]),
    ((-0.5, 0.5), [[(-1.0, 0.0, 0.3)], [(0.0, 1.0, 0.7)]]),
], ids=["one-time", "two-times-weighted"])
def test_double_double_assembly_matches_float64(times, per_time):
    # one component layout, two precisions: the high parts of the
    # double-double matrices must agree with the float64 assembly of the
    # same kernels on the same components (heat-kernel blocks and (1 - z)
    # column weights included), and so must the norm surrogates
    par = TacnodeParams(-1.0, times)
    ker = TacnodeHKernel(par, GapSpec(per_time))
    den_doms = edge_components(par.sigma_tilde, ker.cutoff)
    for kernel, doms in ((ker, ker.domains()),
                         (AiryKernel(len(den_doms)), den_doms)):
        mat, surrogate = assemble(kernel, doms, gauss_legendre(24))
        hi, lo, surrogate_dd = assemble_dd(kernel, doms, 24)
        assert hi.shape == mat.shape
        assert np.max(np.abs(mat.real - hi)) < 1e-13
        assert np.max(np.abs(lo)) < 1e-15
        assert abs(surrogate_dd - surrogate) <= 1e-13 * surrogate


@pytest.mark.parametrize("case", ["complex-weight", "ray"])
def test_double_double_assembly_rejects_complex_weights(case):
    if case == "complex-weight":
        kernel = TacnodeHKernel(TacnodeParams(-4.0, (0.0,)),
                                GapSpec([[(-1.0, 1.0, 0.5j)]]))
        doms = kernel.domains()
    else:
        # the F2 domain: a ray has no affine double-double map
        kernel, doms = AiryKernel(1), [DomainComponent.ray(-2.0)]
    with pytest.raises(DomainError):
        assemble_dd(kernel, doms, 16)


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
    with pytest.raises(DomainError):
        tacnode_gap_direct(GapSpec([[(-1.0, 1.0)]]), par, m_inner=10)


def test_coupling_consistency_with_direct_quadrature():
    # coupling = shifted Airy minus the Airy-transformed reflection; at
    # (0, 0, 0) the subtracted term is int_0^inf 2^(1/6) Ai(2^(1/3) v) Ai(v) dv
    rule = gauss_legendre(200)
    v, dv = map_ray(rule.nodes, 0.0, 4.0)
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
    ck = ConditionedKernel(AiryKernel(1), DomainComponent.ray(0.0),
                           gauss_legendre(60))
    assert ck.rcond > 1e-6
    kmat = airy_kernel_matrix(ck.nodes, ck.nodes)
    mat = -kmat * ck.colw[None, :]
    mat[np.diag_indices(60)] += 1.0
    got = mat @ ck.value_matrix(0, ck.nodes, 0, ck.nodes)
    assert_allclose(got, kmat, rtol=0, atol=1e-12)


def test_resolvent_singular_far_left():
    # an edge [sigma_tilde, inf) starting deep in the bulk, at -13.5: the
    # restriction of I - K loses invertibility
    par = TacnodeParams(-13.5 / 2.0 ** (2.0 / 3.0), (0.0,))
    with pytest.raises(SingularRestrictionError):
        TacnodeDirectKernel(par, GapSpec([[(-1.0, 1.0)]]), 80)


def test_direct_kernel_correction_vanishes_for_large_sigma():
    par = TacnodeParams(6.0, (0.0,))
    ker = TacnodeDirectKernel(par, GapSpec([[(-1.0, 1.0)]]), 80)
    xi = np.array([0.3])
    full = ker.entry(0, 0, xi, xi)
    bare = converged_inner(ext_airy_matrix, 0.0, 0.0, par.sigma - xi,
                           par.sigma - xi)
    assert abs(full[0, 0] - bare[0, 0]) < 1e-6


def test_direct_kernel_symmetric_at_equal_times():
    par = TacnodeParams(0.0, (0.0,))
    ker = TacnodeDirectKernel(par, GapSpec([[(-1.0, 1.0)]]), 40)
    x = np.array([0.4, -0.6])
    got = ker.entry(0, 0, x, x)
    assert_allclose(got[0, 1], got[1, 0], rtol=1e-12)


# ---------------------------------------------------------------------------
# Formal extended kernel and conditioning

def test_formal_kernel_block_structure():
    par = TacnodeParams(0.0, (0.0,))
    ker = FormalTacnodeKernel(par)
    assert ker.n_blocks == 2
    x = np.array([-0.5, 0.3])
    got = ker.entry(0, 0, x, x)
    assert_allclose(got, airy_kernel_matrix(x, x), rtol=0, atol=0)
    # at tau = 0 the two coupling blocks are mutual transposes
    y = np.array([0.1, 0.8, -1.2])
    a = ker.entry(0, 1, x, y)
    b = ker.entry(1, 0, y, x)
    assert_allclose(a, b.T, rtol=0, atol=1e-14)


def test_conditioned_kernel_symmetry():
    ck = ConditionedKernel(AiryKernel(1), DomainComponent.finite(1.0, 2.0),
                           gauss_legendre(60))
    assert ck.rcond > 1e-8
    a = ck.value(0, 0.2, 0, -0.7)
    b = ck.value(0, -0.7, 0, 0.2)
    assert_allclose(a, b, rtol=1e-12)


def test_conditioned_kernel_correction_sign():
    # conditioning on emptiness of [1, 2] raises the correlation nearby
    ck = ConditionedKernel(AiryKernel(1), DomainComponent.finite(1.0, 2.0),
                           gauss_legendre(60))
    assert ck.value(0, 0.9, 0, 0.9) > airy_kernel(0.9, 0.9)


def test_conditioned_kernel_singular_region():
    with pytest.raises(SingularRestrictionError):
        ConditionedKernel(AiryKernel(1), DomainComponent.ray(-13.5),
                          gauss_legendre(80))
