"""Tests for matrix assembly, determinants and the doubling ladder."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet.errors import (DomainError, KernelEvaluationError,
                           NonConvergenceError)
from gapdet.fredholm import (BlockKernel, assemble, det_at, determinant,
                             fredholm_det)
from gapdet.gapprob import tacnode_gap_direct, tacnode_gap_ratio
from gapdet.kernels import (AiryKernel, GapSpec, TacnodeParams,
                            airy_kernel_matrix)
from gapdet.quadrature import DomainComponent, gauss_legendre


class SeparableKernel(BlockKernel):
    """Rank-one kernel f(x) g(y), any number of identical blocks."""

    def __init__(self, f, g, n_blocks=1):
        self.f = f
        self.g = g
        self.n_blocks = n_blocks

    def entry(self, i, j, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.f(x)[:, None] * self.g(y)[None, :]


class ZeroKernel(BlockKernel):
    def entry(self, i, j, x, y):
        return np.zeros((len(x), len(y)))


class BlockDiagonalKernel(BlockKernel):
    """Two decoupled smooth blocks."""

    n_blocks = 2

    def entry(self, i, j, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if i != j:
            return np.zeros((len(x), len(y)))
        if i == 0:
            return np.exp(-(x[:, None] - y[None, :]) ** 2)
        return np.cos(x)[:, None] * np.sin(y + 0.3)[None, :]


class JumpKernel(BlockKernel):
    """Discontinuous along the diagonal; Gauss rules converge only slowly."""

    def entry(self, i, j, x, y):
        return np.sign(np.subtract.outer(np.asarray(x), np.asarray(y)))


# ---------------------------------------------------------------------------
# Plain determinants

def test_determinant_identity_and_diagonal():
    assert determinant(np.eye(7)) == 1.0 + 0.0j
    got = determinant(np.diag([1.0, 2.0, 3.0]))
    assert_allclose(got, 6.0, rtol=0, atol=1e-15)


def test_determinant_empty_matrix_is_one():
    assert determinant(np.zeros((0, 0))) == 1.0 + 0.0j


def test_determinant_against_cofactor_expansion():
    def cofactor_det(a):
        n = a.shape[0]
        if n == 1:
            return a[0, 0]
        total = 0.0
        for j in range(n):
            minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
            total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
        return total

    rng = np.random.default_rng(20240815)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert_allclose(determinant(a), cofactor_det(a), rtol=1e-12)


def test_determinant_singular_flag():
    # a matrix singular to working precision has determinant exactly 0
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert determinant(a) == 0.0
    assert determinant(np.eye(2)) == 1.0


def test_determinant_rejects_non_finite():
    a = np.eye(3)
    a[1, 2] = np.inf
    with pytest.raises(DomainError):
        determinant(a)


def test_determinant_rejects_non_square():
    with pytest.raises(DomainError):
        determinant(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        determinant(np.zeros(4))


# ---------------------------------------------------------------------------
# Assembly

def test_assemble_zero_kernel_gives_identity():
    mat, surrogate = assemble(ZeroKernel(), [DomainComponent.finite(0, 1)],
                              gauss_legendre(12))
    assert_allclose(mat, np.eye(12), rtol=0, atol=0)
    assert surrogate == 0.0


def test_assemble_block_count_mismatch():
    with pytest.raises(DomainError):
        assemble(ZeroKernel(), [DomainComponent.finite(0, 1)] * 2,
                 gauss_legendre(8))


def test_assemble_localizes_kernel_failures():
    class FailingKernel(BlockKernel):
        def entry(self, i, j, x, y):
            if np.max(np.real(x)) > 0.9:
                raise DomainError("synthetic failure")
            return np.zeros((len(x), len(y)))

    with pytest.raises(KernelEvaluationError) as info:
        assemble(FailingKernel(), [DomainComponent.finite(0, 1)],
                 gauss_legendre(8))
    assert info.value.block_row == 0
    assert info.value.block_col == 0
    assert info.value.x is not None and info.value.x > 0.9


def test_column_weighting_matches_symmetric_weighting():
    # one-sided weighting M = I - K diag(w) and the symmetric variant
    # M' = I - diag(sqrt(w)) K diag(sqrt(w)) are similar matrices, so the
    # determinants agree
    rule = gauss_legendre(30)
    dom = DomainComponent.finite(-2.0, 2.0)
    pts, dp = dom.map_points(rule.nodes)
    w = rule.weights * dp
    kmat = airy_kernel_matrix(pts, pts)
    one_sided = np.eye(30) - kmat * w[None, :]
    root = np.sqrt(w)
    symmetric = np.eye(30) - root[:, None] * kmat * root[None, :]
    d1 = determinant(one_sided)
    d2 = determinant(symmetric)
    assert abs(d1 - d2) < 1e-12


# ---------------------------------------------------------------------------
# Fredholm ladder

def test_rank_one_kernel_closed_form():
    # for K(x,y) = f(x) f(y) on [0,1]: det(I - K) = 1 - int f^2
    res = fredholm_det(SeparableKernel(np.exp, np.exp),
                       [DomainComponent.finite(0.0, 1.0)], m0=20)
    exact = 1.0 - (math.e ** 2 - 1.0) / 2.0
    assert_allclose(res.real, exact, rtol=0, atol=1e-10)
    assert res.imag_residual < 1e-14


def test_zero_kernel_determinant_is_one():
    res = fredholm_det(ZeroKernel(), [DomainComponent.finite(0.0, 1.0)],
                       m0=10)
    assert res.value == 1.0 + 0.0j
    assert res.err_estimate == np.spacing(1.0)
    assert res.m_used == (20,)


def test_no_domains_determinant_is_one():
    class Empty(BlockKernel):
        n_blocks = 0

    res = fredholm_det(Empty(), [], m0=10)
    assert res.value == 1.0 + 0.0j


def test_block_diagonal_multiplicativity():
    doms = [DomainComponent.finite(0.0, 1.0),
            DomainComponent.finite(-1.0, 0.5)]
    full = fredholm_det(BlockDiagonalKernel(), doms, m0=20)

    class Solo(BlockKernel):
        def __init__(self, which):
            self.which = which

        def entry(self, i, j, x, y):
            return BlockDiagonalKernel().entry(self.which, self.which, x, y)

    d0 = fredholm_det(Solo(0), [doms[0]], m0=20)
    d1 = fredholm_det(Solo(1), [doms[1]], m0=20)
    assert abs(full.value - d0.value * d1.value) < 1e-12


def test_airy_ray_converges_and_is_stable_in_m0():
    dom = [DomainComponent.ray(0.0)]
    a = fredholm_det(AiryKernel(1), dom, m0=30)
    b = fredholm_det(AiryKernel(1), dom, m0=60)
    assert abs(a.value - b.value) < 1e-10
    assert a.err_estimate < 1e-8


def test_err_estimate_shrinks_on_refinement():
    # smooth kernel: the Cauchy difference at 2 m0 is no larger than at m0.
    # The rules are small enough that both differences are quadrature
    # error: from m = 10 on this rank-one determinant is exact to a few ulp,
    # and the order of two such differences is decided by the LU's rounding
    dom = [DomainComponent.finite(0.0, 1.0)]
    ker = SeparableKernel(np.cos, np.sin)
    d2, _ = det_at(ker, dom, 2)
    d4, _ = det_at(ker, dom, 4)
    d8, _ = det_at(ker, dom, 8)
    assert 1e-14 < abs(d8 - d4) <= abs(d4 - d2)


def test_norm_surrogate_bounds_probability_like_values():
    # contraction: surrogate < 1 forces det(I - K) into (0, 2)
    dom = [DomainComponent.finite(0.0, 2.0)]
    res = fredholm_det(AiryKernel(1), dom, m0=20)
    assert res.norm_surrogate < 1.0
    assert 0.0 < res.real < 2.0


# Every ladder in the package, as (m0, tol) -> DetResult, with a start and
# a tolerance it cannot meet: the jump kernel converges only slowly, and
# the float64 tacnode routes at sigma = 0 stall at rounding level, where
# the estimate's one-ulp floor keeps 1e-17 out of reach even when the last
# two rungs round to the same float.
def jump_det(m0, tol):
    return fredholm_det(JumpKernel(), [DomainComponent.finite(0.0, 1.0)],
                        m0=m0, tol=tol)


def tacnode_ratio(m0, tol):
    return tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                             TacnodeParams(0.0, (0.0,)), m0=m0, tol=tol)


def tacnode_direct(m0, tol):
    return tacnode_gap_direct(GapSpec([[(-1.0, 1.0)]]),
                              TacnodeParams(0.0, (0.0,)), m0=m0, tol=tol)


LADDERS = [pytest.param(jump_det, 10, 1e-14, id="fredholm_det"),
           pytest.param(tacnode_ratio, 40, 1e-17, id="tacnode_gap_ratio"),
           pytest.param(tacnode_direct, 40, 1e-17, id="tacnode_gap_direct")]


@pytest.mark.parametrize("run, m0, tol", LADDERS)
def test_non_convergence_reports_last_two_values(run, m0, tol):
    with pytest.raises(NonConvergenceError) as info:
        run(m0, tol)
    err = info.value
    assert len(err.values) == 2
    assert err.err_estimate > tol
    assert err.err_estimate == max(abs(err.values[1] - err.values[0]),
                                   np.spacing(abs(err.values[1])))


@pytest.mark.parametrize("run, m0, tol", LADDERS)
def test_m0_floor(run, m0, tol):
    with pytest.raises(DomainError):
        run(5, 1e-8)
