"""Tests for matrix assembly, determinants and the doubling ladder."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet import ddmath, fredholm
from gapdet.errors import (DivisionInstabilityError, DomainError,
                           KernelEvaluationError, NonConvergenceError,
                           SanityCheckError)
from gapdet.fredholm import (BlockKernel, assemble, assemble_dd, det_at,
                             det_at_dd, determinant, fredholm_det,
                             inverse_rcond, ladder)
from gapdet.gapprob import tacnode_gap_direct, tacnode_gap_ratio
from gapdet.kernels import (AiryKernel, GapSpec, TacnodeDirectKernel,
                            TacnodeHKernel, TacnodeParams,
                            airy_kernel_matrix)
from gapdet.quadrature import DomainComponent, gauss_legendre


class SeparableKernel(BlockKernel):
    """Rank-one kernel f(x) g(y), any number of identical blocks."""

    def __init__(self, f, g, domains):
        super().__init__(domains)
        self.f = f
        self.g = g

    def entry(self, i, j, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.f(x)[:, None] * self.g(y)[None, :]


class ZeroKernel(BlockKernel):
    def entry(self, i, j, x, y):
        return np.zeros((len(x), len(y)))


class BlockDiagonalKernel(BlockKernel):
    """Two decoupled smooth blocks."""

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

def test_inverse_rcond_is_exact_one_norm_rcond():
    # ||A||_1 = 2 and ||A^-1||_1 = 1001, both from the first column
    a = np.array([[1.0, 0.0], [1.0, 1e-3]])
    inv, rcond = inverse_rcond(a)
    assert_allclose(inv @ a, np.eye(2), rtol=0, atol=1e-12)
    assert_allclose(rcond, 1.0 / (2.0 * 1001.0), rtol=1e-12)
    assert inverse_rcond(np.zeros((2, 2))) == (None, 0.0)


def test_assemble_zero_kernel_gives_identity():
    mat = assemble(ZeroKernel([DomainComponent.finite(0, 1)]),
                   gauss_legendre(12))
    assert_allclose(mat, np.eye(12), rtol=0, atol=0)


def test_block_kernel_weight_count_mismatch():
    # one column weight per component: a short list would otherwise drop
    # components from the assembly without a word
    comp = DomainComponent.finite(0, 1)
    with pytest.raises(DomainError):
        BlockKernel([comp, comp], [1.0])


def test_assemble_localizes_kernel_failures():
    class FailingKernel(BlockKernel):
        def entry(self, i, j, x, y):
            if np.max(np.real(x)) > 0.9:
                raise DomainError("synthetic failure")
            return np.zeros((len(x), len(y)))

    with pytest.raises(KernelEvaluationError) as info:
        assemble(FailingKernel([DomainComponent.finite(0, 1)]),
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


def test_assemble_refuses_a_complex_block_on_real_points():
    # a real matrix cannot hold the block, and its imaginary part must not
    # be dropped
    class ComplexKernel(BlockKernel):
        def entry(self, i, j, x, y):
            return 1j * np.outer(x, y)
    with pytest.raises(TypeError):
        assemble(ComplexKernel([DomainComponent.finite(0.0, 1.0)]),
                 gauss_legendre(8))


# ---------------------------------------------------------------------------
# The float64 rung

def test_det_at_without_edge_is_the_plain_determinant():
    ker = AiryKernel([DomainComponent.ray(-2.0)])
    assert ker.n_edge == 0
    value, parts = det_at(ker, 40)
    assert value == determinant(assemble(ker, gauss_legendre(40)))
    assert parts == {}


@pytest.mark.parametrize("make", [TacnodeHKernel, TacnodeDirectKernel],
                         ids=["ratio", "direct"])
def test_det_at_is_the_schur_complement_determinant(make):
    ker = make(TacnodeParams(-2.0, (-0.5, 0.5)),
               GapSpec([[(-1.0, 0.0)], [(-1.0, 1.0, 0.3)]]))
    m = 20
    mat = assemble(ker, gauss_legendre(m))
    k = ker.n_edge * m
    assert k > 0
    lead = mat[:k, :k]
    oracle = determinant(mat[k:, k:]
                         - mat[k:, :k] @ np.linalg.solve(lead, mat[:k, k:]))
    label = {"route": "label"}
    assert det_at(ker, m, label) == (oracle, label)
    value, parts = det_at(ker, m, label, measure=True)
    assert value == oracle
    rc_num, rc_den = inverse_rcond(mat)[1], inverse_rcond(lead)[1]
    assert parts == {"route": "label", "rcond_numerator": rc_num,
                     "rcond_denominator": rc_den,
                     "rounding_floor": 2.0 ** -52 * (1 / rc_num + 1 / rc_den)}


# ---------------------------------------------------------------------------
# Double-double rung: the identity edge block eliminated by one product

def dd_rung(monkeypatch, kernel, m):
    """det_at_dd's double-double det S, caught on its way out of dd_det,
    and the order of the matrix that dd_det factored."""
    seen = []

    def record(hi, lo, lead=0):
        seen.append((ddmath.dd_det(hi, lo, lead), len(hi)))
        return seen[-1][0]
    monkeypatch.setattr(fredholm, "dd_det", record)
    label = {"route": "label"}
    value, parts = det_at_dd(kernel, m, label)
    assert parts is label and value == seen[-1][0][0]
    return seen[-1]


def full_lu(kernel, m):
    """The oracle: dd_det of the whole of N, its leading edge block as the
    lead."""
    return ddmath.dd_det(*assemble_dd(kernel, m), lead=kernel.n_edge * m)


def dd_gap(got, want):
    return abs((got[0] - want[0]) + (got[1] - want[1]))


DD_RUNGS = [
    # sigma, times, per-time intervals, m
    (-5.0, (0.0,), [[(-1.0, 1.0)]], 40),
    (-5.0, (0.0,), [[(-1.0, 1.0, 0.5)]], 40),
    (-6.0, (0.0,), [[(-1.0, 0.0), (0.5, 1.0)]], 30),
    # heat coupling: the gap-gap block is not I
    (-6.0, (-0.5, 0.5), [[(-1.0, 0.0, 0.3)], [(-1.0, 1.0)]], 30),
    # sigma_tilde >= 0: one edge component, n_edge = 2
    (0.5, (0.0,), [[(-1.0, 1.0)]], 40),
]


@pytest.mark.parametrize("sigma, times, per_time, m", DD_RUNGS)
def test_dd_rung_matches_the_full_lu(monkeypatch, sigma, times, per_time, m):
    ker = TacnodeHKernel(TacnodeParams(sigma, times), GapSpec(per_time))
    n_gaps = len(ker.domains) - ker.n_edge
    assert ker.identity_block == tuple(range(1, ker.n_edge))
    det, order = dd_rung(monkeypatch, ker, m)
    assert order == (1 + n_gaps) * m
    want = full_lu(ker, m)
    assert dd_gap(det, want) <= 1e-24 * abs(want[0])


@pytest.mark.parametrize("sigma, z", [(-7.0, 0.0), (-7.0, 0.5),
                                      (-9.0, 0.0)])
def test_dd_rung_within_the_ladder_err_of_the_full_lu(monkeypatch, sigma, z):
    # from sigma = -7 both eliminations are rounding-limited: at m = 80 they
    # differ by 1e-19 relative at -7 and by 1e-13 at -9, where the rungs
    # themselves scatter by 2e-12; the m = 80 rung must stay within the
    # err that the ladder reports for the row
    spec = GapSpec([[(-1.0, 1.0, z)]])
    par = TacnodeParams(sigma, (0.0,))
    res = tacnode_gap_ratio(spec, par)
    assert res.parts["route"] == "double-double"
    assert res.m_used[0] > 80
    det, _ = dd_rung(monkeypatch, TacnodeHKernel(par, spec), 80)
    assert dd_gap(det, full_lu(TacnodeHKernel(par, spec), 80)) \
        <= res.err_estimate


def test_dd_rung_positive_sigma_row_takes_double_double():
    # sigma = 0.5 has a float64 floor of about 2e-15, so a tolerance of
    # 1e-15 sends it through the rung with one edge component
    res = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                            TacnodeParams(0.5, (0.0,)), tol=1e-15)
    assert res.parts["route"] == "double-double"
    f64 = tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                            TacnodeParams(0.5, (0.0,)))
    assert abs(res.real - f64.real) <= f64.err_estimate


@pytest.mark.parametrize("extra", [0, 3], ids=["R+", "gap"])
def test_dd_rung_refuses_a_block_that_is_not_the_identity(extra):
    # R+ couples to the edge, and a gap lies outside the edge: neither may
    # join the identity block
    ker = TacnodeHKernel(TacnodeParams(-5.0, (0.0,)),
                         GapSpec([[(-1.0, 1.0)]]))
    ker.identity_block = (extra,) + ker.identity_block
    with pytest.raises(SanityCheckError):
        det_at_dd(ker, 20, {})


def test_dd_rung_without_identity_block_factors_all_of_n(monkeypatch):
    ker = TacnodeHKernel(TacnodeParams(-5.0, (0.0,)),
                         GapSpec([[(-1.0, 1.0)]]))
    ker.identity_block = ()
    det, order = dd_rung(monkeypatch, ker, 20)
    assert order == len(ker.domains) * 20
    assert det == full_lu(ker, 20)


# ---------------------------------------------------------------------------
# Fredholm ladder

def test_rank_one_kernel_closed_form():
    # for K(x,y) = f(x) f(y) on [0,1]: det(I - K) = 1 - int f^2
    res = fredholm_det(SeparableKernel(np.exp, np.exp,
                                       [DomainComponent.finite(0.0, 1.0)]),
                       m0=20)
    exact = 1.0 - (math.e ** 2 - 1.0) / 2.0
    assert_allclose(res.real, exact, rtol=0, atol=1e-10)
    assert res.imag_residual < 1e-14


def test_zero_kernel_determinant_is_one():
    res = fredholm_det(ZeroKernel([DomainComponent.finite(0.0, 1.0)]), m0=10)
    assert res.value == 1.0 + 0.0j
    assert res.err_estimate == np.spacing(1.0)
    assert res.m_used == (20,)


def test_no_domains_determinant_is_one():
    res = fredholm_det(BlockKernel(), m0=10)
    assert res.value == 1.0 + 0.0j


def test_block_diagonal_multiplicativity():
    doms = [DomainComponent.finite(0.0, 1.0),
            DomainComponent.finite(-1.0, 0.5)]
    full = fredholm_det(BlockDiagonalKernel(doms), m0=20)

    class Solo(BlockKernel):
        def __init__(self, which):
            super().__init__([doms[which]])
            self.which = which

        def entry(self, i, j, x, y):
            return BlockDiagonalKernel().entry(self.which, self.which, x, y)

    d0 = fredholm_det(Solo(0), m0=20)
    d1 = fredholm_det(Solo(1), m0=20)
    assert abs(full.value - d0.value * d1.value) < 1e-12


def test_airy_ray_converges_and_is_stable_in_m0():
    ker = AiryKernel([DomainComponent.ray(0.0)])
    a = fredholm_det(ker, m0=30)
    b = fredholm_det(ker, m0=60)
    assert abs(a.value - b.value) < 1e-10
    assert a.err_estimate < 1e-8


def test_err_estimate_shrinks_on_refinement():
    # smooth kernel: the Cauchy difference at 2 m0 is no larger than at m0.
    # The rules are small enough that both differences are quadrature
    # error: from m = 10 on this rank-one determinant is exact to a few ulp,
    # and the order of two such differences is decided by the LU's rounding
    ker = SeparableKernel(np.cos, np.sin, [DomainComponent.finite(0.0, 1.0)])
    d2 = det_at(ker, 2)[0]
    d4 = det_at(ker, 4)[0]
    d8 = det_at(ker, 8)[0]
    assert 1e-14 < abs(d8 - d4) <= abs(d4 - d2)


def test_rcond_bounds_probability_like_values():
    # contraction: s = ||K W||_1 < 1 bounds ||A||_1 <= 1 + s and, by the
    # Neumann series, ||A^-1||_1 <= 1 / (1 - s) for A = I - K W, so rcond
    # is at least (1 - s) / (1 + s) and det(I - K) lies in (0, 2)
    ker = AiryKernel([DomainComponent.finite(0.0, 2.0)])
    mat = assemble(ker, gauss_legendre(20))
    s = np.linalg.norm(np.eye(20) - mat, 1)
    assert s < 1.0
    assert inverse_rcond(mat)[1] >= (1.0 - s) / (1.0 + s)
    assert 0.0 < fredholm_det(ker, m0=20).real < 2.0


# Every ladder in the package, as (m0, tol) -> DetResult, with a start and
# a tolerance it cannot meet: the jump kernel converges only slowly, the
# ratio route, whose float64 rounding floor exceeds 1e-17, climbs in
# double-double to the one-ulp floor, where two rungs that round to the
# same float still leave 1e-17 out of reach, and from m0 = 10 both tacnode
# routes stay in float64 (their rounding floors are about 3e-15 and 1.5e-15)
# but their rungs 20 and 40 still differ, by about 9e-8 on the ratio and
# 7.6e-11 on the direct route.
def jump_det(m0, tol):
    return fredholm_det(JumpKernel([DomainComponent.finite(0.0, 1.0)]),
                        m0=m0, tol=tol)


def tacnode_ratio(m0, tol):
    return tacnode_gap_ratio(GapSpec([[(-1.0, 1.0)]]),
                             TacnodeParams(0.0, (0.0,)), m0=m0, tol=tol)


def tacnode_direct(m0, tol):
    return tacnode_gap_direct(GapSpec([[(-1.0, 1.0)]]),
                              TacnodeParams(0.0, (0.0,)), m0=m0, tol=tol)


LADDERS = [pytest.param(jump_det, 10, 1e-14, id="fredholm_det"),
           pytest.param(tacnode_ratio, 40, 1e-17, id="tacnode_gap_ratio"),
           pytest.param(tacnode_ratio, 10, 1e-8, id="tacnode_gap_ratio_f64"),
           pytest.param(tacnode_direct, 10, 1e-11, id="tacnode_gap_direct")]


@pytest.mark.parametrize("run, m0, tol", LADDERS)
def test_non_convergence_reports_last_two_values(run, m0, tol):
    with pytest.raises(NonConvergenceError) as info:
        run(m0, tol)
    err = info.value
    assert len(err.values) == 2
    assert err.err_estimate > tol
    assert err.err_estimate == max(abs(err.values[1] - err.values[0]),
                                   np.spacing(abs(err.values[1])))


def test_nan_rung_is_never_converged():
    # nan > tol is False, so a NaN estimate must be tested as not <= tol:
    # the ladder climbs to 4*m0 and raises instead of returning NaN
    rungs = []

    def rung(m):
        rungs.append(m)
        return math.nan, {}
    with pytest.raises(NonConvergenceError) as info:
        ladder(rung, 10, 1e-8, 1)
    assert rungs == [10, 20, 40]
    assert math.isnan(info.value.err_estimate)


def counting_rung(values, floor=None, precision="float64"):
    """Fake rung reading its value from ``values[m]``; it reports ``floor``
    and an rcond on its first call only, as a measuring m0 rung does, and
    records every m it is called at in ``calls``."""
    calls = []

    def rung(m):
        parts = {"precision": precision, "m": m}
        if not calls and floor is not None:
            parts.update(rounding_floor=floor, rcond=0.25)
        calls.append(m)
        return values[m], parts
    rung.calls = calls
    return rung


@pytest.mark.parametrize("values, m_final", [
    ({10: 0.5, 20: 0.5}, 20),
    ({10: 0.5, 20: 0.5 + 1e-6, 40: 0.5 + 1e-6}, 40),
], ids=["2m0", "4m0"])
def test_ladder_within_floor_runs_each_rung_once(values, m_final):
    # the m0 value is reused, and the m0 floor bounds the estimate on every
    # later rung, which reports none of its own
    rung = counting_rung(values, floor=1e-9)
    fallback = counting_rung(values, precision="double-double")
    res = ladder(rung, 10, 1e-8, 2, fallback)
    assert rung.calls == sorted(values)
    assert fallback.calls == []
    assert res.value == 0.5 + 1e-6 * (m_final == 40)
    assert res.err_estimate == 1e-9 * abs(res.value)
    assert res.m_used == (m_final, m_final)
    assert res.parts == {"precision": "float64", "m": m_final,
                         "rounding_floor": 1e-9, "rcond": 0.25}


@pytest.mark.parametrize("values, m_final", [
    ({10: 3e-10, 20: 1e-10}, 20),
    ({10: 1.0, 20: 0.0, 40: 0.0}, 40),
], ids=["err-above-value", "exact-zero"])
def test_ladder_refuses_a_value_with_no_correct_digit(values, m_final):
    # an estimate within tol but not below |value| backs no digit of it
    with pytest.raises(NonConvergenceError) as info:
        ladder(counting_rung(values), 10, 1e-8, 1)
    prev, curr = values[m_final // 2], values[m_final]
    assert info.value.values == (prev, curr)
    assert info.value.err_estimate == max(abs(curr - prev),
                                          np.spacing(abs(curr)))
    assert info.value.err_estimate >= abs(curr)
    assert "no correct digit" in str(info.value)


def test_ladder_floor_above_tol_runs_fallback_from_m0():
    rung = counting_rung({10: 0.5}, floor=1e-6)
    fallback = counting_rung({10: 0.5, 20: 0.5 + 1e-12},
                             precision="double-double")
    res = ladder(rung, 10, 1e-8, 1, fallback)
    assert rung.calls == [10]
    assert fallback.calls == [10, 20]
    # the fallback reports no floor, so its estimate is the rung difference
    assert res.err_estimate == abs((0.5 + 1e-12) - 0.5)
    # the float64 m0 floor that chose the fallback stays in parts
    assert res.parts == {"precision": "double-double", "m": 20,
                         "rounding_floor": 1e-6, "rcond": 0.25}


def test_ladder_floor_above_tol_without_fallback_raises():
    rung = counting_rung({10: 0.5}, floor=1e-6)
    with pytest.raises(DivisionInstabilityError) as info:
        ladder(rung, 10, 1e-8, 1)
    assert rung.calls == [10]
    assert info.value.rounding_floor == 1e-6
    assert info.value.tol == 1e-8


def test_nan_floor_is_never_within_tol():
    # max(diff, ulp, nan) keeps diff, so a NaN floor must be refused at m0
    with pytest.raises(DivisionInstabilityError) as info:
        ladder(lambda m: (0.5, {"rounding_floor": math.nan}), 10, 1e-8, 1)
    assert math.isnan(info.value.rounding_floor)
    # the fallback's own m0 floor is tested the same way
    for floor in (math.nan, 1e-6):
        fallback = counting_rung({10: 0.5}, floor=floor)
        with pytest.raises(DivisionInstabilityError) as info:
            ladder(counting_rung({10: 0.5}, floor=1e-7), 10, 1e-8, 1,
                   fallback)
        assert fallback.calls == [10]
        np.testing.assert_equal(info.value.rounding_floor, floor)


def test_direct_route_refuses_a_tolerance_below_its_rounding_floor():
    # the direct route has no double-double rung, so a tolerance below its
    # float64 rounding floor (about 1.6e-15 at sigma = 0) is refused
    with pytest.raises(DivisionInstabilityError) as info:
        tacnode_direct(40, 1e-17)
    assert info.value.tol == 1e-17
    assert info.value.rounding_floor > 1e-17


@pytest.mark.parametrize("run, m0, tol", LADDERS)
def test_m0_floor(run, m0, tol):
    with pytest.raises(DomainError):
        run(5, 1e-8)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("run, m0, _", LADDERS)
def test_unusable_tol(run, m0, _, tol):
    # a NaN tolerance would be met by any estimate, and no estimate meets
    # zero; both are refused before the first rung
    with pytest.raises(DomainError):
        run(m0, tol)
