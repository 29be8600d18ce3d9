"""Tests for Gauss-Legendre rules and the domain parameter maps.

The hyperbola and imaginary-axis maps of the three-contour Pearcey oracle
live in pearcey_contours; they are checked here with the package's maps.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapdet.errors import DomainError
from gapdet.quadrature import (
    DomainComponent,
    edge_components,
    gauss_legendre,
    map_ray,
)
from pearcey_contours import (map_contour_imag, map_contour_left,
                              map_contour_right)


# ---------------------------------------------------------------------------
# Rule construction

@pytest.mark.parametrize("m", [1, 2, 8, 32, 64, 512])
def test_rule_basic_shape(m):
    rule = gauss_legendre(m)
    assert rule.m == m
    assert rule.nodes.shape == rule.weights.shape == (m,)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))
    assert np.all(rule.weights > 0.0)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-14


@pytest.mark.parametrize("m", [2, 8, 31, 32])
def test_rule_symmetry(m):
    rule = gauss_legendre(m)
    assert_allclose(rule.nodes + rule.nodes[::-1], 1.0, rtol=0, atol=1e-15)
    assert_allclose(rule.weights, rule.weights[::-1], rtol=0, atol=1e-16)


def test_smallest_rules_closed_form():
    r1 = gauss_legendre(1)
    assert_allclose(r1.nodes, [0.5], rtol=0, atol=0)
    assert_allclose(r1.weights, [1.0], rtol=0, atol=0)
    r2 = gauss_legendre(2)
    off = 1.0 / (2.0 * np.sqrt(3.0))
    assert_allclose(r2.nodes, [0.5 - off, 0.5 + off], rtol=0, atol=5e-16)
    assert_allclose(r2.weights, [0.5, 0.5], rtol=0, atol=5e-16)
    # two points integrate cubics exactly
    assert abs(np.sum(r2.weights * r2.nodes ** 3) - 0.25) < 1e-15


@pytest.mark.parametrize("m", [2, 8, 32])
def test_polynomial_exactness_to_degree_2m_minus_1(m):
    rule = gauss_legendre(m)
    for k in range(2 * m):
        got = np.sum(rule.weights * rule.nodes ** k)
        assert abs(got - 1.0 / (k + 1)) < 1e-13, (m, k)


def test_rule_bounds_rejected():
    with pytest.raises(DomainError):
        gauss_legendre(0)
    with pytest.raises(DomainError):
        gauss_legendre(513)
    with pytest.raises(DomainError):
        gauss_legendre(2.5)


def test_rules_are_cached_and_frozen():
    rule = gauss_legendre(16)
    assert gauss_legendre(16) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


# ---------------------------------------------------------------------------
# Parameter maps

MAPS = [
    ("right", map_contour_right),
    ("left", map_contour_left),
    ("imag-tan", lambda s: map_contour_imag(s)),
    ("ray", lambda s: map_ray(s, -2.0)),
]


@pytest.mark.parametrize("name,fn", MAPS)
def test_map_derivative_matches_central_differences(name, fn):
    s = np.linspace(0.05, 0.95, 20)
    h = 1e-7
    _, deriv = fn(s)
    quot = (fn(s + h)[0] - fn(s - h)[0]) / (2.0 * h)
    assert np.max(np.abs(quot - deriv) / np.abs(deriv)) < 1e-6, name


def test_contour_right_geometry():
    pt, _ = map_contour_right(np.array([0.5]))
    assert pt[0] == 1.0 + 0.0j
    s = np.linspace(1e-6, 1.0 - 1e-6, 10001)
    pt, _ = map_contour_right(s)
    # the branch lives right of Re = 1 and is symmetric under conjugation
    assert np.min(pt.real) >= 1.0 - 1e-12
    assert_allclose(pt, np.conj(pt[::-1]), rtol=1e-8)
    # asymptotic directions +-pi/4
    assert abs(np.angle(pt[0]) - np.pi / 4) < 1e-3
    assert abs(np.angle(pt[-1]) + np.pi / 4) < 1e-3


def test_contour_left_is_negated_right():
    s = np.linspace(0.1, 0.9, 7)
    pr, dr = map_contour_right(s)
    pl, dl = map_contour_left(s)
    assert_allclose(pl, -pr, rtol=0, atol=0)
    assert_allclose(dl, -dr, rtol=0, atol=0)
    assert np.max(pl.real) <= -1.0 + 1e-12


# the oracle keeps only the tan sweep of the imaginary axis
IMAG_AXIS_MAPS = {"tan": map_contour_imag}


@pytest.mark.parametrize("variant", ["tan"])
def test_imag_axis_map_properties(variant):
    imag_map = IMAG_AXIS_MAPS[variant]
    s = np.linspace(0.05, 0.95, 19)
    pt, _ = imag_map(s)
    assert np.all(pt.real == 0.0)
    # odd around s = 1/2
    rev, _ = imag_map(1.0 - s)
    assert_allclose(rev, -pt, rtol=0, atol=1e-9)
    mid, _ = imag_map(np.array([0.5]))
    assert abs(mid[0]) < 1e-15
    assert np.all(np.diff(pt.imag) > 0.0)


def test_ray_map_values_and_guards():
    pt, _ = map_ray(np.array([0.5]), 1.5)
    assert pt[0] == 1.5 + 4.0
    pt, _ = map_ray(np.array([1e-12]), -3.0)
    assert abs(pt[0] - (-3.0)) < 1e-10
    with pytest.raises(DomainError):
        map_ray(np.array([0.0]), 0.0)
    with pytest.raises(DomainError):
        map_ray(np.array([1.0]), 0.0)
    with pytest.raises(DomainError):
        map_ray(np.array([0.5]), np.inf)


def test_ray_rule_integrates_exponential():
    # int_0^inf exp(-x) dx = 1 probes the composed map + rule
    rule = gauss_legendre(40)
    pt, dp = map_ray(rule.nodes, 0.0)
    got = np.sum(rule.weights * dp * np.exp(-pt))
    assert abs(got - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# Domain components

def test_finite_component_maps_affinely():
    comp = DomainComponent.finite(-1.0, 3.0)
    t = np.array([0.0, 0.25, 1.0])
    pts, dp = comp.map_points(t)
    assert_allclose(pts, [-1.0, 0.0, 3.0], rtol=0, atol=0)
    assert_allclose(dp, 4.0, rtol=0, atol=0)
    assert comp.finite is not None  # staticmethod shadows nothing
    with pytest.raises(DomainError):
        DomainComponent.finite(1.0, 1.0)
    with pytest.raises(DomainError):
        DomainComponent.finite(0.0, np.inf)


def test_ray_component():
    ray = DomainComponent.ray(2.0)
    assert ray.kind == "ray"
    with pytest.raises(DomainError):
        DomainComponent.ray(np.inf)


def test_edge_components_split_at_origin():
    comps = edge_components(-2.5, 20.0)
    assert [(c.a, c.b) for c in comps] == [(-2.5, 0.0), (0.0, 20.0)]
    comps = edge_components(1.0, 20.0)
    assert [(c.a, c.b) for c in comps] == [(1.0, 20.0)]
    comps = edge_components(0.0, 20.0)
    assert [(c.a, c.b) for c in comps] == [(0.0, 20.0)]
    with pytest.raises(DomainError):
        edge_components(5.0, 5.0)
    with pytest.raises(DomainError):
        edge_components(-np.inf, 1.0)
