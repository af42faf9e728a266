"""Residual minimization over image cones and separating vectors."""

import numpy as np
import pytest

from oracles import grid_residual_min, sample_members, variational_check

from conedual.cones import generators, orthant, wedge
from conedual.linops import OperatorSpec, pairing, weighted_quadrature
from conedual.residual import residual_minimize

I2 = OperatorSpec(matrix=np.eye(2))


def test_b_inside_image_cone():
    res = residual_minimize(I2, np.array([1.0, 1.0]), orthant(2))
    np.testing.assert_allclose(res.gamma, [1.0, 1.0], atol=1e-10)
    assert res.value <= 1e-20


def test_projection_value_one():
    b = np.array([-1.0, 0.0])
    oracle = grid_residual_min(I2.matrix @ generators(orthant(2)), b)
    assert oracle == pytest.approx(1.0, abs=1e-5)
    res = residual_minimize(I2, b, orthant(2))
    np.testing.assert_allclose(res.gamma, [0.0, 0.0], atol=1e-12)
    assert res.value == pytest.approx(oracle, abs=1e-5)


def test_projection_value_five():
    b = np.array([-1.0, -2.0])
    oracle = grid_residual_min(I2.matrix @ generators(orthant(2)), b)
    assert oracle == pytest.approx(5.0, abs=1e-5)
    res = residual_minimize(I2, b, orthant(2))
    assert res.value == pytest.approx(oracle, abs=1e-5)


def test_preimage_representation():
    rng = np.random.default_rng(83)
    for _ in range(100):
        a = OperatorSpec(matrix=rng.uniform(-1, 1, size=(3, 3)))
        cone = orthant(3)
        b = rng.uniform(-1, 1, size=3)
        res = residual_minimize(a, b, cone)
        assert np.all(res.coefficients >= -1e-12)
        np.testing.assert_allclose(res.gamma, a.matrix @ generators(cone) @ res.coefficients, atol=1e-12)
        assert res.value >= 0.0


def test_variational_check_at_minimizer():
    b = np.array([-1.0, 0.0])
    gamma = np.array([0.0, 0.0])
    rng = np.random.default_rng(89)
    samples = sample_members(orthant(2), 1000, rng)
    assert variational_check(gamma, b, samples, tol=1e-8)


def test_variational_check_trivial_when_gamma_is_b():
    rng = np.random.default_rng(97)
    samples = sample_members(orthant(2), 100, rng)
    assert variational_check(np.array([0.5, 0.5]), np.array([0.5, 0.5]), samples, tol=0.0)


def test_variational_check_rejects_non_minimizer():
    # gamma' = (1, 0) for b = (-1, 0): the sample x = 0 witnesses
    # <gamma' - b, x - gamma'> = <(2, 0), (-1, 0)> = -2 < 0.
    assert not variational_check(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), [np.zeros(2)], tol=1e-8)


def test_separating_vector_example():
    # Off the image cone the separator is gamma - b; on it the value is 0.
    b = np.array([-1.0, 0.0])
    res = residual_minimize(I2, b, orthant(2))
    np.testing.assert_allclose(res.gamma - b, [1.0, 0.0], atol=1e-10)
    assert residual_minimize(I2, np.array([1.0, 1.0]), orthant(2)).value <= 1e-8 * 1e-8


def test_separating_vector_degenerate_image():
    # C_A is the nonnegative x-axis; b below it separates along +y.
    a = OperatorSpec(matrix=np.array([[1.0], [0.0]]))
    b = np.array([0.0, -1.0])
    alpha = residual_minimize(a, b, orthant(1)).gamma - b
    np.testing.assert_allclose(alpha, [0.0, 1.0], atol=1e-12)
    assert pairing(None, alpha, b) < 0
    image = a.matrix.T @ alpha
    assert np.all(image >= -1e-12)


def test_separator_validity_properties():
    rng = np.random.default_rng(101)
    found = 0
    while found < 50:
        dim_y = int(rng.integers(2, 5))
        dim_x = int(rng.integers(2, 5))
        a = OperatorSpec(matrix=rng.uniform(-1, 1, size=(dim_y, dim_x)))
        b = rng.uniform(-1, 1, size=dim_y)
        cone = orthant(dim_x)
        res = residual_minimize(a, b, cone)
        if res.value <= 1e-8 * 1e-8:
            continue
        alpha = res.gamma - b
        found += 1
        g = generators(cone)
        for j in range(g.shape[1]):
            assert pairing(None, a.matrix.T @ alpha, g[:, j]) >= -1e-9
        assert pairing(None, alpha, b) <= -1e-8


def test_optimality_certified_by_sampling():
    rng = np.random.default_rng(103)
    for _ in range(20):
        a = OperatorSpec(matrix=rng.uniform(-1, 1, size=(2, 2)))
        cone = wedge(rng.uniform(0.3, 1.2))
        b = rng.uniform(-1, 1, size=2)
        res = residual_minimize(a, b, cone)
        members = sample_members(cone, 1000, rng)
        images = members @ a.matrix.T
        assert variational_check(res.gamma, b, images, tol=1e-8)


def test_perturbed_minimizers_fail_variational_check():
    rng = np.random.default_rng(107)
    for _ in range(20):
        a = OperatorSpec(matrix=rng.uniform(-1, 1, size=(2, 2)))
        cone = orthant(2)
        b = rng.uniform(-1, 1, size=2) - 2.0  # push b out of the image cone
        res = residual_minimize(a, b, cone)
        if res.value < 1e-10:
            continue
        g = a.matrix @ generators(cone)
        samples = [res.gamma] + list(sample_members(cone, 200, rng) @ a.matrix.T)
        for j in range(g.shape[1]):
            d = g[:, j]
            norm = np.linalg.norm(d)
            if norm < 1e-12:
                continue
            perturbed = res.gamma + 1e-3 * d / norm
            assert not variational_check(perturbed, b, samples, tol=1e-8)


def test_scale_coherence():
    rng = np.random.default_rng(109)
    checked = 0
    while checked < 30:
        a = OperatorSpec(matrix=rng.uniform(-1, 1, size=(3, 2)))
        b = rng.uniform(-1, 1, size=3)
        res = residual_minimize(a, b, orthant(2))
        if res.value < 1e-6:
            continue
        checked += 1
        for mu in (0.5, 2.0, 7.5):
            scaled = residual_minimize(a, mu * b, orthant(2))
            assert scaled.value == pytest.approx(mu**2 * res.value, rel=1e-6)


def test_weighted_pairing_residual():
    # Row weights change the projection: check the value against the
    # scaled Euclidean problem solved independently.
    w = np.array([4.0, 1.0])
    p = weighted_quadrature(w)
    a = OperatorSpec(matrix=np.eye(2), pairing_codomain=p)
    b = np.array([-1.0, -1.0])
    res = residual_minimize(a, b, orthant(2))
    assert res.value == pytest.approx(4.0 * 1.0 + 1.0 * 1.0)
