"""Operators, adjoints, pairings, and the complex embedding."""

import numpy as np
import pytest

from oracles import reference_adjoint_identity_check

from conedual.linops import (
    EUCLIDEAN,
    OperatorSpec,
    adjoint_apply,
    adjoint_identity_check,
    adjoint_matrix,
    apply,
    complex_embed,
    pairing,
    transposed,
    weighted_quadrature,
)


def test_apply_identity():
    op = OperatorSpec(matrix=np.eye(2))
    np.testing.assert_allclose(apply(op, np.array([3.0, 4.0])), [3.0, 4.0])


def test_apply_projection():
    op = OperatorSpec(matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(apply(op, np.array([3.0, 4.0])), [3.0, 0.0])


def test_apply_matches_hand_multiplication():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(3, 2))
    op = OperatorSpec(matrix=mat)
    for _ in range(10):
        x = rng.normal(size=2)
        by_hand = np.array([sum(mat[i, j] * x[j] for j in range(2)) for i in range(3)])
        np.testing.assert_allclose(apply(op, x), by_hand, atol=1e-12)


def test_adjoint_transpose_row():
    op = OperatorSpec(matrix=np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(adjoint_apply(op, np.array([1.0, 0.0])), [1.0, 2.0])


def test_weighted_adjoint_identity():
    rng = np.random.default_rng(9)
    w_x = np.full(3, 0.5)
    w_y = rng.uniform(0.2, 2.0, size=4)
    op = OperatorSpec(
        matrix=rng.normal(size=(4, 3)),
        pairing_domain=weighted_quadrature(w_x),
        pairing_codomain=weighted_quadrature(w_y),
    )
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        y = rng.normal(size=4)
        lhs = pairing(op.pairing_codomain, apply(op, x), y)
        rhs = pairing(op.pairing_domain, x, adjoint_apply(op, y))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_double_transposed_reproduces_operator():
    rng = np.random.default_rng(11)
    op = OperatorSpec(
        matrix=rng.normal(size=(4, 3)),
        pairing_domain=weighted_quadrature(np.full(3, 0.5)),
        pairing_codomain=weighted_quadrature(rng.uniform(0.2, 2.0, size=4)),
    )
    tr = transposed(op)
    assert tr.matrix.tobytes() == (-adjoint_matrix(op)).tobytes()
    assert adjoint_matrix(tr).tobytes() == (-op.matrix).tobytes()
    assert (tr.pairing_domain, tr.pairing_codomain) == (op.pairing_codomain, op.pairing_domain)
    assert adjoint_identity_check(tr).passed
    back = transposed(tr)
    assert back.matrix.tobytes() == op.matrix.tobytes()
    assert adjoint_matrix(back).tobytes() == adjoint_matrix(op).tobytes()
    assert (back.pairing_domain, back.pairing_codomain) == (op.pairing_domain, op.pairing_codomain)


def test_pairing_examples():
    assert pairing(None, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    # z = i, c = i embedded: Re(conj(z) c) = Re(-i * i) = 1.
    emb = complex_embed(1)
    z = emb.embed_vector(np.array([1j]))
    c = emb.embed_vector(np.array([1j]))
    assert pairing(EUCLIDEAN, z, c) == pytest.approx(1.0)


def test_weighted_quadrature_integrates_ones():
    n, h = 8, 0.5
    p = weighted_quadrature(np.full(n, h))
    ones = np.ones(n)
    assert pairing(p, ones, ones) == pytest.approx(n * h)


def test_pairing_symmetry_exact():
    rng = np.random.default_rng(21)
    p = weighted_quadrature(rng.uniform(0.1, 3.0, size=6))
    for _ in range(200):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert pairing(p, u, v) == pairing(p, v, u)


def test_linearity_of_apply():
    rng = np.random.default_rng(33)
    op = OperatorSpec(matrix=rng.normal(size=(4, 3)))
    for _ in range(100):
        u, v = rng.normal(size=3), rng.normal(size=3)
        a, b = rng.normal(), rng.normal()
        lhs = apply(op, a * u + b * v)
        rhs = a * apply(op, u) + b * apply(op, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


def test_complex_embedding_examples():
    emb = complex_embed(1)
    np.testing.assert_allclose(emb.embed_vector(np.array([1 + 2j])), [1.0, 2.0])
    # a = i as a 2x2 block sends (1, 0) to (0, 1), matching i * 1 = i.
    block = emb.embed_matrix(np.array([[1j]]))
    np.testing.assert_allclose(block, [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(block @ np.array([1.0, 0.0]), [0.0, 1.0])


def test_embedding_pairing_matches_complex_arithmetic():
    # z = 1 + i, w = 1 - i: Re(conj(z) w) = Re(-2i) = 0.
    emb = complex_embed(1)
    z = emb.embed_vector(np.array([1 + 1j]))
    w = emb.embed_vector(np.array([1 - 1j]))
    assert pairing(EUCLIDEAN, z, w) == pytest.approx(0.0)
    rng = np.random.default_rng(41)
    emb3 = complex_embed(3)
    for _ in range(200):
        zc = rng.normal(size=3) + 1j * rng.normal(size=3)
        wc = rng.normal(size=3) + 1j * rng.normal(size=3)
        expected = float(np.real(np.vdot(zc, wc)))
        got = pairing(EUCLIDEAN, emb3.embed_vector(zc), emb3.embed_vector(wc))
        assert got == pytest.approx(expected, abs=1e-12)


def test_embedding_matrix_multiplication_consistent():
    rng = np.random.default_rng(43)
    emb_in, emb_out = complex_embed(3), complex_embed(2)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    block = emb_out.embed_matrix(a)
    for _ in range(100):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        np.testing.assert_allclose(block @ emb_in.embed_vector(z), emb_out.embed_vector(a @ z), atol=1e-12)
    # Conjugate transposition is block transposition.
    np.testing.assert_allclose(emb_in.embed_matrix(a.conj().T), block.T, atol=1e-14)


def test_adjoint_identity_check_exact_pair():
    rng = np.random.default_rng(47)
    op = OperatorSpec(matrix=rng.normal(size=(5, 4)))
    report = adjoint_identity_check(op, n_samples=200, tol=1e-12)
    assert report.passed


def test_adjoint_identity_check_detects_corruption():
    rng = np.random.default_rng(53)
    mat = rng.normal(size=(4, 4))
    corrupted = mat.T.copy()
    corrupted[0, 0] += 1.0
    op = OperatorSpec(matrix=mat, adjoint_override=corrupted)
    report = adjoint_identity_check(op, n_samples=100, tol=1e-8)
    assert not report.passed


def _check_operators():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(7, 5))
    return {
        "plain": OperatorSpec(matrix=mat),
        "weighted": OperatorSpec(
            matrix=mat,
            pairing_domain=weighted_quadrature(rng.uniform(0.1, 2.0, size=5)),
            pairing_codomain=weighted_quadrature(rng.uniform(0.1, 2.0, size=7)),
        ),
        "override": OperatorSpec(matrix=mat, adjoint_override=mat.T + 1e-3 * rng.normal(size=(5, 7))),
    }


@pytest.mark.parametrize("name", ["plain", "weighted", "override"])
def test_adjoint_identity_check_matches_sample_loop(name):
    # Two matrix products in place of one pairing per sample: the samples are
    # the same numbers, and only the summation order differs, which moves
    # each pairing by a few ulps of its size.
    op = _check_operators()[name]
    for seed in (0, 7):
        report = adjoint_identity_check(op, seed=seed)
        worst, passed, scale = reference_adjoint_identity_check(op, seed=seed)
        assert abs(report.max_residual - worst) <= 4 * np.finfo(float).eps * max(1.0, scale)
        assert report.passed == passed == (name != "override")
        assert report.n_samples == 100


def test_adjoint_identity_check_without_samples():
    op = _check_operators()["override"]
    report = adjoint_identity_check(op, n_samples=0, tol=0.0)
    assert report.max_residual == 0.0 and report.passed and report.n_samples == 0
    assert reference_adjoint_identity_check(op, n_samples=0, tol=0.0)[:2] == (0.0, True)


def test_adjoint_identity_check_rejects_overflowing_images():
    op = OperatorSpec(matrix=np.full((2, 2), 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError):
            reference_adjoint_identity_check(op)
        with pytest.raises(ValueError, match="non-finite"):
            adjoint_identity_check(op)


def test_dimension_mismatch_errors():
    op = OperatorSpec(matrix=np.eye(2))
    with pytest.raises(ValueError):
        apply(op, np.ones(3))
    with pytest.raises(ValueError):
        adjoint_apply(op, np.ones(3))


def test_pairing_weights_must_match_the_operator():
    with pytest.raises(ValueError, match="dimension 3, expected 2"):
        OperatorSpec(matrix=np.eye(2), pairing_domain=weighted_quadrature(np.ones(3)))
    with pytest.raises(ValueError, match="dimension 2, expected 3"):
        OperatorSpec(matrix=np.ones((3, 2)), pairing_codomain=weighted_quadrature(np.ones(2)))
    with pytest.raises(ValueError, match="positive"):
        weighted_quadrature([1.0, 0.0])


def test_non_finite_matrix_rejected():
    with pytest.raises(ValueError, match="finite"):
        OperatorSpec(matrix=np.array([[np.inf, 0.0], [0.0, 1.0]]))
