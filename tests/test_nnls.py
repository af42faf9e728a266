"""Active-set nonnegative least squares."""

import numpy as np
import pytest

from conedual.errors import SolverFailure
from conedual.instances import random_farkas_instance
from conedual.nnls import nnls


def brute_force_grid_min(M, b, upper, step):
    """Exact minimum of ||M u - b||^2 over the grid [0, upper]^2.

    Exploits 1-D convexity: for each u1 column the parabola in u2 attains
    its grid minimum at the clamped neighbors of the unconstrained vertex,
    so the full enumeration collapses to O(grid) candidate evaluations with
    an identical result.
    """
    u1 = np.arange(0.0, upper + step / 2, step)
    m0, m1 = M[:, 0], M[:, 1]
    a22 = float(m1 @ m1)
    best = np.inf
    # residual(u1, u2) = ||u1 m0 - b||^2 + 2 u2 m1.(u1 m0 - b) + u2^2 ||m1||^2
    base = np.outer(u1, m0) - b  # rows: residual at u2 = 0
    const = np.einsum("ij,ij->i", base, base)
    lin = base @ m1
    if a22 <= 1e-300:
        candidates = np.array([0.0, upper])
    else:
        candidates = None
    for i in range(u1.size):
        if candidates is None:
            vertex = -lin[i] / a22
            snapped = np.floor(vertex / step) * step
            cand = np.unique(np.clip([snapped, snapped + step, 0.0, upper], 0.0, upper))
        else:
            cand = candidates
        vals = const[i] + 2.0 * lin[i] * cand + a22 * cand**2
        best = min(best, float(vals.min()))
    return best


def test_exact_fit():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = nnls(M, np.array([2.0, 3.0]))
    np.testing.assert_allclose(res.u, [2.0, 3.0], atol=1e-12)
    assert res.residual_norm <= 1e-12


def test_clipped_projection():
    M = np.eye(2)
    res = nnls(M, np.array([-1.0, 2.0]))
    np.testing.assert_allclose(res.u, [0.0, 2.0], atol=1e-12)
    assert res.residual_norm == pytest.approx(1.0)


def test_nonnegativity_is_exact():
    rng = np.random.default_rng(61)
    for _ in range(200):
        M = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        res = nnls(M, b)
        assert np.all(res.u >= 0.0)
        assert res.kkt_residual <= 1e-8


def test_matches_grid_oracle_on_2d():
    rng = np.random.default_rng(67)
    for _ in range(20):
        M = rng.uniform(-1, 1, size=(2, 2))
        b = rng.uniform(-1, 1, size=2)
        res = nnls(M, b)
        if np.max(res.u) > 2.5:  # keep the optimum inside the oracle box
            continue
        oracle = brute_force_grid_min(M, b, upper=3.0, step=1e-3)
        assert res.residual_norm**2 <= oracle + 1e-9
        assert abs(res.residual_norm**2 - oracle) <= 1e-5


def test_stationarity_certifies_optimum():
    # At the solution, the dual vector is nonpositive and complementary.
    rng = np.random.default_rng(71)
    for _ in range(100):
        M = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        res = nnls(M, b)
        w = M.T @ (b - M @ res.u)
        assert np.max(w) <= 1e-8
        assert np.max(np.abs(w[res.u > 1e-12]), initial=0.0) <= 1e-8


def test_rank_deficient_columns():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = nnls(M, np.array([2.0, 2.0]))
    assert res.residual_norm <= 1e-12
    assert np.all(res.u >= 0)


def test_iteration_cap_raises():
    rng = np.random.default_rng(73)
    M = rng.normal(size=(10, 8))
    b = rng.normal(size=10)
    with pytest.raises(SolverFailure):
        nnls(M, b, max_iter=0)


def test_stall_raises_at_first_repeat(monkeypatch):
    # An index with w_j just above kkt_tol enters, gets a non-positive
    # coefficient, leaves, and the iterate comes back unchanged.  Repeated
    # until the iteration cap, that costs 1597 lstsq calls.
    a, b, cone = random_farkas_instance(np.random.default_rng((7, 240)))
    assert cone.kind == "orthant" and a.matrix.shape == (3, 5)
    lstsq = np.linalg.lstsq
    calls = []

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    with pytest.raises(SolverFailure, match="^NNLS stalled: the entering index left again") as info:
        nnls(a.matrix, 1e3 * b, kkt_tol=1e-12)
    assert len(calls) <= 20
    assert np.all(info.value.detail["u"] >= 0.0)
    assert info.value.detail["kkt"] > 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        nnls(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        nnls(np.array([[np.nan, 0.0]]), np.ones(1))
