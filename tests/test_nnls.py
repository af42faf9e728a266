"""Active-set nonnegative least squares."""

import numpy as np
import pytest

from oracles import reference_nnls

import conedual.residual
from conedual.continuous_lp import ContinuousLPSpec, discretize_clp
from conedual.errors import SolverFailure
from conedual.farkas import farkas_dual, farkas_primal
from conedual.instances import random_farkas_instance
from conedual.nnls import _PassiveFactor, nnls


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
    # up to the cap of 800 iterations, that would cost two passive solves
    # per iteration.
    a, b, cone = random_farkas_instance(np.random.default_rng((7, 590)))
    assert cone.kind == "orthant" and a.matrix.shape == (3, 5)
    solve = _PassiveFactor.solve
    calls = []

    def counting_solve(self):
        calls.append(1)
        return solve(self)

    monkeypatch.setattr(_PassiveFactor, "solve", counting_solve)
    with pytest.raises(SolverFailure, match="^NNLS stalled: the entering index left again") as info:
        nnls(a.matrix, 1e3 * b, kkt_tol=1e-12)
    assert len(calls) <= 20
    assert np.all(info.value.detail["u"] >= 0.0)
    assert info.value.detail["kkt"] > 1e-12


def test_qr_subproblems_resolve_svd_roundoff_stall():
    # With every passive subproblem solved by an SVD this instance stalls on
    # a roundoff tie; the triangular solves reach the KKT point.
    a, b, _ = random_farkas_instance(np.random.default_rng((7, 240)))
    res = nnls(a.matrix, 1e3 * b, kkt_tol=1e-12)
    assert res.kkt_residual <= 1e-12
    assert np.all(res.u >= 0.0)


def assert_matches_reference(M, b, kkt_tol=1e-10):
    """``nnls`` and the lstsq reference take the same path to the same point."""
    try:
        u_ref, iterations, _ = reference_nnls(M, b, kkt_tol=kkt_tol)
    except SolverFailure as exc:
        with pytest.raises(SolverFailure, match=f"^{exc.args[0]}$"):
            nnls(M, b, kkt_tol=kkt_tol)
        return
    res = nnls(M, b, kkt_tol=kkt_tol)
    assert res.iterations == iterations
    np.testing.assert_array_equal(res.u > 0, u_ref > 0)
    assert np.max(np.abs(res.u - u_ref)) <= 1e-10 * np.max(np.abs(u_ref), initial=1.0)


@pytest.mark.parametrize("shape", [(3, 6), (4, 8), (5, 5), (6, 6), (8, 4), (12, 5)])
def test_matches_lstsq_reference_on_random_problems(shape):
    rng = np.random.default_rng([79, *shape])
    for _ in range(40):
        M = rng.normal(size=shape)
        b = rng.normal(size=shape[0])
        assert_matches_reference(M, b)


@pytest.mark.parametrize("shape", [(12, 8), (20, 6)])
def test_matches_lstsq_reference_on_ill_conditioned_columns(shape):
    # Hilbert columns (condition numbers 1.6e9 and 7.9e5): without the
    # re-orthogonalization pass the coefficients drift by about 1e-8.
    i, j = np.indices(shape)
    M = 1.0 / (i + j + 1.0)
    assert_matches_reference(M, M @ np.linspace(1.0, 2.0, shape[1]))


@pytest.mark.parametrize("n_grid", [16, 32])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_matches_lstsq_reference_on_clp_farkas_matrices(monkeypatch, n_grid, m, n):
    rng = np.random.default_rng([83, n_grid, m, n])
    spec = ContinuousLPSpec(
        m=m,
        n=n,
        horizon=1.0,
        n_grid=n_grid,
        B=rng.uniform(0.5, 1.5, size=(m, n)),
        K=rng.uniform(-1.0, 1.0, size=(m, n)),
        b=rng.uniform(0.1, 1.0, size=n),
        c=rng.uniform(0.5, 1.5, size=m),
    )
    pb = discretize_clp(spec)
    calls = []

    def recording_nnls(M, b, kkt_tol=1e-10, max_iter=None):
        calls.append((M, b, kkt_tol))
        return nnls(M, b, kkt_tol=kkt_tol, max_iter=max_iter)

    monkeypatch.setattr(conedual.residual, "nnls", recording_nnls)
    farkas_primal(pb.operator(), pb.b, pb.S)
    farkas_dual(pb.operator(), pb.c, pb.T)
    assert len(calls) == 2
    for M, b, kkt_tol in calls:
        assert_matches_reference(M, b, kkt_tol)


def test_residual_matches_scipy_nnls():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(89)
    for shape in [(3, 6), (5, 5), (8, 4)]:
        for _ in range(30):
            M = rng.normal(size=shape)
            b = rng.normal(size=shape[0])
            _, rnorm = optimize.nnls(M, b)
            assert nnls(M, b).residual_norm == pytest.approx(rnorm, rel=1e-9, abs=1e-12)


def outcome_without_linalg_error(M, b, kkt_tol):
    """Run ``nnls``; a ``LinAlgError`` or any exception but ``SolverFailure``
    propagates and fails the test."""
    try:
        res = nnls(M, b, kkt_tol=kkt_tol)
    except SolverFailure as exc:
        assert np.all(exc.detail["u"] >= 0.0)
        return None
    assert np.all(res.u >= 0.0) and np.all(np.isfinite(res.u))
    return res


@pytest.mark.parametrize("case", ["duplicate", "in_span", "wide"])
def test_dependent_passive_columns_fall_back_to_lstsq(monkeypatch, case):
    # kkt_tol = 0 lets roundoff in w admit a column already in the span of
    # the passive set (or a column beyond m), so the dependent path runs.
    lstsq = np.linalg.lstsq
    calls = []

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    rng = np.random.default_rng([97, len(case)])
    for _ in range(50):
        A = rng.normal(size=(4, 3))
        if case == "duplicate":
            M = np.column_stack([A, A[:, 1]])
            b = rng.normal(size=4) * 1e6
        elif case == "in_span":
            M = np.column_stack([A, A[:, 0] + A[:, 1]])
            b = rng.normal(size=4) * 1e6
        else:
            M = rng.normal(size=(3, 6))
            b = M @ rng.uniform(0.0, 1.0, size=6) * 1e3
        outcome_without_linalg_error(M, b, kkt_tol=0.0)
    assert calls


def test_zero_column():
    M = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    b = np.array([1.0, 2.0, -1.0])
    res = outcome_without_linalg_error(M, b, kkt_tol=0.0)
    assert res is not None and res.u[1] == 0.0
    assert_matches_reference(M, b, kkt_tol=0.0)


def test_wide_problem_with_m_columns_passive():
    # b inside the cone of the first m columns: they all become passive,
    # the residual vanishes and no further column enters.
    rng = np.random.default_rng(101)
    M = rng.normal(size=(3, 7))
    b = M[:, :3] @ np.array([1.0, 2.0, 0.5])
    res = nnls(M, b)
    assert np.count_nonzero(res.u) == 3
    assert res.residual_norm <= 1e-12
    assert_matches_reference(M, b)


def test_factor_stays_dependent_until_the_dependent_column_leaves():
    # Column 2 duplicates column 0, so the factor refuses it and the
    # subproblems fall back to lstsq; removing column 3 keeps the duplicate,
    # removing column 2 ends the fallback.
    M = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    factor = _PassiveFactor(M, b)
    for j in range(4):
        factor.append(j)
    factor.keep(np.array([True, True, True, False]))
    idx, z = factor.solve()
    np.testing.assert_array_equal(idx, [0, 1, 2])
    np.testing.assert_allclose(z, np.linalg.lstsq(M[:, :3], b, rcond=None)[0], atol=1e-12)
    factor.keep(np.array([True, True, False, False]))
    idx, z = factor.solve()
    np.testing.assert_array_equal(idx, [0, 1])
    np.testing.assert_allclose(z, np.linalg.lstsq(M[:, :2], b, rcond=None)[0], atol=1e-12)


def test_column_entering_a_full_factor():
    # m columns span R^m and a column of norm 1e24 enters on roundoff in w;
    # its Gram-Schmidt remainder is not small next to the diagonal of R, so
    # only the column count marks the passive set as dependent.
    rng = np.random.default_rng(107)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        b = A @ rng.uniform(0.5, 1.5, size=3)
        v = -1e24 * b / np.linalg.norm(b) + 1e23 * rng.normal(size=3)
        outcome_without_linalg_error(np.column_stack([A, v]), b, kkt_tol=1e-10)


def test_blocking_step_that_empties_the_passive_set(monkeypatch):
    # b orthogonal to the first column up to roundoff: with kkt_tol = 0 that
    # column can enter on a positive w_0 and get a non-positive coefficient,
    # and the blocking step then leaves no passive column.
    keep = _PassiveFactor.keep
    emptied = []

    def recording_keep(self, passive):
        keep(self, passive)
        emptied.append(not self.cols)

    monkeypatch.setattr(_PassiveFactor, "keep", recording_keep)
    rng = np.random.default_rng(103)
    for _ in range(200):
        M = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        b -= (M[:, 0] @ b) / (M[:, 0] @ M[:, 0]) * M[:, 0]
        outcome_without_linalg_error(M, b, kkt_tol=0.0)
    assert any(emptied)


def test_blocking_step_on_a_zero_coefficient_keeps_the_iterate():
    # The entering coefficient underflows to exactly 0, so that index's
    # blocking ratio would be 0/0: it blocks at once instead, and the
    # iterate (1, 0) survives into the stall report, with no warning.
    with pytest.raises(SolverFailure, match="stalled") as info:
        nnls(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 5e-324]), kkt_tol=0.0)
    assert info.value.detail["u"].tolist() == [1.0, 0.0]


def test_input_validation():
    with pytest.raises(ValueError):
        nnls(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        nnls(np.array([[np.nan, 0.0]]), np.ones(1))
