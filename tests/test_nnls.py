"""Active-set nonnegative least squares."""

import warnings

import numpy as np
import pytest

from oracles import grid_residual_min, reference_nnls

import conedual.nnls
import conedual.residual
from conedual.continuous_lp import ContinuousLPSpec, discretize_clp
from conedual.errors import SolverFailure
from conedual.farkas import farkas_dual, farkas_primal, verify_outcome
from conedual.instances import random_farkas_instance
from conedual.nnls import _PassiveFactor, nnls


def spy_outer_iterations(monkeypatch):
    """Record ``[j, rr]`` per outer iteration of ``nnls``: the entering index
    and the squared residual of the iterate the iteration ends at, computed
    with the same operations as ``nnls``; ``rr`` stays ``inf`` when the
    factor refuses ``j``, whose iteration solves nothing and rejects it."""
    log = []
    append, solve = _PassiveFactor.append, _PassiveFactor.solve

    def spy_append(self, j):
        log.append([j, np.inf])
        return append(self, j)

    def spy_solve(self):
        cols, z_cols = solve(self)
        u = np.zeros(self.M.shape[1])
        u[cols] = z_cols
        r = self.b - self.M @ u
        log[-1][1] = r @ r  # the last solve of an outer iteration is its iterate
        return cols, z_cols

    monkeypatch.setattr(_PassiveFactor, "append", spy_append)
    monkeypatch.setattr(_PassiveFactor, "solve", spy_solve)
    return log


def spy_dense_shortcut(monkeypatch):
    """Record, per dense attempt, whether it returned the unconstrained
    minimizer: whether that passed the dependence test and was positive."""
    log = []
    dense = conedual.nnls._dense_solution

    def spy(M, b, tol):
        z = dense(M, b, tol)
        log.append(z is not None and bool((z > 0).all()))
        return z

    monkeypatch.setattr(conedual.nnls, "_dense_solution", spy)
    return log


def spy_warm_start(monkeypatch):
    """Record, per warm start, the number of columns it was given and the
    squared residuals of the iterate it replaces and of its own point."""
    log = []
    fit = conedual.nnls._fit_columns

    def spy(factor, order):
        cols, z_cols = factor.solve()
        r = factor.b - factor.M[:, cols] @ z_cols
        before = r @ r
        u, passive = fit(factor, order)
        r = factor.b - factor.M @ u
        log.append((len(order), before, r @ r))
        return u, passive

    monkeypatch.setattr(conedual.nnls, "_fit_columns", spy)
    return log


def rejected_indices(log, b):
    """The entering indices of the outer iterations in ``log`` that did not
    bring the squared residual below its smallest value so far: the ones
    ``nnls`` rejects."""
    best, rejected = b @ b, []
    for j, rr in log:
        if rr < best:
            best = rr
        else:
            rejected.append(j)
    return rejected


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
        oracle = grid_residual_min(M, b, upper=3.0, step=1e-3)
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


def test_tie_enters_the_smallest_index():
    # Both columns have dual value 1 at u = 0; column 0 enters and fits b,
    # after which column 1's dual value is 0.
    res = nnls(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert res.u.tolist() == [1.0, 0.0] and res.iterations == 1


def test_iteration_cap_raises(monkeypatch):
    # With no outer iteration allowed, the first one trips the cap.
    rng = np.random.default_rng(73)
    M = rng.normal(size=(10, 8))
    b = rng.normal(size=10)
    monkeypatch.setattr(conedual.nnls, "_ITERATIONS_PER_SIZE", 0)
    with pytest.raises(SolverFailure):
        nnls(M, b)


def test_index_that_leaves_again_is_rejected(monkeypatch):
    # An index with w_j just above STATIONARITY_TOL enters, gets a
    # non-positive coefficient and leaves, and the residual does not fall.
    # The index is rejected rather than tried again up to the cap of 800
    # iterations, at two passive solves per iteration.
    a, b, cone = random_farkas_instance(np.random.default_rng((7, 590)))
    assert cone.kind == "orthant" and a.matrix.shape == (3, 5)
    log = spy_outer_iterations(monkeypatch)
    solve = _PassiveFactor.solve
    calls = []

    def counting_solve(self):
        calls.append(1)
        return solve(self)

    monkeypatch.setattr(_PassiveFactor, "solve", counting_solve)
    res = nnls(a.matrix, 1e3 * b)
    assert len(calls) <= 20
    assert np.all(res.u >= 0.0)
    assert rejected_indices(log, 1e3 * b) == [4]


def test_rejected_index_lets_the_next_one_enter(monkeypatch):
    # b orthogonal to column 1 up to roundoff, and column 0 scaled by 2^-60
    # (exactly), so w = [1.9e-18, 1.5e-17]: with a stationarity tolerance
    # of 0 column 1 has the largest dual value on roundoff, enters, and
    # leaves again, back at u = 0, where it would be the largest again.  It
    # is rejected, and column 0, tried next, gives the optimum, where column
    # 1's dual value is not positive.
    rng = np.random.default_rng(40)
    A = rng.normal(size=(3, 2))
    b = rng.normal(size=3)
    b -= (A[:, 0] @ b) / (A[:, 0] @ A[:, 0]) * A[:, 0]
    M = np.column_stack([2.0**-60 * A[:, 1], A[:, 0]])
    assert np.argmax(M.T @ b) == 1 and 0.0 < (M.T @ b)[1] < 1e-16
    monkeypatch.setattr(conedual.nnls, "STATIONARITY_TOL", 0.0)
    log = spy_outer_iterations(monkeypatch)
    res = nnls(M, b)
    assert [j for j, _ in log] == [1, 0] and rejected_indices(log, b) == [1]
    assert res.u[1] == 0.0 and res.u[0] == pytest.approx(0.79874269 * 2.0**60, rel=1e-8)
    assert res.kkt_residual == 0.0
    assert_matches_reference(M, b)


def test_qr_subproblems_resolve_svd_roundoff_stall():
    # With every passive subproblem solved by an SVD this instance ends on a
    # roundoff tie with a KKT residual of 4e-12; the triangular solves reach
    # the KKT point.
    a, b, _ = random_farkas_instance(np.random.default_rng((7, 240)))
    res = nnls(a.matrix, 1e3 * b)
    assert res.kkt_residual <= 1e-12
    assert np.all(res.u >= 0.0)


def assert_matches_reference(M, b):
    """``nnls`` and the lstsq reference take the same path to the same point,
    the reference at the tolerance ``nnls`` reads."""
    try:
        u_ref, iterations, _ = reference_nnls(M, b, kkt_tol=conedual.nnls.STATIONARITY_TOL)
    except SolverFailure as exc:
        with pytest.raises(SolverFailure, match=f"^{exc.args[0]}$"):
            nnls(M, b)
        return
    res = nnls(M, b)
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


def hilbert_columns(shape):
    i, j = np.indices(shape)
    return 1.0 / (i + j + 1.0)


@pytest.mark.parametrize("shape", [(12, 8), (20, 6)])
def test_dense_shortcut_on_ill_conditioned_columns(monkeypatch, shape):
    # Hilbert columns (condition numbers 1.6e9 and 7.9e5) and b inside
    # their cone: the dense shortcut returns x within the forward error
    # bound cond(M) eps |x| of a backward-stable solve, and a residual of
    # roundoff size.
    M = hilbert_columns(shape)
    x = np.linspace(1.0, 2.0, shape[1])
    b = M @ x
    dense = spy_dense_shortcut(monkeypatch)
    res = nnls(M, b)
    assert dense == [True]
    assert res.iterations == 2 and res.kkt_residual == 0.0
    eps = np.finfo(float).eps
    assert np.max(np.abs(res.u - x)) <= np.linalg.cond(M) * eps * np.max(x)
    assert res.residual_norm <= 100 * eps * np.linalg.norm(b)


def test_matches_lstsq_reference_on_ill_conditioned_columns_past_the_dense_shortcut(monkeypatch):
    # Hilbert columns (condition number 1.6e9) and every third coefficient
    # of x negative: the unconstrained minimizer is not positive, so
    # Lawson-Hanson goes on, warm-starts at iteration 5 and ends at 7.
    # Without the re-orthogonalization pass the coefficients drift by
    # about 3e-8.
    M = hilbert_columns((12, 8))
    x = np.linspace(1.0, 2.0, 8)
    x[1::3] = -0.5
    dense = spy_dense_shortcut(monkeypatch)
    assert_matches_reference(M, M @ x)
    assert dense == [False, False] and nnls(M, M @ x).iterations == 7


def random_clp_data(rng, m, n):
    """``(B, K, b, c)`` of a random CLP with constant data."""
    return (
        rng.uniform(0.5, 1.5, size=(m, n)),
        rng.uniform(-1.0, 1.0, size=(m, n)),
        rng.uniform(0.1, 1.0, size=n),
        rng.uniform(0.5, 1.5, size=m),
    )


def clp_farkas_calls(monkeypatch, n_grid, B, K, b, c):
    """The ``(M, b)`` of the NNLS calls of ``farkas_primal`` and
    ``farkas_dual`` on the CLP with constant data ``(B, K, b, c)``
    discretized at ``n_grid``; both outcomes must verify."""
    B, K, b, c = (np.asarray(x, dtype=float) for x in (B, K, b, c))
    m, n = B.shape
    pb = discretize_clp(ContinuousLPSpec(m=m, n=n, horizon=1.0, n_grid=n_grid, B=B, K=K, b=b, c=c))
    op = pb.operator()
    calls = []

    def recording_nnls(M, b):
        calls.append((M, b))
        return nnls(M, b)

    with monkeypatch.context() as patch:
        patch.setattr(conedual.residual, "nnls", recording_nnls)
        assert verify_outcome(farkas_primal(op, pb.b, pb.S), op, pb.b, pb.S)
        assert verify_outcome(farkas_dual(op, pb.c, pb.T), op, pb.c, pb.T)
    assert len(calls) == 2
    return calls


@pytest.mark.parametrize("n_grid", [16, 32])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_matches_lstsq_reference_on_clp_farkas_matrices(monkeypatch, n_grid, m, n):
    calls = clp_farkas_calls(monkeypatch, n_grid, *random_clp_data(np.random.default_rng([83, n_grid, m, n]), m, n))
    for M, b in calls:
        assert_matches_reference(M, b)
    if (m, n) == (1, 2):
        # The wide dual system, (n_grid, 2 n_grid): with the largest dual
        # value entering, no index leaves again, so there is one iteration
        # per positive entry of the solution (the smallest-index rule took
        # 2 n_grid - 1).  With k > m the dense shortcut is not tried.
        dense = spy_dense_shortcut(monkeypatch)
        res = nnls(*calls[1])
        assert calls[1][0].shape == (n_grid, 2 * n_grid)
        assert res.iterations == np.count_nonzero(res.u) == n_grid
        assert dense == []


@pytest.mark.parametrize("n_grid", [16, 32])
def test_dense_shortcut_on_clp_farkas_matrices(monkeypatch, n_grid):
    # At m = n = 1 both Farkas systems are (n_grid, n_grid), and on these
    # the optimum is dense: the shortcut returns it at the second iteration.
    optimize = pytest.importorskip("scipy.optimize")
    calls = clp_farkas_calls(monkeypatch, n_grid, *random_clp_data(np.random.default_rng([139, 0, n_grid]), 1, 1))
    dense = spy_dense_shortcut(monkeypatch)
    for M, b in calls:
        res = nnls(M, b)
        assert M.shape == (n_grid, n_grid)
        assert res.iterations == 2 and res.kkt_residual == 0.0
        assert_matches_scipy(optimize, M, b)
    assert dense == [True] * 4


def test_dense_shortcut_needs_more_than_two_columns(monkeypatch):
    M = np.random.default_rng(137).normal(size=(4, 2))
    dense = spy_dense_shortcut(monkeypatch)
    res = nnls(M, M @ np.array([1.0, 2.0]))
    assert dense == [] and res.iterations == 2
    np.testing.assert_allclose(res.u, [1.0, 2.0], rtol=1e-12)


def test_dense_shortcut_needs_every_free_dual_value_eligible(monkeypatch):
    # w = (1, 0.5, 0.45) at u = 0; once column 0 has entered, column 2's
    # dual value is -0.05, so the shortcut is not tried.
    M = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.1], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([1.0, 0.5, 0.0, 0.0])
    dense = spy_dense_shortcut(monkeypatch)
    res = nnls(M, b)
    assert dense == [] and res.iterations == 2
    np.testing.assert_allclose(res.u, [1.0, 0.5, 0.0], atol=1e-15)
    assert_matches_reference(M, b)


def test_dense_shortcut_refuses_dependent_columns(monkeypatch):
    # Column 3 duplicates column 1, so the diagonal of R fails the
    # dependence check: the shortcut is tried, does not return, and
    # Lawson-Hanson reaches the reference's point.
    rng = np.random.default_rng([131, 0])
    A = rng.uniform(0.1, 1.0, size=(6, 3))
    M = np.column_stack([A, A[:, 1]])
    b = M @ np.ones(4)
    diag = np.abs(np.diagonal(np.linalg.qr(M, mode="r")))
    assert diag.min() <= np.finfo(float).eps * 6 * diag.max()
    dense = spy_dense_shortcut(monkeypatch)
    assert_matches_reference(M, b)
    assert dense == [False]


def test_residual_matches_scipy_nnls():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(89)
    for shape in [(3, 6), (5, 5), (8, 4)]:
        for _ in range(30):
            M = rng.normal(size=shape)
            b = rng.normal(size=shape[0])
            _, rnorm = optimize.nnls(M, b)
            assert nnls(M, b).residual_norm == pytest.approx(rnorm, rel=1e-9, abs=1e-12)


def assert_matches_scipy(optimize, M, b):
    x, rnorm = optimize.nnls(M, b)
    res = nnls(M, b)
    assert res.residual_norm == pytest.approx(rnorm, rel=1e-9, abs=1e-12)
    assert np.max(np.abs(res.u - x)) <= 1e-9 * np.max(np.abs(x))


def test_matches_scipy_nnls_on_large_random_problems():
    # 110-140 outer iterations and 55-75 blocking steps each.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(109)
    for _ in range(3):
        assert_matches_scipy(optimize, rng.normal(size=(128, 128)), rng.normal(size=128))


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_scipy_nnls_on_clp_farkas_matrices(monkeypatch, seed):
    optimize = pytest.importorskip("scipy.optimize")
    calls = clp_farkas_calls(monkeypatch, 64, *random_clp_data(np.random.default_rng([113, seed]), 2, 2))
    assert [M.shape for M, _ in calls] == [(128, 128), (128, 128)]
    for M, b in calls:
        assert_matches_scipy(optimize, M, b)


@pytest.mark.parametrize("seed, cold", [(0, [64, 169]), (1, [86, 64])])
def test_warm_start_cuts_the_outer_iterations_on_clp_farkas_matrices(monkeypatch, seed, cold):
    # The (128, 128) Farkas systems of the previous test.  Without the warm
    # start they take the cold counts; from the positive part of the
    # unconstrained minimizer, at iteration 5, they take at most 7.
    calls = clp_farkas_calls(monkeypatch, 64, *random_clp_data(np.random.default_rng([113, seed]), 2, 2))
    warm = spy_warm_start(monkeypatch)
    iterations = [nnls(M, b).iterations for M, b in calls]
    assert len(warm) == 2 and max(iterations) <= 7
    monkeypatch.setattr(conedual.nnls, "_WARM_START_ITERATION", 0)
    assert [nnls(M, b).iterations for M, b in calls] == cold and len(warm) == 2


def test_no_warm_start_from_a_minimizer_that_is_nowhere_positive(monkeypatch):
    # Independent columns and b near -M 1: the unconstrained minimizer has
    # no positive entry, fewer than the passive set of iteration 4, so
    # Lawson-Hanson goes on without a warm start and reaches scipy's
    # optimum at iteration 5; a restart from u = 0 would take 10.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng([151, 2])
    M = rng.normal(size=(10, 8))
    b = -M @ rng.uniform(0.5, 1.5, size=8) + 0.5 * rng.normal(size=10)
    assert np.linalg.matrix_rank(M) == 8 and np.all(np.linalg.lstsq(M, b, rcond=None)[0] <= 0.0)
    dense, warm = spy_dense_shortcut(monkeypatch), spy_warm_start(monkeypatch)
    assert nnls(M, b).iterations == 5
    assert dense == [False] and warm == []
    assert_matches_scipy(optimize, M, b)
    assert_matches_reference(M, b)


def test_warm_start_above_the_iterate_it_replaces(monkeypatch):
    # The six columns with z_j > 0, two more than the passive set of
    # iteration 4, fit b worse than its iterate did.  The smallest residual
    # so far is reset to the warm start's, or the next iterations, which
    # lower the residual from there, would be rejected.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng([151, 17])
    M = rng.normal(size=(10, 8))
    b = rng.normal(size=10)
    warm = spy_warm_start(monkeypatch)
    assert nnls(M, b).iterations == 8
    [(given, before, after)] = warm
    assert given == 6 and after > before
    assert_matches_scipy(optimize, M, b)
    assert_matches_reference(M, b)


@pytest.mark.parametrize("warm_start, downdates", [(True, 56), (False, 60)])
def test_blocking_steps_keep_the_optimum_on_an_ill_conditioned_clp_system(monkeypatch, warm_start, downdates):
    # Two (128, 128) Farkas systems of condition number 8.8e9.  Without the
    # warm start they take 30 blocking steps each: taking T^{-1} in keep
    # from the kept Rinv without the Newton step then left Rinv R - I at
    # 5e-9 and 1e-7 after the last step (3e-14 with it, as with a fresh
    # inverse of T), a dual value of 2e-11 at the returned point, and the
    # primal certificate failed verification.  The warm start's downdates
    # and blocking steps, 56 between the two systems, need the Newton step
    # less, so the path without it stays pinned too.
    if not warm_start:
        monkeypatch.setattr(conedual.nnls, "_WARM_START_ITERATION", 0)
    keep, residuals = _PassiveFactor.keep, []

    def checked_keep(self, passive):
        keep(self, passive)
        n = len(self.cols)
        R = self.Q[:, :n].T @ self.M[:, self.cols]
        residuals.append(np.linalg.norm(self.Rinv[:n, :n] @ R - np.eye(n)))

    data = (
        [[0.8632149207072406, 0.6281331107159376], [1.1301054298132447, 0.7261000103387542]],
        [[-0.9867443573494243, -0.14149084602576245], [0.8149693915073046, -0.9739657727735358]],
        [0.4227116970471029, 0.5114031143783208],
        [1.4486195861735265, 1.3060111736356919],
    )
    calls = clp_farkas_calls(monkeypatch, 64, *data)
    monkeypatch.setattr(_PassiveFactor, "keep", checked_keep)
    for M, b in calls:
        res = nnls(M, b)
        assert res.kkt_residual == 0.0
        assert np.max(M.T @ (b - M @ res.u)) <= 1e-14 * np.max(np.abs(M.T @ b))
    assert len(residuals) == downdates and max(residuals) <= 1e-12


def assert_factor_holds(factor, scale):
    """``M[:, cols] = Q R`` with orthonormal ``Q``, ``Rinv = R^{-1}`` and
    ``qtb = Q^T b``, where ``R = Q^T M[:, cols]`` is upper triangular."""
    n = len(factor.cols)
    assert len(factor.diag) == n
    if n == 0:
        return
    Q, Rinv = factor.Q[:, :n], factor.Rinv[:n, :n]
    Mc = factor.M[:, factor.cols]
    R = Q.T @ Mc
    tol = 100 * np.finfo(float).eps
    assert np.linalg.norm(Mc - Q @ R) <= tol * scale
    assert np.linalg.norm(np.tril(R, -1)) <= tol * scale
    assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= tol
    assert np.linalg.norm(Rinv @ R - np.eye(n)) <= tol * np.linalg.norm(R) * np.linalg.norm(Rinv)
    assert np.array_equal(Rinv, np.triu(Rinv))
    np.testing.assert_allclose(factor.qtb[:n], Q.T @ factor.b, rtol=0, atol=tol * np.linalg.norm(factor.b))


def test_keep_downdates_the_trailing_block(monkeypatch):
    # Random append/keep sequences on independent columns: every blocking
    # step, one column or several, first (k = 0), last (k = n - 1) or in
    # between, downdates the factor without inverting a matrix.
    def no_inv(a):
        raise AssertionError("keep inverted a matrix")

    monkeypatch.setattr(np.linalg, "inv", no_inv)
    rng = np.random.default_rng(127)
    positions = set()
    for trial in range(60):
        m, k = 14, 10
        scale = 10.0 ** rng.integers(-3, 4)
        M = scale * rng.normal(size=(m, k))
        factor = _PassiveFactor(M, scale * rng.normal(size=m))
        passive = np.zeros(k, dtype=bool)
        order = []
        for _ in range(12):
            free = np.flatnonzero(~passive)
            for j in rng.permutation(free)[: rng.integers(1, free.size + 1)]:
                passive[j] = True
                order.append(int(j))
                assert factor.append(int(j))
            n = len(order)
            first = {0: 0, 1: n - 1}.get(trial % 3, int(rng.integers(n)))
            dropped = [order[first]] + [j for j in order[first + 1 :] if rng.random() < 0.3]
            positions.add((first == 0, first == n - 1, len(dropped) > 1))
            passive[dropped] = False
            order = [j for j in order if passive[j]]
            factor.keep(passive)
            assert factor.cols == order
            assert_factor_holds(factor, np.linalg.norm(M))
            idx, z = factor.solve()
            np.testing.assert_allclose(z, np.linalg.lstsq(M[:, idx], factor.b, rcond=None)[0], rtol=1e-9)
    assert {(True, False, True), (False, True, False), (False, False, True)} <= positions


def outcome_without_linalg_error(M, b):
    """Run ``nnls``; a ``LinAlgError`` or any exception but ``SolverFailure``
    propagates and fails the test."""
    try:
        res = nnls(M, b)
    except SolverFailure as exc:
        assert np.all(exc.detail["u"] >= 0.0)
        return None
    assert np.all(res.u >= 0.0) and np.all(np.isfinite(res.u))
    return res


@pytest.mark.parametrize("case", ["duplicate", "in_span", "wide"])
def test_dependent_column_is_refused(monkeypatch, case):
    # A stationarity tolerance of 0 lets roundoff in w make a candidate of a
    # column already in the span of the passive set (or a column beyond m).
    # The factor refuses it, nnls rejects it, and no subproblem is solved
    # another way; the fitted point is the reference's, and the residual
    # scipy's.
    optimize = pytest.importorskip("scipy.optimize")
    append, refused = _PassiveFactor.append, []

    def spy_append(self, j):
        added = append(self, j)
        if not added:
            refused.append(j)
        return added

    def no_call(*args, **kwargs):
        raise AssertionError("nnls solved a subproblem without its factor")

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
        u_ref, _, _ = reference_nnls(M, b, kkt_tol=0.0)
        _, rnorm = optimize.nnls(M, b)
        with monkeypatch.context() as patch:
            patch.setattr(_PassiveFactor, "append", spy_append)
            patch.setattr(np.linalg, "lstsq", no_call)
            patch.setattr(np.linalg, "inv", no_call)
            patch.setattr(conedual.nnls, "STATIONARITY_TOL", 0.0)
            res = nnls(M, b)
        # Dependent columns make u non-unique, and with a tolerance of 0 the
        # path turns on roundoff in w, so the fitted point M u is compared.
        np.testing.assert_allclose(M @ res.u, M @ u_ref, rtol=0, atol=1e-9 * np.linalg.norm(b))
        assert res.residual_norm == pytest.approx(rnorm, rel=1e-9, abs=1e-12 * np.linalg.norm(b))
    assert refused


def test_zero_column(monkeypatch):
    M = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    b = np.array([1.0, 2.0, -1.0])
    monkeypatch.setattr(conedual.nnls, "STATIONARITY_TOL", 0.0)
    res = outcome_without_linalg_error(M, b)
    assert res is not None and res.u[1] == 0.0
    assert_matches_reference(M, b)


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


def test_duplicate_column_is_refused_and_leaves_the_factor_untouched():
    # Column 2 duplicates column 0, so the factor refuses it and keeps every
    # buffer bit for bit; column 3 then enters as if column 2 had not come.
    M = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    factor = _PassiveFactor(M, b)
    assert factor.append(0) and factor.append(1)
    names = ["cols", "diag", "Q", "Rinv", "qtb"]
    before = [np.array(getattr(factor, name)).tobytes() for name in names]
    assert not factor.append(2)
    assert [np.array(getattr(factor, name)).tobytes() for name in names] == before
    assert factor.append(3)
    idx, z = factor.solve()
    assert idx == [0, 1, 3]
    np.testing.assert_allclose(z, np.linalg.lstsq(M[:, idx], b, rcond=None)[0], atol=1e-12)


def test_downdate_keeps_its_factor_past_the_dependence_test():
    # Column 0 props up the scale of R's diagonal: without it, column 1 of
    # norm 1e14 and column 2 of norm 1e-2 fail the relative test, which
    # only the scale of column 1 trips.  The downdate keeps its factor and
    # gives the exact least-squares coefficients; lstsq's rank cutoff
    # would give 0 for column 2.
    M = np.array([[1.0, 1e14, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-2]])
    b = np.array([1.0, 2.0, 3.0])
    factor = _PassiveFactor(M, b)
    assert all(factor.append(j) for j in range(3))
    factor.keep(np.array([False, True, True]))
    assert factor.cols == [1, 2] and factor.dmin <= factor.tol * factor.dmax
    R = factor.Q[:, :2].T @ M[:, 1:]
    assert np.linalg.norm(factor.Rinv[:2, :2] @ R - np.eye(2)) <= 1e-12
    idx, z = factor.solve()
    assert idx == [1, 2]
    np.testing.assert_allclose(z, [1e-14, 300.0], rtol=1e-12)


def test_column_entering_a_full_factor(monkeypatch):
    # m columns span R^m and a column of norm 1e24 enters on roundoff in w;
    # its Gram-Schmidt remainder is not small next to the diagonal of R, so
    # only the column count marks the passive set as dependent.
    monkeypatch.setattr(conedual.nnls, "STATIONARITY_TOL", 1e-10)
    rng = np.random.default_rng(107)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        b = A @ rng.uniform(0.5, 1.5, size=3)
        v = -1e24 * b / np.linalg.norm(b) + 1e23 * rng.normal(size=3)
        outcome_without_linalg_error(np.column_stack([A, v]), b)


def test_blocking_step_that_empties_the_passive_set(monkeypatch):
    # b orthogonal to the first column up to roundoff: with a stationarity
    # tolerance of 0 that column can enter on a positive w_0 and get a
    # non-positive coefficient, and the blocking step then leaves no passive
    # column.  The iterate is back at u = 0, so the entering index is
    # rejected.
    keep = _PassiveFactor.keep
    emptied = []

    def recording_keep(self, passive):
        keep(self, passive)
        emptied.append(not self.cols)

    monkeypatch.setattr(_PassiveFactor, "keep", recording_keep)
    monkeypatch.setattr(conedual.nnls, "STATIONARITY_TOL", 0.0)
    log = spy_outer_iterations(monkeypatch)
    rng = np.random.default_rng(103)
    emptying = 0
    for _ in range(200):
        M = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        b -= (M[:, 0] @ b) / (M[:, 0] @ M[:, 0]) * M[:, 0]
        emptied.clear()
        log.clear()
        outcome_without_linalg_error(M, b)
        if any(emptied):
            emptying += 1
            assert rejected_indices(log, b)
    assert emptying


def test_blocking_step_on_a_zero_coefficient_keeps_the_iterate(monkeypatch):
    # The entering coefficient underflows to exactly 0, so that index's
    # blocking ratio would be 0/0: it blocks at once instead, the index is
    # rejected, and the iterate (1, 0) is returned, with no warning.
    monkeypatch.setattr(conedual.nnls, "STATIONARITY_TOL", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nnls(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 5e-324]))
    assert res.u.tolist() == [1.0, 0.0]
    assert res.kkt_residual > 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        nnls(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        nnls(np.array([[np.nan, 0.0]]), np.ones(1))


def _bits(M, b):
    """``nnls(M, b)`` bit for bit, or the message of its failure."""
    try:
        r = nnls(M, b)
    except SolverFailure as exc:
        return str(exc)
    return r.u.tobytes(), float(r.residual_norm).hex(), float(r.kkt_residual).hex(), r.iterations


def test_result_does_not_depend_on_the_sign_of_zero_entries():
    # np.linalg.qr moves bits with the sign of a zero entry; nnls sees
    # every zero as +0.0, so a problem and its -0.0 twin agree bit for bit.
    rng = np.random.default_rng(2024)
    with_zeros = 0
    for _ in range(2000):
        m, k = (int(d) for d in rng.integers(2, 7, size=2))
        M = rng.integers(-2, 3, size=(m, k)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
        if np.all(M != 0) and np.all(b != 0):
            continue
        with_zeros += 1
        twin_M, twin_b = np.where(M == 0, -0.0, M), np.where(b == 0, -0.0, b)
        assert _bits(M, b) == _bits(twin_M, twin_b)
    assert with_zeros > 1500


@pytest.mark.parametrize(
    "M, b, message",
    [([[1.0, 1e308], [0.0, 1.0]], [1.0, 1.0], "coefficients are not finite"), ([[1e-10]], [1e300], "residual is not finite")],
)
def test_overflowing_data_raises_solver_failure(M, b, message):
    # Finite data whose least-squares coefficients or residual overflow.
    with np.errstate(all="ignore"), pytest.raises(SolverFailure, match=message):
        nnls(np.array(M), np.array(b))
