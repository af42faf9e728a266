"""Two-phase simplex on standard-form programs."""

import itertools
import json
import os

import numpy as np
import pytest

import conedual.simplex
from conedual.errors import SolverFailure
from conedual.simplex import _bland_leaving, _pivot, simplex_solve

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROUNDOFF_PIVOT_LP = os.path.join(FIXTURES, "roundoff_pivot_lp.json")
RATIO_CLAMP_LPS = os.path.join(FIXTURES, "ratio_clamp_lps.json")
PHASE_ONE_ROUNDOFF_COLUMN = os.path.join(FIXTURES, "phase_one_roundoff_column.json")


def brute_force_vertices(A, b):
    """Enumerate basic feasible solutions of A x = b, x >= 0."""
    m, n = A.shape
    vertices = []
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x_basic = np.linalg.solve(sub, b)
        if np.min(x_basic) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(cols)] = x_basic
        vertices.append(x)
    return vertices


def test_simple_bounded_lp():
    # min -x1 - x2  s.t.  x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    res = simplex_solve(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0)


def test_matches_vertex_enumeration():
    # The second pass appends an identity block, so every row starts from
    # its own unit column.
    for identity_block in (False, True):
        rng = np.random.default_rng(139)
        for _ in range(40):
            m, n = 3, 6
            A = rng.uniform(-1, 1, size=(m, n))
            if identity_block:
                A = np.hstack([A, np.eye(m)])
                n += m
            x0 = rng.uniform(0, 1, size=n)
            b = A @ x0  # feasible by construction
            c = rng.uniform(-1, 1, size=n)
            res = simplex_solve(c, A, b)
            vertices = brute_force_vertices(A, b)
            if not vertices:
                continue
            best = min(float(c @ v) for v in vertices)
            if res.status == "optimal":
                assert res.objective == pytest.approx(best, abs=1e-7)
            else:
                # Unbounded: some direction d >= 0 with A d = 0 and c d < 0
                # exists; verify by a small LP on the recession cone.
                assert res.status == "unbounded"


def test_infeasible_detection():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = simplex_solve(np.zeros(2), A, b)
    assert res.status == "infeasible"


def test_unbounded_detection():
    # min -x1 with only x1 - x2 = 1: x1 can grow along (1, 1).
    res = simplex_solve(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))
    assert res.status == "unbounded"


def test_negative_rhs_handled():
    res = simplex_solve(np.array([1.0, 1.0]), np.array([[-1.0, 0.0]]), np.array([-2.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)


def test_degenerate_problem_terminates():
    # Redundant constraints produce degenerate vertices; Bland's rule must
    # still terminate at the optimum.
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0], [2.0, 2.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0, 2.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = simplex_solve(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)


def test_redundant_row_dropped():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = simplex_solve(np.array([1.0, 0.0]), A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)


def test_solution_nonnegative_and_feasible():
    rng = np.random.default_rng(149)
    for _ in range(60):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 9))
        A = rng.uniform(-1, 1, size=(m, n))
        b = A @ rng.uniform(0, 1, size=n)
        c = rng.uniform(-1, 1, size=n)
        res = simplex_solve(c, A, b)
        if res.status != "optimal":
            continue
        assert np.all(res.x >= 0)
        assert np.max(np.abs(A @ res.x - b)) <= 1e-7


def test_iteration_cap_raises(monkeypatch):
    # Pivots that leave the tableau unchanged repeat the same step until the
    # cap of 200 (m + n + 10) trips.
    rng = np.random.default_rng(151)
    A = rng.uniform(-1, 1, size=(4, 8))
    b = A @ rng.uniform(0, 1, size=8)
    monkeypatch.setattr(conedual.simplex, "_pivot", lambda tableau, basis, row, col: None)
    with pytest.raises(SolverFailure) as info:
        simplex_solve(rng.uniform(-1, 1, size=8), A, b)
    assert info.value.detail["iterations"] == 200 * (4 + 8 + 10) + 1


def test_dimension_validation():
    with pytest.raises(ValueError):
        simplex_solve(np.ones(2), np.ones((2, 3)), np.ones(2))


# ---------------------------------------------------------------------------
# Crash start and the relative pivot test
# ---------------------------------------------------------------------------


def test_crash_start_needs_no_pivot():
    # [M | I] x = b with b >= 0: the slack basis is feasible, and with c = 0
    # it is optimal as it stands.
    rng = np.random.default_rng(157)
    M = rng.uniform(-1, 1, size=(4, 5))
    b = rng.uniform(0, 1, size=4)
    res = simplex_solve(np.zeros(9), np.hstack([M, np.eye(4)]), b)
    assert res.status == "optimal" and res.iterations == 0
    assert res.basis == [5, 6, 7, 8]
    assert np.array_equal(res.x, np.concatenate([np.zeros(5), b]))


def test_crash_start_after_row_flip():
    # A row with b_i < 0 and slack -e_i is negated first, so its slack is a
    # unit column and starts basic.
    M = np.array([[1.0, 2.0], [3.0, -1.0]])
    A = np.hstack([M, -np.eye(2)])
    b = np.array([-1.0, -2.0])
    res = simplex_solve(np.zeros(4), A, b)
    assert res.status == "optimal" and res.iterations == 0
    assert res.basis == [2, 3]
    assert np.array_equal(res.x, [0.0, 0.0, 1.0, 2.0])


def test_crash_start_takes_smallest_unit_column():
    # Columns 1 and 3 are both e_0 and column 2 is e_1 (column 0 has a second
    # nonzero, so it is no unit column).
    A = np.array([[1.0, 1.0, 0.0, 1.0], [2.0, 0.0, 1.0, 0.0]])
    res = simplex_solve(np.zeros(4), A, np.array([1.0, 1.0]))
    assert res.status == "optimal" and res.iterations == 0
    assert res.basis == [1, 2]


def test_partial_crash_start():
    # Row 0 has a unit column, row 1 starts from an artificial.
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    res = simplex_solve(np.array([1.0, 2.0, 0.0]), A, np.array([2.0, 0.5]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.5)
    assert np.allclose(A @ res.x, [2.0, 0.5])


@pytest.mark.parametrize("b, status", [((1.0, 0.0), "infeasible"), ((0.0, 0.0), "optimal")])
def test_no_columns(b, status):
    res = simplex_solve(np.zeros(0), np.zeros((2, 0)), np.array(b))
    assert res.status == status and res.iterations == 0


def test_bland_leaving_rejects_roundoff_pivot():
    # Row 0's entry is roundoff beside row 1's; an absolute 1e-9 test would
    # take it (ratio 0) and divide the tableau by it.
    tableau = np.array([[1.82e-9, 0.0], [5.3e3, 1.0], [0.0, 0.0]])
    basis = np.array([0, 1])
    assert _bland_leaving(tableau, basis, 0, 2) == 1
    # A negative entry never blocks, so it does not make row 0's entry small.
    tableau[1, 0] = -5.3e3
    assert _bland_leaving(tableau, basis, 0, 2) == 0
    # A small column is judged against 1, not against its own scale.
    tableau[:2, 0] = [1.82e-9, 0.0]
    assert _bland_leaving(tableau, basis, 0, 2) == 0


def test_small_blocking_entry_beside_large_negative_one():
    # x0 enters with column (1e-6, -2e3): only row 0 blocks, at x0 = 1e6.
    A = np.array([[1e-6, 1.0, 0.0], [-2e3, 0.0, 1.0]])
    res = simplex_solve(np.array([-1.0, 0.0, 0.0]), A, np.array([1.0, 5.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1e6, rel=1e-12)


def test_roundoff_pivot_regression():
    # A margin LP of the strict-member search: with a slack start and an
    # absolute pivot test, phase one pivoted on an entry of 1.8e-9 beside
    # entries of 5.3e3 and reported "unbounded" although the LP is bounded.
    with open(ROUNDOFF_PIVOT_LP) as fh:
        case = json.load(fh)
    res = simplex_solve(np.array(case["c"]), np.array(case["A"]), np.array(case["b"]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_pivot_matches_full_update():
    # Rows above the first nonzero factor are skipped; they would compute
    # t - 0 p = t, so the tableau equals the full rank-one update.
    rng = np.random.default_rng(17)
    for lo in (0, 3, 6):
        tableau = rng.normal(size=(7, 9))
        tableau[:lo, 4] = 0.0
        tableau[5, 4] = 2.5
        expected = tableau.copy()
        expected[5] /= expected[5, 4]
        factors = expected[:, 4].copy()
        factors[5] = 0.0
        expected -= factors[:, None] * expected[5]
        basis = np.arange(6)
        _pivot(tableau, basis, 5, 4)
        assert np.array_equal(tableau, expected) and basis[5] == 4


def ratio_clamp_cases():
    with open(RATIO_CLAMP_LPS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", ratio_clamp_cases(), ids=["item18", "item19"])
def test_ratio_clamp_regression(case):
    # A row whose right-hand side roundoff made negative must block the step
    # at ratio 0; skipping it let phase one drive it to -0.23 and report
    # "unbounded" on these strict-member LPs.
    A, b = np.array(case["A"]), np.array(case["b"])
    res = simplex_solve(np.array(case["c"]), A, b)
    assert res.status == "optimal"
    assert res.x.min() >= 0.0
    assert np.abs(A @ res.x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())


def test_phase_one_skips_roundoff_column():
    # A CLP LP on which Bland's rule entered a column of reduced cost
    # -1.09e-9 that no row blocks; phase one is bounded below, so the column
    # is roundoff and the next candidate enters.
    linprog = pytest.importorskip("scipy.optimize").linprog
    with open(PHASE_ONE_ROUNDOFF_COLUMN) as fh:
        case = json.load(fh)
    A = np.zeros(case["shape"])
    A[case["rows"], case["cols"]] = np.array(case["values"])[case["index"]]
    b, c = np.array(case["b"]), np.array(case["c"])
    res = simplex_solve(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, method="highs")
    assert ref.status == 0 and res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, rel=1e-9)
