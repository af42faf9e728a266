"""Self-dual simplex on inequality-form programs."""

import itertools
import json
import os

import numpy as np
import pytest

import conedual.simplex
from conedual.errors import SolverFailure
from conedual.simplex import _pivot, _ratio, simplex_solve
from oracles import equality_lp

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROUNDOFF_PIVOT_LP = os.path.join(FIXTURES, "roundoff_pivot_lp.json")
RATIO_CLAMP_LPS = os.path.join(FIXTURES, "ratio_clamp_lps.json")
PHASE_ONE_ROUNDOFF_COLUMN = os.path.join(FIXTURES, "phase_one_roundoff_column.json")

HIGHS_STATUSES = {0: "optimal", 2: "infeasible", 3: "unbounded"}


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
    res = equality_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0)


def test_matches_vertex_enumeration():
    # The second pass appends an identity block.
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
            res = equality_lp(c, A, b)
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
    res = equality_lp(np.zeros(2), A, b)
    assert res.status == "infeasible"


def test_unbounded_detection():
    # min -x1 with only x1 - x2 = 1: x1 can grow along (1, 1).
    res = equality_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))
    assert res.status == "unbounded"


def test_negative_rhs_handled():
    res = equality_lp(np.array([1.0, 1.0]), np.array([[-1.0, 0.0]]), np.array([-2.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)


def test_degenerate_problem_terminates():
    # Redundant constraints produce degenerate vertices; the iteration must
    # still terminate at the optimum.
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0], [2.0, 2.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0, 2.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = equality_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)


def test_redundant_row_solves():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = equality_lp(np.array([1.0, 0.0]), A, b)
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
        res = equality_lp(c, A, b)
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
    monkeypatch.setattr(conedual.simplex, "_pivot", lambda t, r, s: None)
    with pytest.raises(SolverFailure) as info:
        simplex_solve(rng.uniform(-1, 1, size=8), A, b)
    assert info.value.detail["iterations"] == 200 * (4 + 8 + 10) + 1


def test_dimension_validation():
    with pytest.raises(ValueError):
        simplex_solve(np.ones(2), np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize(
    "c, A, b",
    [
        # The only step divides -1e305 by 1e-5: the basic value overflows.
        ([1.0], [[1e-5]], [1e305]),
        # The pivot on -0.1 overflows 8e307; the ratio of x0's reduced cost
        # to its mu coefficient is then -inf / inf = NaN, not a step of mu.
        ([-0.5, -1.0], [[8e307, -0.1]], [-1.0]),
    ],
)
def test_non_finite_tableau_raises(c, A, b):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverFailure, match="not finite"):
        simplex_solve(np.array(c), np.array(A), np.array(b))


# ---------------------------------------------------------------------------
# Start, statuses and multipliers
# ---------------------------------------------------------------------------


def test_slack_start_needs_no_pivot():
    # With b <= 0 and c >= 0 the slack basis is optimal as it stands.
    rng = np.random.default_rng(157)
    A = rng.uniform(-1, 1, size=(4, 5))
    res = simplex_solve(rng.uniform(0, 1, size=5), A, -rng.uniform(0, 1, size=4))
    assert res.status == "optimal" and res.iterations == 0
    assert not res.x.any() and not res.y.any()


@pytest.mark.parametrize("b, status", [((1.0, 0.0), "infeasible"), ((0.0, 0.0), "optimal")])
def test_no_columns(b, status):
    res = simplex_solve(np.zeros(0), np.zeros((2, 0)), np.array(b))
    assert res.status == status and res.iterations == 0


@pytest.mark.parametrize(
    "c, b, status, x",
    [(1e9, 0.5, "optimal", 0.5), (0.5, 1e9, "optimal", 1e9), (-0.5, -1e9, "unbounded", None), (-1e9, 0.5, "unbounded", None)],
)
def test_each_side_perturbed_in_its_own_units(c, b, status, x):
    # min c x, x >= b on data of scales nine orders apart: a large cost does
    # not loosen the test on b, nor a large |b| the test on c.
    res = simplex_solve(np.array([c]), np.ones((1, 1)), np.array([b]))
    assert res.status == status
    if x is not None:
        assert res.x[0] == x and res.y[0] == c and res.objective == c * x


def integer_lps(count, seed):
    """Inequality-form LPs ``(c, A, b)`` with entries in ``[-2, 2]`` and
    about half of the right-hand sides zero, of 1-5 rows and columns."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(k) for k in rng.integers(1, 6, size=2))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m) * (rng.random(m) < 0.5)
        yield rng.integers(-2, 3, size=n).astype(float), A, b.astype(float)


def test_integer_lps_agree_with_highs():
    # Degenerate steps and ties are common on this data.  Statuses equal
    # HiGHS's, optimal values agree, and the multipliers solve the LP dual.
    linprog = pytest.importorskip("scipy.optimize").linprog
    seen = set()
    for c, A, b in integer_lps(600, seed=41):
        res = simplex_solve(c, A, b)
        ref = linprog(c, A_ub=-A, b_ub=-b, bounds=(0, None), method="highs")
        assert res.status == HIGHS_STATUSES[ref.status]
        seen.add(res.status)
        if res.status == "optimal":
            scale = 1.0 + abs(ref.fun)
            assert abs(res.objective - ref.fun) <= 1e-9 * scale
            assert (A @ res.x - b).min() >= -1e-9 and (c - A.T @ res.y).min() >= -1e-9
            assert abs(b @ res.y - res.objective) <= 1e-9 * scale
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_statuses_and_values_scale_with_b_and_c():
    # Scaling b and c apart, by up to six orders each, keeps every status and
    # scales every optimal value by the product of the two scales.
    rng = np.random.default_rng(47)
    for c, A, b in integer_lps(600, seed=47):
        sb, sc = 10.0 ** rng.integers(-6, 7, size=2)
        res, scaled = simplex_solve(c, A, b), simplex_solve(sc * c, A, sb * b)
        assert scaled.status == res.status
        if res.status == "optimal":
            assert abs(scaled.objective - sb * sc * res.objective) <= 1e-9 * sb * sc * (1.0 + abs(res.objective))


def test_lp_dual_ends_in_the_mirrored_status():
    # The LP dual of (c, A, b) is (-b, -A^T, -c): an optimal LP has an
    # optimal dual of the negated value, and an infeasible one has an
    # unbounded or infeasible dual.
    seen = set()
    for c, A, b in integer_lps(600, seed=43):
        res, dual = simplex_solve(c, A, b), simplex_solve(-b, -A.T, -c)
        seen.add((res.status, dual.status))
        if res.status == "optimal":
            assert dual.status == "optimal"
            assert abs(res.objective + dual.objective) <= 1e-9 * (1.0 + abs(res.objective))
        else:
            mirrored = {"infeasible": ("unbounded", "infeasible"), "unbounded": ("infeasible",)}
            assert dual.status in mirrored[res.status]
    assert {("infeasible", "unbounded"), ("unbounded", "infeasible"), ("infeasible", "infeasible")} <= seen


# ---------------------------------------------------------------------------
# The relative pivot test and the pivot update
# ---------------------------------------------------------------------------


def test_small_blocking_entry_beside_large_negative_one():
    # x0 has the column (1e-6, -2e3) in the equality rows: only row 0
    # blocks, at x0 = 1e6, and the large entry does not make 1e-6 roundoff.
    A = np.array([[1e-6, 1.0, 0.0], [-2e3, 0.0, 1.0]])
    res = equality_lp(np.array([-1.0, 0.0, 0.0]), A, np.array([1.0, 5.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1e6, rel=1e-12)


def test_ratio_rejects_roundoff_entries_and_clamps_values():
    # Entry 1.82e-9 is roundoff beside 5.3e3 and is no pivot; only entries
    # of the counting sign set the scale, and a small column is judged
    # against 1.
    labels = np.array([0, 1])
    assert _ratio(np.array([1.82e-9, 5.3e3]), np.array([0.0, 1.0]), labels) == 1
    assert _ratio(np.array([1.82e-9, -5.3e3]), np.array([0.0, 1.0]), labels) == 0
    assert _ratio(np.array([1e-10, 1e-10]), np.array([0.0, 1.0]), labels) is None
    # A value that roundoff drove below zero steps at ratio 0, tied with a
    # degenerate one; the smaller label takes the pivot.
    assert _ratio(np.ones(2), np.array([0.0, -1e-10]), np.array([3, 5])) == 0


def test_roundoff_pivot_regression():
    # A margin LP of the strict-member search: with a slack start and an
    # absolute pivot test, an earlier engine pivoted on an entry of 1.8e-9
    # beside entries of 5.3e3 and reported "unbounded" although the LP is
    # bounded.
    with open(ROUNDOFF_PIVOT_LP) as fh:
        case = json.load(fh)
    res = equality_lp(np.array(case["c"]), np.array(case["A"]), np.array(case["b"]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_pivot_matches_full_update():
    # The Tucker exchange of row 5 and column 4.  Rows with a zero factor
    # are skipped; they would compute t - 0 p = t, so the tableau equals
    # the full update.
    rng = np.random.default_rng(17)
    for zeros in ((), (0, 1, 2), (0, 2, 4, 6)):
        t = rng.normal(size=(7, 9))
        t[list(zeros), 4] = 0.0
        t[5, 4] = 2.5
        p = t[5, 4]
        expected = t - np.outer(t[:, 4], t[5] / p)
        expected[:, 4] = t[:, 4] / p
        expected[5] = -t[5] / p
        expected[5, 4] = 1.0 / p
        before = t.copy()
        _pivot(t, 5, 4)
        assert np.array_equal(t, expected)
        assert all(np.array_equal(t[i], before[i]) for i in zeros)


def ratio_clamp_cases():
    with open(RATIO_CLAMP_LPS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", ratio_clamp_cases(), ids=["item18", "item19"])
def test_ratio_clamp_regression(case):
    # A row whose right-hand side roundoff made negative must block the step
    # at ratio 0; skipping it let an earlier engine drive it to -0.23 and
    # report "unbounded" on these strict-member LPs.
    A, b = np.array(case["A"]), np.array(case["b"])
    res = equality_lp(np.array(case["c"]), A, b)
    assert res.status == "optimal"
    assert res.x.min() >= 0.0
    assert np.abs(A @ res.x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())


def test_roundoff_column_regression():
    # A CLP LP on which an earlier engine entered a column of reduced cost
    # -1.09e-9 that no row blocks, and reported "unbounded".
    linprog = pytest.importorskip("scipy.optimize").linprog
    with open(PHASE_ONE_ROUNDOFF_COLUMN) as fh:
        case = json.load(fh)
    A = np.zeros(case["shape"])
    A[case["rows"], case["cols"]] = np.array(case["values"])[case["index"]]
    b, c = np.array(case["b"]), np.array(case["c"])
    res = equality_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, method="highs")
    assert ref.status == 0 and res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, rel=1e-9)
