"""The linear programs behind the theorem pipelines: the strict-member LP,
the choice of the LP that ``solve`` runs, the last-pair ``solve`` memo and
the check-free transpose."""

import gc
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from conedual import duality
from conedual.continuous_lp import ContinuousLPSpec, discretize_clp
from conedual.cones import (
    contains,
    generated,
    generators,
    interior_contains,
    orthant,
    slice_cone,
    wedge,
)
from conedual.duality import (
    ConicProblem,
    feasible_dual,
    feasible_primal,
    problem_from_dict,
    solve,
    verify_interior_optima,
    verify_strict_feasibility,
)
from conedual.farkas import farkas_dual, farkas_primal, verify_outcome
from conedual.instances import interior_optimum_problem
from conedual.linops import OperatorSpec, PairingSpec
from conedual.simplex import simplex_solve
from oracles import dual, margin_row_strict_lp, same_bits
from test_duality import degenerate_orthant_pairs, swaps_and_negates

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "strict_phase_one.json")


def _cone(rng, family, dim):
    """A cone of ``family``, and for a slice the point it was cut through
    (None otherwise)."""
    if family == "orthant":
        return orthant(dim), None
    if family == "wedge":
        return wedge(rng.uniform(0.15, math.pi / 2 - 0.15, size=dim // 2)), None
    if family == "generated":
        # d to 2d generators, not all in one half-space in general.
        return generated(rng.uniform(-0.5, 1.0, size=(dim, int(rng.integers(dim, 2 * dim + 1))))), None
    # A slice of the orthant through an interior point, so it has a
    # relative interior.
    x0 = rng.uniform(0.5, 1.5, size=dim)
    normal = rng.uniform(-1.0, 1.0, size=dim)
    return slice_cone(orthant(dim), normal - (normal @ x0) / (x0 @ x0) * x0), x0


def _inner(rng, cone, cut):
    """A point in the relative interior of ``cone``: the cut point of a
    slice, otherwise a positive combination of the generators."""
    if cut is not None:
        return cut
    g = generators(cone)
    return g @ rng.uniform(0.5, 1.5, size=g.shape[1])


def random_pairs(family, count, seed):
    """Pairs on ``family`` cones, of dimension 2-6 (2-4 for generated
    cones, on d to 2d generators): half built so that both strict sets are
    nonempty (``A`` annihilates relative-interior points on both sides,
    ``b = c = 0``), half with uniform random data."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        if family == "wedge":
            dim = 2 * int(rng.integers(1, 4))
        else:
            dim = int(rng.integers(2, 5 if family == "generated" else 7))
        cone_s, cut_s = _cone(rng, family, dim)
        cone_t, cut_t = _cone(rng, "orthant" if family == "slice" else family, dim)
        mat = rng.uniform(-1.0, 1.0, size=(dim, dim))
        b, c = rng.uniform(-1.0, 1.0, size=dim), rng.uniform(-1.0, 1.0, size=dim)
        if i % 2 == 0:
            x0 = _inner(rng, cone_s, cut_s)
            y0 = _inner(rng, cone_t, cut_t)
            p_x = np.eye(dim) - np.outer(x0, x0) / (x0 @ x0)
            p_y = np.eye(dim) - np.outer(y0, y0) / (y0 @ y0)
            mat = p_y @ mat @ p_x
            b, c = np.zeros(dim), np.zeros(dim)
        pairs.append(ConicProblem(A=OperatorSpec(matrix=mat), b=b, c=c, S=cone_s, T=cone_t))
    return pairs


class SimplexSpy:
    """Records the ``simplex_solve`` calls made from ``duality``: their
    ``(cost, M, beta)`` and their results."""

    def __init__(self, monkeypatch):
        self.lps = []
        self.results = []
        real = duality.simplex_solve

        def spy(cost, M, beta, **kwargs):
            res = real(cost, M, beta, **kwargs)
            self.lps.append((cost, M, beta))
            self.results.append(res)
            return res

        monkeypatch.setattr(duality, "simplex_solve", spy)


def same_report(r1, r2):
    floats = ("v_primal", "v_dual", "gap")
    return (
        all(np.float64(getattr(r1, f)).tobytes() == np.float64(getattr(r2, f)).tobytes() for f in floats)
        and same_bits(r1.x_star, r2.x_star)
        and same_bits(r1.y_star, r2.y_star)
        and r1.comp_residuals == r2.comp_residuals
        and r1.flags == r2.flags
        and (r1.status_primal, r1.status_dual) == (r2.status_primal, r2.status_dual)
        and r1.notes == r2.notes
    )


HIGHS_STATUSES = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def lps_agree_with_highs(optimize, spy):
    """Check every LP the spy saw against HiGHS: the same status, and the
    same optimal value; returns the statuses seen."""
    seen = set()
    for (cost, M, beta), res in zip(spy.lps, spy.results):
        ref = optimize.linprog(cost, A_ub=-M, b_ub=-beta, bounds=(0, None), method="highs")
        assert res.status == HIGHS_STATUSES[ref.status]
        seen.add(res.status)
        if res.status == "optimal":
            assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    return seen


def solve_agrees_with_highs(optimize, spy, pb):
    """Solve ``pb`` and check both reported statuses against HiGHS on the
    LPs of ``pb`` and ``pb.transpose()``, posed here whether or not
    ``solve`` ran them; returns how many LPs ``solve`` ran."""
    before = len(spy.lps)
    report = solve(pb)
    for q, status in ((pb, report.status_primal), (pb.transpose(), report.status_dual)):
        cost, M, beta, _ = duality._standard_form(q)
        ref = optimize.linprog(cost, A_ub=-M, b_ub=-beta, bounds=(0, None), method="highs")
        assert status == HIGHS_STATUSES[ref.status]
    return len(spy.lps) - before


# ---------------------------------------------------------------------------
# Strict-member LP
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["orthant", "wedge", "slice"])
def test_strict_member_lp_matches_margin_row_formulation(family, monkeypatch):
    # The fixed-margin LP finds a point exactly where the margin-row LP
    # maximizes the margin to at least the old acceptance margin 1e-7.
    spy = SimplexSpy(monkeypatch)
    found = strict_pairs_found = 0
    for i, pb in enumerate(random_pairs(family, 12, seed={"orthant": 1, "wedge": 2, "slice": 3}[family])):
        for p in (pb, pb.transpose()):
            status, delta = margin_row_strict_lp(p)
            spy.lps.clear()
            point = duality._strict_member(p)
            ((cost, M, _),) = spy.lps
            # One row per row of M = G_T^T A G_S.
            assert not cost.any() and M.shape[0] == duality._dual_rows(p.T, p.A.matrix @ generators(p.S)).shape[0]
            assert (point is not None) == (status == "optimal" and delta >= 1e-7)
            if point is None:
                continue
            found += 1
            strict_pairs_found += i % 2 == 0
            image = p.A.matrix @ point
            assert interior_contains(p.S, point, 1e-9)
            assert contains(dual(p.T), image - p.b, 1e-7)
            assert contains(dual(p.T), image, 1e-7)
    # Both outcomes occur on every family, and every LP of the pairs built
    # with both strict sets finds its point.
    assert strict_pairs_found == 12 and found < 24


def strict_phase_one_cases():
    with open(FIXTURES) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", strict_phase_one_cases(), ids=lambda case: case["source"])
def test_strict_pipeline_regressions(case):
    # The margin-maximizing LPs of earlier versions stopped with "phase one
    # reported unbounded" on these pairs of the pipelines benchmark.
    pb = problem_from_dict(case["problem"])
    interior = verify_interior_optima(pb)
    report = verify_strict_feasibility(pb)
    if "strict pair" in case["source"]:
        assert report.flags.systems_solved == (True, True)
        assert report.flags.strict_primal_nonempty and report.flags.strict_dual_nonempty
        assert abs(report.gap) <= 1e-8
    else:
        # Interior pairs whose strict set is empty on one side: that
        # precondition is reported as unmet, and the interior pipeline
        # concludes.
        assert interior.flags.systems_solved == (True, True)
        assert report.flags.systems_solved == (False, False)
        assert not (report.flags.strict_primal_nonempty and report.flags.strict_dual_nonempty)
        assert any("precondition not met: strict" in note for note in report.notes)


@pytest.mark.parametrize("case", strict_phase_one_cases(), ids=lambda case: case["source"])
def test_strict_regression_lps_agree_with_highs(case, monkeypatch):
    # A strict set is reported empty only where HiGHS finds the LP infeasible.
    optimize = pytest.importorskip("scipy.optimize")
    pb = problem_from_dict(case["problem"])
    spy = SimplexSpy(monkeypatch)
    for p in (pb, pb.transpose()):
        spy.lps.clear()
        found = duality._strict_member(p) is not None
        cost, M, beta = spy.lps[0]
        res = optimize.linprog(cost, A_ub=-M, b_ub=-beta, bounds=(0, None), method="highs")
        assert res.status == (0 if found else 2)


def test_pipeline_lp_statuses_agree_with_highs(monkeypatch):
    # Every LP that solve and the strict-member search pose on a small
    # seeded set gets the status HiGHS gives it, and the same optimal value.
    # So does every status solve reports, also for a side whose LP it did
    # not run; some pairs take one LP and some two.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(17)
    pairs = [p for family in ("orthant", "wedge", "slice") for p in random_pairs(family, 6, seed=5)]
    for dim, family in ((3, "orthant"), (4, "wedge"), (4, "mixed")):
        pairs.append(interior_optimum_problem(rng, dim, family)[0])
    spec = ContinuousLPSpec(
        m=2,
        n=2,
        horizon=1.0,
        n_grid=16,
        B=rng.uniform(0.5, 1.5, size=(2, 2)),
        K=rng.uniform(-1.0, 1.0, size=(2, 2)),
        b=rng.uniform(0.1, 1.0, size=2),
        c=rng.uniform(0.5, 1.5, size=2),
    )
    pairs.append(discretize_clp(spec))
    spy = SimplexSpy(monkeypatch)
    solve_lps = 0
    for pb in pairs:
        solve_lps += solve_agrees_with_highs(optimize, spy, pb)
        duality._strict_member(pb)
        duality._strict_member(pb.transpose())
    seen = lps_agree_with_highs(optimize, spy)
    assert len(spy.lps) == solve_lps + 2 * len(pairs) and seen == {"optimal", "infeasible", "unbounded"}
    assert len(pairs) < solve_lps < 2 * len(pairs)


def test_generated_cone_pairs_pose_the_lps_highs_solves(monkeypatch):
    # Pairs with generated cones on both sides: every LP that solve and the
    # strict-member search pose gets the status HiGHS gives it, and the
    # same optimal value, and so does every status solve reports.
    optimize = pytest.importorskip("scipy.optimize")
    pairs = random_pairs("generated", 200, seed=23)
    spy = SimplexSpy(monkeypatch)
    solve_lps = 0
    for pb in pairs:
        solve_lps += solve_agrees_with_highs(optimize, spy, pb)
        # After its LP, the interior probe of a point of order 1e4 runs an
        # NNLS whose KKT tolerance is absolute; an index that enters there
        # on roundoff is rejected, so no SolverFailure is raised.
        duality._strict_member(pb)
        duality._strict_member(pb.transpose())
    seen = lps_agree_with_highs(optimize, spy)
    assert len(spy.lps) == solve_lps + 2 * len(pairs) and seen == {"optimal", "infeasible", "unbounded"}
    assert len(pairs) < solve_lps < 2 * len(pairs)


def test_generated_cone_pairs_run_both_pipelines_and_both_farkas_sides():
    # Every check reaches the dual cones through the generators, so no
    # call refuses a generated cone, and every Farkas outcome verifies.
    strict = 0
    for pb in random_pairs("generated", 200, seed=23):
        verify_interior_optima(pb)
        strict += verify_strict_feasibility(pb).flags.strict_primal_nonempty is True
        op = pb.operator()
        assert verify_outcome(farkas_primal(op, pb.b, pb.S), op, pb.b, pb.S)
        assert verify_outcome(farkas_dual(op, pb.c, pb.T), op, pb.c, pb.T)
    assert strict >= 100


# ---------------------------------------------------------------------------
# One LP per pair
# ---------------------------------------------------------------------------


def weighted_orthant_pairs(count, seed):
    """Orthant pairs whose operators carry random positive weights on both
    pairings, so that reading ``y*`` from the multipliers of the primal LP
    needs the ``W_Y^-1`` map."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(k) for k in rng.integers(2, 7, size=2))
        op = OperatorSpec(
            matrix=rng.uniform(-1.0, 1.0, size=(m, n)),
            pairing_domain=PairingSpec(weights=rng.uniform(0.1, 3.0, size=n)),
            pairing_codomain=PairingSpec(weights=rng.uniform(0.1, 3.0, size=m)),
        )
        b, c = rng.uniform(-1.0, 1.0, size=m), rng.uniform(-0.3, 1.0, size=n)
        yield ConicProblem(A=op, b=b, c=c, S=orthant(n), T=orthant(m))


def solved_by_one_lp(spy, pb):
    """``(report, side)`` of ``solve(pb)``, where ``side`` is 0 or 1 when
    the one LP it ran is that of ``pb`` or of ``pb.transpose()``, and None
    when it ran two."""
    spy.lps.clear()
    report = solve(pb)
    if len(spy.lps) != 1:
        return report, None
    return report, int(not same_bits(spy.lps[0][1], duality._standard_form(pb)[1]))


def test_optimizer_from_the_multipliers_is_optimal(monkeypatch):
    # Where solve runs one LP, the other side's optimizer is read from its
    # row multipliers.  With either LP run, both optimizers are feasible and
    # the gap is within tol (1 + |v|).
    spy = SimplexSpy(monkeypatch)
    picked = Counter()
    for family in ("orthant", "wedge", "slice", "generated"):
        for pb in random_pairs(family, 40, seed=7):
            report, side = solved_by_one_lp(spy, pb)
            if side is None:
                continue
            picked[family, side] += 1
            assert report.status_primal == report.status_dual == "optimal"
            assert feasible_primal(pb, report.x_star) and feasible_dual(pb, report.y_star)
            assert abs(report.gap) <= 1e-8 * (1.0 + abs(report.v_primal))
    assert all(picked[family, side] for family in ("orthant", "wedge", "slice", "generated") for side in (0, 1))


def test_weighted_pairs_read_the_multipliers_through_the_weights(monkeypatch):
    # On weighted orthant pairs a pair and its transpose give bit-swapped
    # reports.  Where one LP ran, the optimizer read from its multipliers is
    # feasible in the weighted pairings and its value is the optimal value
    # of the LP that was not run.
    spy = SimplexSpy(monkeypatch)
    picked = Counter()
    for pb in weighted_orthant_pairs(200, seed=31):
        report, side = solved_by_one_lp(spy, pb)
        assert swaps_and_negates(report, solve(pb.transpose()))
        if side is None:
            continue
        picked[side] += 1
        assert feasible_primal(pb, report.x_star) and feasible_dual(pb, report.y_star)
        assert abs(report.gap) <= 1e-8 * (1.0 + abs(report.v_primal))
        # The value of the side read from the multipliers, against its own LP.
        q = pb.transpose() if side == 0 else pb
        cost, M, beta, _ = duality._standard_form(q)
        other = simplex_solve(cost, M, beta).objective
        value = -report.v_dual if side == 0 else report.v_primal
        assert abs(value - other) <= 1e-9 * (1.0 + abs(other))
    assert picked[0] >= 5 and picked[1] >= 5


def integer_orthant_pairs(count, seed):
    """Orthant pairs with ``A``, ``b`` and ``c`` drawn from {-1, 0, 1}, so
    that right-hand sides and costs of 0 are common and the LPs of a pair
    and its transpose often tie on nonnegative right-hand sides."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(k) for k in rng.integers(2, 6, size=2))
        a = rng.integers(-1, 2, size=(m, n)).astype(float)
        b, c = rng.integers(-1, 2, size=m).astype(float), rng.integers(-1, 2, size=n).astype(float)
        yield ConicProblem(A=OperatorSpec(matrix=a), b=b, c=c, S=orthant(n), T=orthant(m))


def rhs_rows(pb):
    """The nonnegative right-hand sides of the LPs of ``pb`` and of
    ``pb.transpose()``, which ``solve`` ranks them by."""
    return [int((duality._dual_rows(q.T, q.b) >= 0).sum()) for q in (pb, pb.transpose())]


def test_integer_pairs_swap_under_transpose():
    for pb in integer_orthant_pairs(300, seed=2041):
        assert swaps_and_negates(solve(pb), solve(pb.transpose()))


def test_integer_pairs_agree_with_highs():
    optimize = pytest.importorskip("scipy.optimize")
    seen = Counter()
    for pb in integer_orthant_pairs(300, seed=2041):
        report = solve(pb)
        for q, status, value in (
            (pb, report.status_primal, report.v_primal),
            (pb.transpose(), report.status_dual, -report.v_dual),
        ):
            # The reference poses the rows with surplus columns: on one LP of
            # this family, feasible and unbounded, HiGHS's presolve reports
            # the inequality form ``A_ub = -M`` infeasible.
            cost, M, beta, _ = duality._standard_form(q)
            m = M.shape[0]
            ref = optimize.linprog(
                np.concatenate([cost, np.zeros(m)]), A_eq=np.hstack([M, -np.eye(m)]), b_eq=beta, bounds=(0, None), method="highs"
            )
            assert status == HIGHS_STATUSES[ref.status]
            seen[status] += 1
            if status == "optimal":
                assert abs(value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            else:
                assert value == duality._UNATTAINED_VALUE[status]
    assert min(seen.values()) >= 20 and len(seen) == 3


def test_solve_poses_only_the_lps_it_runs(monkeypatch):
    # The LP with fewer nonnegative right-hand sides is posed first (the
    # primal's on a tie).  It is the only one posed when the counts differ
    # and it ends optimal; otherwise the other LP is posed too.
    posed = []
    real = duality._standard_form

    def spy(q):
        posed.append(q)
        return real(q)

    monkeypatch.setattr(duality, "_standard_form", spy)
    cases = Counter()
    for pb in integer_orthant_pairs(300, seed=2041):
        posed.clear()
        report = solve(pb)
        rows = rhs_rows(pb)
        optimal = report.status_primal == report.status_dual == "optimal"
        assert (posed[0] is pb) == (rows[0] <= rows[1])
        assert len(posed) == (1 if rows[0] != rows[1] and optimal else 2)
        cases[rows[0] == rows[1], optimal] += 1
    assert all(cases[tie, optimal] for tie in (False, True) for optimal in (False, True))


def test_multipliers_below_roundoff_read_as_zero():
    # On degenerate orthant pairs some row multipliers end slightly
    # negative; read as 0, as basic values are, the optimizer from the
    # multipliers lies in its orthant exactly.
    optimal = 0
    for pb in degenerate_orthant_pairs(1000):
        report = solve(pb)
        if report.y_star is not None and report.x_star is not None:
            optimal += 1
            assert (report.x_star >= 0.0).all() and (report.y_star >= 0.0).all()
    assert optimal >= 100


# ---------------------------------------------------------------------------
# The last-pair solve memo
# ---------------------------------------------------------------------------


def interior_pair(seed=5):
    pb, _, _ = interior_optimum_problem(np.random.default_rng(seed), 4, "wedge")
    return pb


def test_repeat_solve_runs_no_simplex_and_is_bit_identical(monkeypatch):
    spy = SimplexSpy(monkeypatch)
    pb = interior_pair()
    first = solve(pb)
    assert len(spy.results) == 1
    second = solve(pb)
    assert len(spy.results) == 1
    assert same_report(first, second)
    assert second.x_star is not first.x_star and second.y_star is not first.y_star


def test_memo_hands_out_copies():
    pb = interior_pair()
    first = solve(pb)
    x_ref, y_ref = first.x_star.copy(), first.y_star.copy()
    first.x_star[:] = np.nan
    first.y_star[:] = np.nan
    second = solve(pb)
    assert same_bits(second.x_star, x_ref) and same_bits(second.y_star, y_ref)
    second.x_star[:] = 0.0
    assert same_bits(solve(pb).x_star, x_ref)


def test_memo_misses_on_new_object(monkeypatch):
    spy = SimplexSpy(monkeypatch)
    pb = interior_pair()
    first = solve(pb)
    twin = ConicProblem(A=pb.A, b=pb.b.copy(), c=pb.c.copy(), S=pb.S, T=pb.T)
    assert same_report(solve(twin), first)
    assert len(spy.results) == 2


def test_memo_holds_only_a_weak_reference():
    pb = interior_pair()
    solve(pb)
    ref = duality._last_solve[0]
    assert ref() is pb
    del pb
    gc.collect()
    assert ref() is None


def test_pipelines_share_one_solve(monkeypatch):
    calls = []
    real = duality._optimizers

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(duality, "_optimizers", counting)
    pb = interior_pair()
    verify_interior_optima(pb)
    assert len(calls) == 1
    verify_strict_feasibility(pb)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Transpose
# ---------------------------------------------------------------------------


def test_transpose_skips_construction_checks(monkeypatch):
    calls = []
    real = duality._check_pairing_dual

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "_check_pairing_dual", counting)
    pb = interior_pair()
    assert len(calls) == 2
    pt = pb.transpose()
    back = pt.transpose()
    assert len(calls) == 2
    assert pt.S is pb.T and back.S is pb.S
    ConicProblem(A=pb.A, b=pb.b, c=pb.c, S=generated(np.ones((4, 1))), T=pb.T)
    assert len(calls) == 4
