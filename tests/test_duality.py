"""Conic pair solving, complementarity, and the verification pipelines."""

import ast
import json
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import dual, rank_system_solved, same_bits
from test_pipeline_shortcuts import gate_pairs

from conedual import cli, duality, instances
from conedual.complex_lp import ComplexLPSpec, build_complex_lp
from conedual.cones import generated, generators, interior_contains, is_solid, orthant, product, slice_cone, wedge
from conedual.continuous_lp import ContinuousLPSpec, discretize_clp
from conedual.duality import (
    ConicProblem,
    complementarity,
    feasible_dual,
    feasible_primal,
    problem_from_dict,
    problem_to_dict,
    report_to_dict,
    solve,
    verify_interior_optima,
    verify_strict_feasibility,
)
from conedual.errors import SolverFailure, TheoremViolation
from conedual.farkas import farkas_dual, farkas_primal
from conedual.instances import interior_optimum_problem
from conedual.linops import OperatorSpec, adjoint_matrix, pairing, weighted_quadrature

I2 = np.eye(2)


def identity_problem(b=(1.0, 1.0), c=(1.0, 1.0)):
    return ConicProblem(
        A=OperatorSpec(matrix=I2),
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
        S=orthant(2),
        T=orthant(2),
    )


def brute_force_value(pb, box=4.0, step=0.002):
    """Grid oracle for 2-D primal problems over the orthant."""
    xs = np.arange(0.0, box + step / 2, step)
    best = np.inf
    t_dual = dual(pb.T)
    from conedual.cones import contains

    for x1 in xs:
        # Feasibility in x2 is monotone for these instances; scan directly.
        col = np.stack([np.full_like(xs, x1), xs], axis=1)
        imgs = col @ pb.A.matrix.T - pb.b
        feas = np.all(imgs >= -1e-12, axis=1) if t_dual.kind == "orthant" else np.array(
            [contains(t_dual, v, 1e-12) for v in imgs]
        )
        if np.any(feas):
            vals = col[feas] @ pb.c
            best = min(best, float(vals.min()))
    return best


def test_problem_validation():
    with pytest.raises(ValueError, match="codomain"):
        ConicProblem(
            A=OperatorSpec(matrix=I2), b=np.ones(3), c=np.ones(2), S=orthant(2), T=orthant(2)
        )
    # A ray and the slice {0} have no interior; their pairs construct and solve.
    ray = generated(np.array([[1.0], [1.0]]))
    report = solve(ConicProblem(A=OperatorSpec(matrix=I2), b=np.ones(2), c=np.ones(2), S=ray, T=orthant(2)))
    assert report.v_primal == pytest.approx(2.0, abs=1e-12)
    assert report.v_dual == pytest.approx(2.0, abs=1e-12)

    origin = slice_cone(orthant(2), [1.0, 1.0])
    report = solve(ConicProblem(A=OperatorSpec(matrix=I2), b=np.ones(2), c=np.ones(2), S=origin, T=orthant(2)))
    assert (report.status_primal, report.status_dual) == ("infeasible", "unbounded")


def test_equality_constrained_pairs_match_highs():
    # T = generated([I, -I]) is the whole space, so T* = {0} and the primal
    # is the standard-form LP min <c, x> s.t. A x = b, x >= 0.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(61)
    statuses = Counter()
    for _ in range(200):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        a, b, c = rng.uniform(-1.0, 1.0, size=(m, n)), rng.uniform(-1.0, 1.0, size=m), rng.uniform(-1.0, 1.0, size=n)
        free = generated(np.hstack([np.eye(m), -np.eye(m)]))
        pb = ConicProblem(A=OperatorSpec(matrix=a), b=b, c=c, S=orthant(n), T=free)
        ref = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        report = solve(pb)
        assert report.status_primal == status
        if status == "optimal":
            assert abs(report.v_primal - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
        else:
            assert report.v_primal == (math.inf if status == "infeasible" else -math.inf)
        verify_interior_optima(pb)
        verify_strict_feasibility(pb)
        statuses[status] += 1
    assert min(statuses.values()) >= 20 and len(statuses) == 3, statuses


def test_slice_meeting_its_base_on_the_boundary_solves():
    # The ray along (1, 1, 1) is an extreme ray of the base, so the slice
    # meets the base only on its boundary; (1, 1, 1) is still in the
    # relative interior of the slice.
    gens = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    cone = slice_cone(generated(gens), np.array([0.1, 0.2, -0.3]))
    assert interior_contains(cone, np.ones(3), 1e-9)
    pb = ConicProblem(A=OperatorSpec(matrix=np.eye(3)), b=np.zeros(3), c=np.ones(3), S=cone, T=orthant(3))
    report = verify_interior_optima(pb)
    assert report.v_primal == pytest.approx(0.0, abs=1e-12)
    report = verify_strict_feasibility(pb)
    assert report.flags.strict_primal_nonempty is True


def test_rank_deficient_generated_cones_run_every_path():
    rng = np.random.default_rng(67)
    for _ in range(200):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        rank = int(rng.integers(1, n))
        gens = rng.uniform(-1.0, 1.0, size=(n, rank)) @ rng.uniform(0.1, 1.0, size=(rank, int(rng.integers(1, 7))))
        a, b, c = rng.uniform(-1.0, 1.0, size=(m, n)), rng.uniform(-1.0, 1.0, size=m), rng.uniform(-1.0, 1.0, size=n)
        pb = ConicProblem(A=OperatorSpec(matrix=a), b=b, c=c, S=generated(gens), T=orthant(m))
        assert not is_solid(pb.S)
        report = verify_interior_optima(pb)
        assert report.flags.primal_interior_opt is False
        verify_strict_feasibility(pb)
        farkas_primal(pb.A, pb.b, pb.S)
        farkas_dual(pb.A, pb.c, pb.T)


def test_solidity_probe_is_scale_free():
    # Interior membership is invariant under positive scaling, and so is the probe.
    g2 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    g3 = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    for k in range(-8, 9):
        for cone in (generated(10.0**k * g2), slice_cone(generated(10.0**k * g3), [1.0, -1.0, 0.0])):
            n = cone.dim
            ConicProblem(A=OperatorSpec(matrix=np.eye(n)), b=np.ones(n), c=np.ones(n), S=cone, T=orthant(n))


def test_solve_uses_the_operators_weighted_pairings():
    # min x1 + 3 x2 over x >= (1, 1); the dual bound is y <= (1/2, 3/5) and
    # <y, b>_Y = 2 y1 + 5 y2.
    a = OperatorSpec(
        matrix=I2,
        pairing_domain=weighted_quadrature([1.0, 3.0]),
        pairing_codomain=weighted_quadrature([2.0, 5.0]),
    )
    report = solve(ConicProblem(A=a, b=np.ones(2), c=np.ones(2), S=orthant(2), T=orthant(2)))
    assert report.v_primal == pytest.approx(4.0, abs=1e-12)
    assert report.v_dual == pytest.approx(4.0, abs=1e-12)
    assert report.y_star == pytest.approx([0.5, 0.6], abs=1e-12)


def test_non_uniform_weights_refused_off_orthants():
    # Under Y-weights (1, 100) the Euclidean dual of the wedge is not its
    # dual in the pairing: solve would return v_primal 1.309 < v_dual 2.
    skewed = weighted_quadrature([1.0, 100.0])
    ones = np.ones(2)
    with pytest.raises(ValueError, match="non-uniform pairing weights on cone T"):
        ConicProblem(A=OperatorSpec(matrix=I2, pairing_codomain=skewed), b=ones, c=ones, S=orthant(2), T=wedge(0.3))
    with pytest.raises(ValueError, match="non-uniform pairing weights on cone S"):
        ConicProblem(A=OperatorSpec(matrix=I2, pairing_domain=skewed), b=ones, c=ones, S=wedge(0.3), T=orthant(2))
    weighted_clp_problem()
    uniform = OperatorSpec(matrix=I2, pairing_codomain=weighted_quadrature([2.0, 2.0]))
    assert solve(ConicProblem(A=uniform, b=ones, c=ones, S=orthant(2), T=wedge(0.3))).gap >= -1e-12


def test_products_of_orthants_take_non_uniform_weights():
    # A product of orthants is the orthant, whose Euclidean dual is its dual
    # under any positive diagonal weights: same data, same bits.
    a = OperatorSpec(
        matrix=np.array([[2.0, 1.0], [1.0, 3.0]]),
        pairing_domain=weighted_quadrature([1.0, 100.0]),
        pairing_codomain=weighted_quadrature([3.0, 7.0]),
    )
    b, c = np.array([1.0, 2.0]), np.array([3.0, 1.0])
    pair = product(orthant(1), orthant(1))
    got = report_to_dict(solve(ConicProblem(A=a, b=b, c=c, S=pair, T=pair)))
    ref = report_to_dict(solve(ConicProblem(A=a, b=b, c=c, S=orthant(2), T=orthant(2))))
    assert json.dumps(got) == json.dumps(ref)
    assert got["status_primal"] == got["status_dual"] == "optimal"


def test_feasibility_examples():
    pb = identity_problem()
    assert feasible_primal(pb, np.array([2.0, 2.0]), 1e-8)
    assert not feasible_primal(pb, np.array([0.0, 0.0]), 1e-8)  # A x - b leaves the dual cone
    assert feasible_dual(pb, np.array([1.0, 1.0]), 1e-8)
    assert not feasible_dual(pb, np.array([2.0, 2.0]), 1e-8)
    zero = ConicProblem(
        A=OperatorSpec(matrix=I2), b=np.zeros(2), c=np.ones(2), S=orthant(2), T=orthant(2)
    )
    assert feasible_primal(zero, np.zeros(2), 1e-8)
    assert feasible_dual(zero, np.zeros(2), 1e-8)


def test_identity_instance_values_match_grid_oracle():
    pb = identity_problem()
    oracle = brute_force_value(pb)
    assert oracle == pytest.approx(2.0, abs=1e-2)
    report = solve(pb)
    assert report.v_primal == pytest.approx(2.0, abs=1e-9)
    assert report.v_dual == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(report.x_star, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(report.y_star, [1.0, 1.0], atol=1e-9)
    assert abs(report.gap) <= 1e-9


def test_infeasible_primal_convention():
    pb = ConicProblem(
        A=OperatorSpec(matrix=np.zeros((2, 2))),
        b=np.array([1.0, 0.0]),
        c=np.array([1.0, 1.0]),
        S=orthant(2),
        T=orthant(2),
    )
    report = solve(pb)
    assert report.status_primal == "infeasible"
    assert report.v_primal == math.inf


def test_unbounded_dual_convention():
    pb = ConicProblem(
        A=OperatorSpec(matrix=-I2),
        b=np.array([1.0, 1.0]),
        c=np.zeros(2),
        S=orthant(2),
        T=orthant(2),
    )
    report = solve(pb)
    assert report.status_dual == "unbounded"
    assert report.v_dual == math.inf
    assert report.status_primal == "infeasible"


def test_mixed_scale_orthant_pair_solves():
    # Costs nine orders above the right-hand side: neither LP may read as
    # optimal at 0.
    pb = ConicProblem(
        A=OperatorSpec(matrix=np.eye(1)), b=np.array([0.5]), c=np.array([1e9]), S=orthant(1), T=orthant(1)
    )
    report = solve(pb)
    assert report.status_primal == report.status_dual == "optimal"
    assert report.v_primal == report.v_dual == 5e8
    assert report.x_star[0] == 0.5 and report.y_star[0] == 1e9


def test_complementarity_examples():
    pb = identity_problem()
    report = solve(pb)
    first, second = complementarity(pb, report.x_star, report.y_star)
    assert abs(first) <= 1e-9 and abs(second) <= 1e-9
    # Feasible non-optimal pair: residual sum equals the objective gap.
    x, y = np.array([2.0, 2.0]), np.array([0.0, 0.0])
    first, second = complementarity(pb, x, y)
    gap = pairing(None, pb.c, x) - pairing(None, y, pb.b)
    assert first + second == pytest.approx(gap, abs=1e-12)
    assert first >= -1e-9 and second >= -1e-9


def test_weak_duality_and_gap_decomposition_random():
    rng = np.random.default_rng(157)
    for _ in range(60):
        dim = int(rng.integers(2, 5))
        mat = rng.uniform(-1, 1, size=(dim, dim))
        cone_s = orthant(dim)
        cone_t = orthant(dim)
        x0 = rng.uniform(0.1, 1.0, size=dim)
        y0 = rng.uniform(0.1, 1.0, size=dim)
        b = mat @ x0 - rng.uniform(0.0, 1.0, size=dim)  # x0 strictly feasible
        c = mat.T @ y0 + rng.uniform(0.0, 1.0, size=dim)  # y0 strictly feasible
        pb = ConicProblem(A=OperatorSpec(matrix=mat), b=b, c=c, S=cone_s, T=cone_t)
        assert feasible_primal(pb, x0, 1e-9) and feasible_dual(pb, y0, 1e-9)
        report = solve(pb)
        if report.status_primal == "optimal" and report.status_dual == "optimal":
            assert report.gap >= -1e-8
        pairs = [(x0, y0)]
        if report.x_star is not None and report.y_star is not None:
            pairs.append((report.x_star, report.y_star))
        for x, y in pairs:
            lhs = pairing(None, pb.c, x) - pairing(None, y, pb.b)
            first, second = complementarity(pb, x, y)
            assert abs(lhs - (first + second)) <= 1e-10 * (1 + abs(lhs))
            assert lhs >= -1e-8
            assert first >= -1e-9 and second >= -1e-9


def test_interior_pipeline_identity_instance():
    report = verify_interior_optima(identity_problem())
    assert report.flags.systems_solved == (True, True)
    assert abs(report.gap) <= 1e-8


def test_interior_pipeline_vacuous_on_boundary_optimum():
    # A zero coordinate in c parks the dual optimum on the boundary.
    pb = identity_problem(c=(1.0, 0.0))
    report = verify_interior_optima(pb)
    assert any("precondition not met" in note for note in report.notes)


def test_interior_pipeline_constructed_batch():
    rng = np.random.default_rng(163)
    for _ in range(20):
        pb, x0, y0 = interior_optimum_problem(rng, 3)
        report = verify_interior_optima(pb)
        assert report.flags.systems_solved == (True, True)
        assert abs(report.gap) <= 1e-8
        np.testing.assert_allclose(report.x_star, x0, atol=1e-7)
        np.testing.assert_allclose(report.y_star, y0, atol=1e-7)


def test_interior_pipeline_wedge_instances():
    rng = np.random.default_rng(167)
    for _ in range(10):
        pb, _, _ = interior_optimum_problem(rng, 4, family="wedge")
        report = verify_interior_optima(pb)
        assert report.flags.systems_solved == (True, True)
        assert abs(report.gap) <= 1e-8


def interior_gap_cases():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "interior_gap_pairs.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", interior_gap_cases(), ids=lambda case: case["source"])
def test_interior_gap_check_is_relative(case):
    # Interior pairs with b and c scaled by 1e3: values near 1e6, so a gap of
    # ten ulps exceeds an absolute 1e-8.  No theorem fails on them.
    pb = problem_from_dict(case["problem"])
    report = verify_interior_optima(pb)
    assert report.flags.systems_solved == (True, True)
    assert abs(report.v_primal) > 1e6
    assert abs(report.gap) <= 1e-13 * abs(report.v_primal)


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_interior_pipeline_concludes_on_scaled_values(scale):
    # Scaling b and c scales both values by the same factor; the verdict
    # must not change.  An absolute 1e-8 gap check raised on most of these.
    for seed in range(20):
        pb, _, _ = interior_optimum_problem(np.random.default_rng(seed), 4)
        scaled = ConicProblem(A=pb.A, b=scale * pb.b, c=scale * pb.c, S=pb.S, T=pb.T)
        assert verify_interior_optima(scaled).flags.systems_solved == (True, True)


def test_interior_batch_counts_scaled_pairs(monkeypatch):
    # The pass count follows the pipeline's own relative gap check: a pair
    # with both systems solved passes, whatever the size of its values.  An
    # absolute |gap| <= tol re-check rejected 129 of these 200 pairs.
    make = instances.interior_optimum_problem

    def scaled(rng, dim, family="mixed"):
        pb, x0, y0 = make(rng, dim, family)
        return ConicProblem(A=pb.A, b=1e4 * pb.b, c=1e4 * pb.c, S=pb.S, T=pb.T), x0, y0

    monkeypatch.setattr(instances, "interior_optimum_problem", scaled)
    count = 200
    passes, violations, gaps = instances.interior_batch(0, count)
    assert passes == count - violations
    assert max(gaps) > 1e-8


def test_solve_values_match_equality_system_solutions():
    # On interior pairs both equality systems are solvable, and weak duality
    # makes every solution optimal: <c, x> = <y, A x> = <y, b> lies between
    # the two optimal values.  So solve's values must agree with the values
    # of fresh Farkas solutions of the two systems.
    tol = 1e-8
    rng = np.random.default_rng(173)
    pairs = [interior_optimum_problem(rng, dim, family)[0] for dim in (2, 4, 6) for family in ("orthant", "wedge")
             for _ in range(5)]
    pairs += [problem_from_dict(case["problem"]) for case in interior_gap_cases()]
    for pb in pairs:
        report = solve(pb)
        x_hat = farkas_primal(pb.A, pb.b, pb.S, tol=tol).point
        y_hat = farkas_dual(pb.A, pb.c, pb.T, tol=tol).point
        assert abs(pairing(pb.A.pairing_domain, pb.c, x_hat) - report.v_primal) <= 10 * tol * (1.0 + abs(report.v_primal))
        assert abs(pairing(pb.A.pairing_codomain, y_hat, pb.b) - report.v_dual) <= 10 * tol * (1.0 + abs(report.v_dual))


def test_interior_gap_check_raises_on_relative_gap(monkeypatch):
    # A gap of 1e-6 relative to the value is no roundoff: still a violation.
    pb = problem_from_dict(interior_gap_cases()[0]["problem"])
    solve_pair = duality.solve

    def shifted(pb):
        report = solve_pair(pb)
        report.v_dual = report.v_primal * (1.0 + 1e-6)
        report.gap = report.v_primal - report.v_dual
        return report

    monkeypatch.setattr(duality, "solve", shifted)
    with pytest.raises(TheoremViolation, match="interior optima on both sides but gap"):
        verify_interior_optima(pb)


def test_contrapositive_boundary_dual_optimum():
    # Primal equality system insoluble while the dual optimum exists: every
    # returned dual optimizer must sit on the boundary of its cone.
    pb = identity_problem(b=(-1.0, 0.0))
    out = farkas_primal(pb.operator(), pb.b, pb.S)
    assert out.branch == "certificate"
    report = solve(pb)
    assert report.status_dual == "optimal"
    assert not interior_contains(pb.T, report.y_star, 1e-6)


@pytest.mark.parametrize("seed,item", [(0, 14), (5, 11), (7, 17), (8, 11), (14, 5), (19, 2)])
def test_slice_optimizers_are_not_interior(seed, item):
    # Random slice pairs whose optimizers lie in the relative interiors of
    # both slices.  A slice has no interior, so the theorem's precondition
    # (int T nonempty, and int S on the other side) is not met: the verdict
    # is vacuous, not a violation.
    style, pb = list(gate_pairs("slice", seed))[item]
    assert style == "random"
    report = verify_interior_optima(pb)
    assert interior_contains(pb.S, report.x_star, duality.INTERIOR_TOL)
    assert interior_contains(pb.T, report.y_star, duality.INTERIOR_TOL)
    assert (report.flags.primal_interior_opt, report.flags.dual_interior_opt) == (False, False)
    assert report.flags.systems_solved == (False, False)
    assert report.notes == [
        "precondition not met: dual optimum not interior or not attained",
        "precondition not met: primal optimum not interior or not attained",
    ]


def product_pairs(rng, count):
    """Pairs whose cones are products, half of them with a slice factor,
    built as in ``interior_optimum_problem``: interior ``x0`` and ``y0``
    (relative interior for a slice factor) are optimal."""
    pairs = []
    for index in range(count):
        cones = []
        for _ in range(2):
            # A slice of the orthant through an interior point.
            point = rng.uniform(0.5, 1.5, size=3)
            normal = rng.uniform(-1.0, 1.0, size=3)
            first = slice_cone(orthant(3), normal - (normal @ point) / (point @ point) * point)
            cones.append(product(first if index % 2 else orthant(3), wedge(rng.uniform(0.3, 1.2))))
        mat = rng.uniform(-1.0, 1.0, size=(5, 5))
        x0, y0 = (generators(cone) @ rng.uniform(0.5, 1.5, size=generators(cone).shape[1]) for cone in cones)
        pairs.append(ConicProblem(A=OperatorSpec(matrix=mat), b=mat @ x0, c=mat.T @ y0, S=cones[0], T=cones[1]))
    return pairs


def test_interior_flags_need_a_full_dimensional_cone():
    # A cone with a slice factor has no interior, so its optimizer is never
    # interior; on every other cone the flag is the margin test.
    pairs = [pb for family in ("orthant", "wedge", "slice") for seed in range(3) for _, pb in gate_pairs(family, seed)]
    pairs += product_pairs(np.random.default_rng(191), 12)
    relative_interior = Counter()
    for pb in pairs:
        report = solve(pb)
        for flag, cone, point in (
            (report.flags.primal_interior_opt, pb.S, report.x_star),
            (report.flags.dual_interior_opt, pb.T, report.y_star),
        ):
            inside = point is not None and interior_contains(cone, point, duality.INTERIOR_TOL)
            factors = cone.factors if cone.kind == "product" else (cone,)
            if any(f.kind == "slice" for f in factors):
                assert not flag
                relative_interior[cone.kind] += inside
            else:
                assert flag == inside
                relative_interior["solid"] += inside
    # Each branch is reached by optimizers that pass the margin test.
    assert relative_interior["slice"] and relative_interior["solid"]


def test_system_solved_matches_the_generator_rank_test():
    # _system_solved tells a full-dimensional T by its kind; the reference
    # tells it by the rank of the generators of T.
    pairs = [pb for family in ("orthant", "wedge", "slice") for seed in range(4) for _, pb in gate_pairs(family, seed)]
    pairs += product_pairs(np.random.default_rng(193), 8)
    decided = Counter()
    for pb in pairs:
        for q in (pb, pb.transpose()):
            outcome = _pipeline_outcome(lambda q: duality._system_solved(q, 1e-8), q)
            assert outcome == _pipeline_outcome(lambda q: rank_system_solved(q, 1e-8), q)
            decided[outcome] += 1
    assert decided[True] and decided[False]


def test_only_duality_raises_theorem_violation():
    # The applications build conic pairs; the theorem claims, and so the
    # exit code 3, belong to the pipelines of duality.
    raising = set()
    for path in Path(duality.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and "TheoremViolation" in ast.dump(node):
                raising.add(path.name)
    assert raising == {"duality.py"}


def centered_kernel_problem():
    # Symmetric operator with positive two-sided kernel: strictly positive
    # points map to the dual cones, so the strict sets are nonempty.
    mat = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    return ConicProblem(
        A=OperatorSpec(matrix=mat),
        b=np.zeros(3),
        c=np.zeros(3),
        S=orthant(3),
        T=orthant(3),
    )


def test_strict_feasibility_pipeline_passes():
    report = verify_strict_feasibility(centered_kernel_problem())
    assert report.flags.strict_primal_nonempty
    assert report.flags.strict_dual_nonempty
    assert report.flags.systems_solved == (True, True)
    assert abs(report.gap) <= 1e-8


def test_strict_feasibility_precondition_failure():
    # -A^T y in S* forces y = 0 for the identity operator, so the strict
    # dual set is empty.  -b = (-1, -1) is not in T*, so the pipeline stops
    # at its gate without searching, and reports the unmet precondition.
    pb = identity_problem()
    report = verify_strict_feasibility(pb)
    flags = report.flags
    assert flags.strict_primal_nonempty is None and flags.strict_dual_nonempty is None
    assert flags.systems_solved == (False, False)
    assert "precondition not met: strict sets not searched, -b in T* fails" in report.notes
    assert duality._strict_member(pb.transpose()) is None


def test_strict_feasibility_detects_conclusion_failure():
    # Zero operator with nonzero c: every strict precondition holds, and
    # x = y = 0 are optimal with both values 0, yet A^T y = c is insoluble.
    # Solvability is not a consequence of the preconditions, so the
    # pipeline reports it and raises nothing.
    pb = ConicProblem(
        A=OperatorSpec(matrix=np.zeros((2, 2))),
        b=np.zeros(2),
        c=np.array([1.0, 1.0]),
        S=orthant(2),
        T=orthant(2),
    )
    report = verify_strict_feasibility(pb)
    assert report.flags.strict_primal_nonempty and report.flags.strict_dual_nonempty
    assert report.flags.systems_solved == (True, False)
    assert report.v_primal == report.v_dual == 0.0
    assert report.notes == []


# Pairs on R^2_+ / R_+ on which every strict precondition holds exactly,
# with the solvability of (A x = b, A^T y = c) the proof predicts: the
# primal system iff b = 0, the dual system iff c = 0.
STRICT_PAIRS = {
    "2x2": (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, -2.0]), np.array([1.0, 1.0]), (False, False)),
    "1-d": (np.zeros((1, 1)), np.array([-1.0]), np.array([1.0]), (False, False)),
    "zero A": (np.zeros((2, 2)), np.zeros(2), np.array([1.0, 1.0]), (True, False)),
}


@pytest.mark.parametrize("k", range(-6, 7))
@pytest.mark.parametrize("name", sorted(STRICT_PAIRS))
def test_strict_pipeline_reports_unsolvable_systems_at_every_scale(name, k, tmp_path, capsys):
    mat, b, c, expected = STRICT_PAIRS[name]
    scale = 10.0**k
    pb = ConicProblem(
        A=OperatorSpec(matrix=scale * mat), b=scale * b, c=scale * c, S=orthant(len(c)), T=orthant(len(b))
    )
    report = verify_strict_feasibility(pb)
    assert report.flags.strict_primal_nonempty and report.flags.strict_dual_nonempty
    assert report.flags.systems_solved == expected
    assert report.v_primal == report.v_dual == 0.0
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(problem_to_dict(pb)))
    assert cli.main(["--output", "json", "verify-strict", "--input", str(path)]) == cli.EXIT_OK
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags["strict_primal_nonempty"] and flags["strict_dual_nonempty"]
    assert tuple(flags["systems_solved"]) == expected


def weighted_clp_problem():
    spec = ContinuousLPSpec(
        m=1, n=2, horizon=1.0, n_grid=8, B=[[1.0, 0.5]], K=[[0.3, -0.2]], b=[0.4, 0.7], c=[1.0]
    )
    return discretize_clp(spec)


def game_slice_problem():
    spec = ComplexLPSpec(
        A=[[1 + 0.5j, 0.2 - 0.3j]],
        b=[1 + 0.2j],
        c=[0.5 + 0.1j, 1 - 0.2j],
        alpha=[0.7, 0.5],
        beta=[0.6],
        game_slice=True,
    )
    return build_complex_lp(spec)


@pytest.mark.parametrize("make", [weighted_clp_problem, game_slice_problem])
def test_double_transpose_reproduces_pair(make):
    pb = make()
    pt = pb.transpose()
    assert same_bits(pt.b, -pb.c) and same_bits(pt.c, -pb.b)
    assert pt.S is pb.T and pt.T is pb.S
    assert pt.A.pairing_domain is pb.A.pairing_codomain and pt.A.pairing_codomain is pb.A.pairing_domain
    back = pt.transpose()
    assert same_bits(back.A.matrix, pb.A.matrix)
    assert same_bits(back.operator().matrix, pb.operator().matrix)
    assert same_bits(adjoint_matrix(back.operator()), adjoint_matrix(pb.operator()))
    assert same_bits(back.b, pb.b) and same_bits(back.c, pb.c)
    assert back.S is pb.S and back.T is pb.T
    assert back.A.pairing_domain is pb.A.pairing_domain
    assert back.A.pairing_codomain is pb.A.pairing_codomain


def swaps_and_negates(report, swapped):
    """Whether ``swapped`` is ``report`` with the sides exchanged, bit for
    bit: values negated and swapped, and statuses, optimizers and flags
    swapped."""
    flags, swapped_flags = report.flags, swapped.flags
    return (
        swapped.v_primal == -report.v_dual
        and swapped.v_dual == -report.v_primal
        and (swapped.status_primal, swapped.status_dual) == (report.status_dual, report.status_primal)
        and same_bits(swapped.x_star, report.y_star)
        and same_bits(swapped.y_star, report.x_star)
        and (swapped_flags.primal_interior_opt, swapped_flags.dual_interior_opt)
        == (flags.dual_interior_opt, flags.primal_interior_opt)
        and (swapped_flags.strict_primal_nonempty, swapped_flags.strict_dual_nonempty)
        == (flags.strict_dual_nonempty, flags.strict_primal_nonempty)
        and tuple(swapped_flags.systems_solved) == tuple(reversed(flags.systems_solved))
    )


def degenerate_orthant_pairs(count, seed=5):
    """Orthant pairs with integer data in ``[-2, 2]`` and about half of the
    entries of ``b`` and ``c`` set to 0, so that many LP rows have a zero
    right-hand side."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(k) for k in rng.integers(2, 6, size=2))
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m) * (rng.random(m) < 0.5)
        c = rng.integers(-2, 3, size=n) * (rng.random(n) < 0.5)
        yield ConicProblem(A=OperatorSpec(matrix=a), b=b, c=c, S=orthant(n), T=orthant(m))


@pytest.mark.parametrize("make", [identity_problem, weighted_clp_problem, game_slice_problem])
def test_solve_transpose_swaps_and_negates_report(make):
    pb = make()
    report = solve(pb)
    assert report.status_primal == report.status_dual == "optimal"
    assert swaps_and_negates(report, solve(pb.transpose()))


def test_solve_transpose_swaps_report_on_degenerate_pairs():
    # Both sides are solved by the same LP, so a pair and its transpose give
    # the same pivots even on rows whose right-hand side is zero, where
    # Bland's rule follows the sign of the row.
    statuses = set()
    for pb in degenerate_orthant_pairs(3000):
        report = solve(pb)
        assert swaps_and_negates(report, solve(pb.transpose()))
        statuses.add((report.status_primal, report.status_dual))
    assert {("optimal", "optimal"), ("infeasible", "unbounded"), ("unbounded", "infeasible")} <= statuses


def _pipeline_outcome(run, pb):
    try:
        return run(pb)
    except (SolverFailure, TheoremViolation) as exc:
        return type(exc)


def test_pipelines_on_transpose_swap_and_negate_report():
    # Each pipeline decides both equality systems by the same code, the dual
    # one on pb.transpose(), so a pair and its transpose give one report
    # with the sides exchanged.
    rng = np.random.default_rng(179)
    pairs = [interior_optimum_problem(rng, dim, family)[0] for dim in (2, 4, 6) for family in ("orthant", "wedge")
             for _ in range(5)]
    pairs += [pb for family in ("orthant", "wedge", "slice") for seed in range(3)
              for style, pb in gate_pairs(family, seed) if style != "shifted"]
    pairs += list(degenerate_orthant_pairs(300))
    solved, strict = set(), set()
    for pb in pairs:
        for run in (verify_interior_optima, verify_strict_feasibility):
            report = _pipeline_outcome(run, pb)
            swapped = _pipeline_outcome(run, pb.transpose())
            if isinstance(report, type):
                assert swapped is report
                continue
            assert swaps_and_negates(report, swapped)
            flags = report.flags
            if run is verify_interior_optima:
                solved.add(tuple(flags.systems_solved))
            else:
                strict.add((flags.strict_primal_nonempty, flags.strict_dual_nonempty))
    # Both sides of each flag occur, one-sided ones included.
    assert {(True, True), (True, False), (False, True)} <= solved
    assert {(True, True), (True, False), (False, True)} <= strict


def test_problem_file_with_operator_label_loads():
    # Operators no longer carry a label; files written with one still load.
    doc = problem_to_dict(identity_problem())
    doc["A"]["label"] = "k"
    pb = problem_from_dict(doc)
    assert same_bits(pb.A.matrix, I2)
    assert problem_to_dict(pb) == problem_to_dict(identity_problem())


def test_problem_file_pairings_live_on_the_operator():
    pb = weighted_clp_problem()
    doc = problem_to_dict(pb)
    weights = pb.A.pairing_codomain.weights.tolist()
    assert doc["pairing_Y"] == {"kind": "weighted_quadrature", "weights": weights}
    assert "complex" not in doc["A"]
    back = problem_from_dict(doc)
    assert same_bits(adjoint_matrix(back.A), adjoint_matrix(pb.A))
    assert problem_to_dict(back) == doc
    # Older files tag the dot product of complex data as its real part.
    doc = problem_to_dict(identity_problem())
    assert doc["pairing_X"] == {"kind": "euclidean_dot"}
    doc["pairing_X"] = {"kind": "complex_real_part"}
    assert problem_from_dict(doc).A.pairing_domain.weights is None
    for bad, message in (
        ({"kind": "sesquilinear"}, "unknown pairing kind"),
        ({"kind": "weighted_quadrature"}, "requires weights"),
        ({"kind": "euclidean_dot", "weights": [1.0, 1.0]}, "does not take weights"),
        ({"kind": "weighted_quadrature", "weights": [1.0, 1.0, 1.0]}, "dimension 3, expected 2"),
    ):
        doc["pairing_X"] = bad
        with pytest.raises(ValueError, match=message):
            problem_from_dict(doc)


def test_problem_json_round_trip():
    pb = identity_problem()
    back = problem_from_dict(problem_to_dict(pb))
    report = solve(back)
    assert report.v_primal == pytest.approx(2.0, abs=1e-9)
    doc = report_to_dict(report)
    assert doc["status_primal"] == "optimal"
    assert doc["flags"]["systems_solved"] == [False, False]
