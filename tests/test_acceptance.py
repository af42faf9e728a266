"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    clp_minimal_feasible,
    dual,
    feasible_farkas_instance,
    grid_residual_min,
    infeasible_farkas_instance,
    polar_brute_force,
    sample_members,
    variational_check,
)

from conedual.cones import (
    contains,
    generated,
    generators,
    orthant,
    wedge,
)
from conedual.complex_lp import ComplexLPSpec, build_complex_lp, classify_boundary_optima
from conedual.continuous_lp import ContinuousLPSpec, discretize_clp, kernel_sign_condition
from conedual.duality import ConicProblem, complementarity, solve, verify_interior_optima, verify_strict_feasibility
from conedual.errors import TheoremViolation
from conedual.farkas import farkas_dual, farkas_primal, verify_outcome
from conedual.instances import classify_instance, interior_optimum_problem, random_farkas_instance
from conedual.linops import OperatorSpec, adjoint_matrix, pairing
from conedual.residual import residual_minimize


def report_line(number, name, detail):
    print(f"acceptance {number:02d} {name}: PASS ({detail})")


def test_criterion_01_alternative_exclusivity():
    started = time.time()
    count = 2000
    both = indeterminate = neither = 0
    for index in range(count):
        rng = np.random.default_rng((20250801, index))
        a, b, cone = random_farkas_instance(rng, dim_range=(2, 6))
        solution_ok, certificate_ok, is_indeterminate = classify_instance(a, b, cone, tol=1e-8)
        if solution_ok and certificate_ok:
            both += 1
        if is_indeterminate:
            indeterminate += 1
        if not (solution_ok or certificate_ok or is_indeterminate):
            neither += 1
    elapsed = time.time() - started
    assert both == 0
    assert indeterminate < 0.01 * count
    assert neither + indeterminate < 0.01 * count
    assert elapsed < 60.0
    report_line(1, "alternative-exclusivity", f"{count} instances, {both} double-verified, "
                f"{indeterminate} indeterminate, {elapsed:.1f} s")


def test_criterion_02_constructed_branches():
    tol = 1e-8
    for index in range(500):
        rng = np.random.default_rng((20250802, index))
        a, b, cone, _ = feasible_farkas_instance(rng)
        out = farkas_primal(a, b, cone, tol=tol)
        assert out.branch == "solution"
        assert verify_outcome(out, a, b, cone, tol=tol)
    for index in range(500):
        rng = np.random.default_rng((20250803, index))
        a, b, cone, _ = infeasible_farkas_instance(rng)
        out = farkas_primal(a, b, cone, tol=tol)
        assert out.branch == "certificate"
        assert verify_outcome(out, a, b, cone, tol=tol)
    report_line(2, "constructed-branches", "500 feasible all solution, 500 shifted all certificate")


def _criterion_3_instances():
    instances = []
    index = 0
    while len(instances) < 100:
        rng = np.random.default_rng((20250804, index))
        index += 1
        a = OperatorSpec(matrix=rng.uniform(-1.0, 1.0, size=(2, 2)))
        cone = wedge(rng.uniform(0.3, 1.2)) if rng.random() < 0.5 else orthant(2)
        b = rng.uniform(-1.0, 1.0, size=2)
        res = residual_minimize(a, b, cone)
        if np.max(res.coefficients, initial=0.0) > 2.5:
            continue  # keep the optimum inside the oracle box
        instances.append((a, b, cone, res))
    return instances


def test_criterion_03_residual_grid_oracle():
    for a, b, cone, res in _criterion_3_instances():
        oracle = grid_residual_min(a.matrix @ generators(cone), b, upper=3.0, step=1e-3)
        assert abs(res.value - oracle) <= 1e-5
    report_line(3, "residual-grid-oracle", "100 planar instances within 1e-5 of the 1e-3 grid scan")


def test_criterion_04_variational_equivalence():
    rng = np.random.default_rng(20250805)
    perturbations = failures = 0
    for a, b, cone, res in _criterion_3_instances():
        members = sample_members(cone, 1000, rng)
        images = members @ a.matrix.T
        assert variational_check(res.gamma, b, images, tol=1e-8)
        image_gens = a.matrix @ generators(cone)
        samples = [res.gamma] + list(images[:200])
        for j in range(image_gens.shape[1]):
            direction = image_gens[:, j]
            norm = float(np.linalg.norm(direction))
            if norm < 1e-9:
                continue
            for size in (1e-3, 1e-2):
                perturbations += 1
                moved = res.gamma + size * direction / norm
                if not variational_check(moved, b, samples, tol=1e-8):
                    failures += 1
    assert perturbations > 0
    assert failures >= 0.99 * perturbations
    report_line(4, "variational-equivalence",
                f"100 solves certified; {failures}/{perturbations} perturbations rejected")


def _solvable_pair_instances(count=100):
    # Instances from the random family of criteria 1-3, shifted so both
    # sides are feasible by construction (x0 and y0 witness it).
    pairs = []
    for index in range(count):
        rng = np.random.default_rng((20250806, index))
        dim = int(rng.integers(2, 7))
        cone_s = orthant(dim) if dim % 2 else wedge(rng.uniform(0.3, 1.2, size=dim // 2))
        cone_t = orthant(dim)
        mat = rng.uniform(-1.0, 1.0, size=(dim, dim))
        g_s, g_t = generators(cone_s), generators(cone_t)
        x0 = g_s @ rng.uniform(0.1, 1.0, size=g_s.shape[1])
        y0 = g_t @ rng.uniform(0.1, 1.0, size=g_t.shape[1])
        t_shift = generators(dual(cone_t)) @ rng.uniform(0.0, 1.0, size=dim)
        s_shift = generators(dual(cone_s)) @ rng.uniform(0.0, 1.0, size=g_s.shape[1])
        pb = ConicProblem(
            A=OperatorSpec(matrix=mat),
            b=mat @ x0 - t_shift,
            c=mat.T @ y0 + s_shift,
            S=cone_s,
            T=cone_t,
        )
        pairs.append((pb, x0, y0))
    return pairs


def test_criterion_05_weak_duality_and_gap_decomposition():
    checked = 0
    for pb, x0, y0 in _solvable_pair_instances(100):
        report = solve(pb)
        feasible_pairs = [(x0, y0)]
        if report.x_star is not None and report.y_star is not None:
            feasible_pairs.append((report.x_star, report.y_star))
        if math.isfinite(report.v_primal) and math.isfinite(report.v_dual):
            assert report.gap >= -1e-8
        for x, y in feasible_pairs:
            checked += 1
            value_gap = pairing(pb.A.pairing_domain, pb.c, x) - pairing(pb.A.pairing_codomain, y, pb.b)
            first, second = complementarity(pb, x, y)
            assert value_gap >= -1e-8
            assert abs(value_gap - (first + second)) <= 1e-10 * (1.0 + abs(value_gap))
            assert first >= -1e-9 and second >= -1e-9
    report_line(5, "weak-duality-and-decomposition", f"{checked} feasible pairs, zero violations")


def test_criterion_06_interior_optima_pipeline():
    violations = 0
    for index in range(200):
        rng = np.random.default_rng((20250807, index))
        dim = int(rng.integers(2, 5))
        pb, _, _ = interior_optimum_problem(rng, dim)
        try:
            report = verify_interior_optima(pb, tol=1e-8)
        except TheoremViolation:
            violations += 1
            continue
        assert report.flags.primal_interior_opt and report.flags.dual_interior_opt
        assert report.flags.systems_solved == (True, True)
        assert abs(report.v_primal - report.v_dual) <= 1e-8
    assert violations == 0
    report_line(6, "interior-optima-pipeline", "200 instances, all systems solved, zero violations")


def test_criterion_07_dual_wedge_formula():
    rng = np.random.default_rng(20250808)
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
        dual_rep = generated(generators(dual(wedge(alpha))))
        closed_form = wedge(math.pi / 2 - alpha)
        mismatches = 0
        for _ in range(10_000):
            v = rng.uniform(-2.0, 2.0, size=2)
            if contains(dual_rep, v, 1e-9) != contains(closed_form, v, 1e-9):
                mismatches += 1
        assert mismatches == 0
    report_line(7, "dual-wedge-formula", "3 angles x 10^4 samples, zero membership mismatches")


def test_criterion_08_complex_realification_faithful():
    spec = ComplexLPSpec(A=[[1.0]], b=[1.0], c=[1.0], alpha=[math.pi / 4], beta=[math.pi / 4])
    oracle = polar_brute_force(spec, r_max=3.0, r_step=1e-3, theta_step=1e-3)
    report = solve(build_complex_lp(spec))
    assert abs(report.v_primal - oracle) <= 1e-4
    assert abs(report.v_dual - oracle) <= 1e-4
    report_line(8, "complex-realification", f"solver {report.v_primal:.6f} vs polar scan {oracle:.6f}")


def test_criterion_09_boundary_angles():
    spec = ComplexLPSpec(
        A=[[1.0]],
        b=[1j],
        c=[np.exp(1j * math.pi / 5)],
        alpha=[math.pi / 4],
        beta=[math.pi / 6],
    )
    pb = build_complex_lp(spec)
    op = pb.operator()
    out_p = farkas_primal(op, pb.b, pb.S, tol=1e-8)
    assert out_p.branch == "certificate" and verify_outcome(out_p, op, pb.b, pb.S, tol=1e-7)
    out_d = farkas_dual(op, pb.c, pb.T, tol=1e-8)
    assert out_d.branch == "certificate" and verify_outcome(out_d, op, pb.c, pb.T, tol=1e-7)

    report = classify_boundary_optima(spec, tol=1e-6)
    assert report.characterization_applies
    assert math.isfinite(report.v_primal) and math.isfinite(report.v_dual)
    rows = [r for r in report.primal_angles + report.dual_angles if r[3] is not None]
    assert rows, "expected non-real optimizer coordinates"
    for _, angle, bound, at_boundary in rows:
        assert at_boundary
        assert abs(abs(angle) - bound) <= 1e-6
    report_line(9, "boundary-angles", "both systems certified infeasible, optimizers on wedge boundaries")


def _smooth_clp(n_grid):
    return ContinuousLPSpec(
        m=1,
        n=1,
        horizon=1.0,
        n_grid=n_grid,
        B=1.0,
        K=lambda s, t: [[0.8 + 0.4 * s - 0.2 * t]] if s <= t else [[0.0]],
        b=lambda t: [1.0 + 0.5 * math.sin(t)],
        c=lambda t: [1.0 + 0.3 * t],
    )


def test_criterion_10_continuous_lp_discretization():
    started = time.time()
    rng = np.random.default_rng(20250810)
    # Exact discrete adjoint identity at n = 16 and n = 64.
    for n_grid in (16, 64):
        pb = discretize_clp(_smooth_clp(n_grid))
        at = adjoint_matrix(pb.operator())
        worst = 0.0
        for _ in range(1000):
            x = rng.standard_normal(pb.S.dim)
            y = rng.standard_normal(pb.T.dim)
            lhs = pairing(pb.A.pairing_codomain, pb.A.matrix @ x, y)
            rhs = pairing(pb.A.pairing_domain, x, at @ y)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    # First-order convergence of the optimal value, zero gap at each grid,
    # and agreement with the backward-substitution oracle.
    values = {}
    for n_grid in (64, 128, 256):
        spec = _smooth_clp(n_grid)
        report = solve(discretize_clp(spec))
        assert report.status_primal == "optimal" and report.status_dual == "optimal"
        assert abs(report.gap) <= 1e-6
        oracle, _ = clp_minimal_feasible(spec)
        assert report.v_primal == pytest.approx(oracle, rel=1e-9)
        values[n_grid] = report.v_primal
    ratio = (values[128] - values[256]) / (values[64] - values[128])
    assert 0.3 <= ratio <= 0.7

    # The strict-feasibility pipeline on the discretization of the
    # strictly feasible sign-condition family: solvable equality systems
    # and zero discrete gap.
    degenerate = ContinuousLPSpec(m=1, n=1, horizon=1.0, n_grid=64, B=0.0, K=0.0, b=0.0, c=0.0)
    assert kernel_sign_condition(degenerate) == "condition_i"
    pipeline = verify_strict_feasibility(discretize_clp(degenerate))
    assert pipeline.flags.strict_primal_nonempty and pipeline.flags.strict_dual_nonempty
    assert pipeline.flags.systems_solved == (True, True)
    assert abs(pipeline.gap) <= 1e-6

    elapsed = time.time() - started
    assert elapsed < 120.0
    report_line(10, "continuous-lp-discretization",
                f"adjoint exact, ratio {ratio:.3f}, gaps <= 1e-6, {elapsed:.1f} s")
