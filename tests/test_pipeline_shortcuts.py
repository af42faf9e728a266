"""The two shortcuts of the theorem pipelines: the optimizer tried as the
equality-system witness, and the ``-b in T*``, ``c in S*`` gate of the
strict pipeline."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import benchmark_items, dual, nnls_first_system_solvability, ungated_strict_feasibility

from conedual import complex_lp, duality, farkas
from conedual.cones import contains, generators, interior_contains, orthant, slice_cone, wedge
from conedual.duality import (
    ConicProblem,
    feasible_dual,
    feasible_primal,
    problem_from_dict,
    verify_interior_optima,
    verify_strict_feasibility,
)
from conedual.errors import SolverFailure, TheoremViolation
from conedual.instances import interior_optimum_problem
from conedual.linops import OperatorSpec

ROOT = Path(__file__).resolve().parent.parent


def _inner(rng, cone):
    g = generators(cone)
    return g @ rng.uniform(0.5, 1.5, size=g.shape[1])


def _cone(rng, family, dim):
    """A cone of ``family`` and a point in its relative interior."""
    if family == "slice":
        # A slice of the orthant through an interior point.
        x0 = rng.uniform(0.5, 1.5, size=dim)
        normal = rng.uniform(-1.0, 1.0, size=dim)
        return slice_cone(orthant(dim), normal - (normal @ x0) / (x0 @ x0) * x0), x0
    cone = orthant(dim) if family == "orthant" else wedge(rng.uniform(0.15, math.pi / 2 - 0.15, size=dim // 2))
    return cone, _inner(rng, cone)


def gate_pairs(family, seed):
    """Pairs at data scales ``10^k``, ``k in [-3, 3]``, in three styles:
    ``zero`` (``A`` annihilates interior points on both sides, ``b = c = 0``),
    ``shifted`` (the same ``A`` with ``b = -t p``, ``p in T*``, and
    ``c = s q``, ``q in S*``), and ``random`` (uniform data)."""
    rng = np.random.default_rng(seed)
    for k in range(-3, 4):
        for style in ("zero", "shifted", "random"):
            dim = 2 * int(rng.integers(1, 4)) if family == "wedge" else int(rng.integers(2, 7))
            (cone_s, x0), (cone_t, y0) = _cone(rng, family, dim), _cone(rng, family, dim)
            mat = rng.uniform(-1.0, 1.0, size=(dim, dim))
            b, c = rng.uniform(-1.0, 1.0, size=dim), rng.uniform(-1.0, 1.0, size=dim)
            if style != "random":
                p_x = np.eye(dim) - np.outer(x0, x0) / (x0 @ x0)
                p_y = np.eye(dim) - np.outer(y0, y0) / (y0 @ y0)
                mat = p_y @ mat @ p_x
                b, c = np.zeros(dim), np.zeros(dim)
            if style == "shifted":
                b = -rng.uniform(0.5, 1.5) * _inner(rng, dual(cone_t))
                c = rng.uniform(0.5, 1.5) * _inner(rng, dual(cone_s))
            scale = 10.0**k
            yield style, ConicProblem(A=OperatorSpec(matrix=scale * mat), b=scale * b, c=scale * c, S=cone_s, T=cone_t)


def _outcome(run, pb):
    """``(kind, notes or exception, flags)`` of one pipeline run."""
    try:
        report = run(pb)
    except TheoremViolation as exc:
        return ("raised", f"TheoremViolation: {exc}", exc.report.flags)
    except SolverFailure as exc:
        return ("raised", f"SolverFailure: {exc}", None)
    return ("report", report.notes, report.flags)


@pytest.mark.parametrize("family", ["orthant", "wedge", "slice"])
def test_gate_passes_wherever_both_strict_sets_exist(family):
    both = gated_out = 0
    for style, pb in gate_pairs(family, seed={"orthant": 11, "wedge": 12, "slice": 13}[family]):
        ref = _outcome(ungated_strict_feasibility, pb)
        flags = ref[2]
        gate = contains(dual(pb.T), -pb.b, 1e-7) and contains(dual(pb.S), pb.c, 1e-7)
        gated_out += not gate
        if flags is None or not (flags.strict_primal_nonempty and flags.strict_dual_nonempty):
            continue
        both += 1
        assert gate, style
        assert _outcome(verify_strict_feasibility, pb) == ref, style
    # Both sides of the gate occur on every family.
    assert both >= 7 and gated_out > 0


@pytest.mark.parametrize("family", ["orthant", "wedge", "slice"])
def test_zero_is_a_feasible_non_strict_point_wherever_both_strict_sets_exist(family):
    # The boundary feasible points of the strict statement: once both
    # strict sets exist, x = 0 and y = 0 are feasible and not strict.
    both = 0
    for style, pb in gate_pairs(family, seed={"orthant": 11, "wedge": 12, "slice": 13}[family]):
        if duality._strict_member(pb) is None or duality._strict_member(pb.transpose()) is None:
            continue
        both += 1
        assert feasible_primal(pb, np.zeros(pb.S.dim), 1e-7), style
        assert feasible_dual(pb, np.zeros(pb.T.dim), 1e-7), style
        assert not interior_contains(pb.S, np.zeros(pb.S.dim), 1e-9), style
        assert not interior_contains(pb.T, np.zeros(pb.T.dim), 1e-9), style
    assert both >= 7


@pytest.mark.parametrize("seed", range(60))
def test_slice_gate_pairs_conclude_without_solver_failure(seed):
    # The strict-member LPs pose their image rows unscaled.  A slice cut
    # through one point of R^2 has that point as its only ray, so A G is
    # roundoff there, and dividing the rows by its largest entry made zero
    # pairs vacuous and a random pair stall (seed 7); zeroing the entries
    # below 64 eps |A| |G| first still failed seeds 18 and 38.  The
    # equality-system Farkas solve of 60 shifted pairs stalled at scales
    # 1e1-1e3 while an NNLS index that entered on roundoff was reported
    # instead of rejected.
    for style, pb in gate_pairs("slice", seed):
        flags = verify_strict_feasibility(pb).flags
        if style != "random":
            assert flags.strict_primal_nonempty and flags.strict_dual_nonempty
            assert flags.systems_solved == ((True, True) if style == "zero" else (False, False))


def check_stall_case(source, fixture="slice_stalls.json"):
    with open(ROOT / "tests" / "fixtures" / fixture) as fh:
        (case,) = [case for case in json.load(fh) if case["source"].startswith(source)]
    report = verify_strict_feasibility(problem_from_dict(case["problem"]))
    expected = case["expected"]
    assert report.flags.strict_primal_nonempty == expected["strict_primal_nonempty"]
    assert report.flags.strict_dual_nonempty == expected["strict_dual_nonempty"]
    assert list(report.flags.systems_solved) == expected["systems_solved"]


def test_slice_dual_membership_that_stalled():
    # gate_pairs("slice", 7) item 20: the final membership test of the
    # transposed strict-member search, an NNLS on the slice's dual,
    # stalled while the slice rows were imposed separately.
    check_stall_case('gate_pairs("slice", 7) item 20')


def test_slice_shifted_pair_that_stalls_on_rays():
    # gate_pairs("slice", 0) item 19 reported both strict sets while the
    # slice rows were imposed separately.  On the slice's rays, the primal
    # equality-system Farkas solve stalled: its NNLS compares the dual
    # vector, of order 1e3 here, with the absolute kkt_tol 1e-12, and an
    # index entering on roundoff left again.  A slice is not
    # full-dimensional, so the closed form that decides the orthant and
    # wedge pairs below does not apply; the NNLS rejects that index now.
    check_stall_case('gate_pairs("slice", 0) item 19')


@pytest.mark.parametrize(
    "source",
    [
        'gate_pairs("orthant", 0) item 16',
        'gate_pairs("orthant", 1) item 19',
        'gate_pairs("orthant", 2) item 16',
        'gate_pairs("wedge", 0) item 16',
        'gate_pairs("wedge", 1) item 19',
        'gate_pairs("wedge", 3) item 19',
    ],
)
def test_solid_shifted_pair_decided_without_farkas_solve(source, monkeypatch):
    # Shifted pairs at scales 1e2 and 1e3 on which the equality-system
    # Farkas solve stalled, as on the slice pair above.  With both strict
    # sets nonempty and T full-dimensional, the system is solvable iff
    # b = 0, so the check of the witness 0 decides it.
    solves = residual_spy(monkeypatch)
    check_stall_case(source, "solid_shifted_stalls.json")
    assert solves == []


def test_gate_failing_pair_runs_no_strict_lp(monkeypatch):
    pb, _, _ = interior_optimum_problem(np.random.default_rng(7), 4, "orthant")
    verify_interior_optima(pb)
    calls = []
    real = duality.simplex_solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "simplex_solve", counting)
    report = verify_strict_feasibility(pb)
    assert calls == []
    assert any(note.startswith("precondition not met: strict sets not searched") for note in report.notes)
    assert report.flags.strict_primal_nonempty is None and report.flags.strict_dual_nonempty is None


# ---------------------------------------------------------------------------
# Optimizers as equality-system witnesses
# ---------------------------------------------------------------------------


def residual_spy(monkeypatch):
    """Record every residual solve of ``farkas``, the fresh solve behind a
    Farkas decision and behind ``verified_solution``'s own candidate."""
    solves = []
    real = farkas.residual_minimize

    def spy(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(farkas, "residual_minimize", spy)
    return solves


@pytest.mark.parametrize("family", ["orthant", "wedge"])
def test_interior_pipeline_takes_the_optimizers(family, monkeypatch):
    solves = residual_spy(monkeypatch)
    rng = np.random.default_rng(17)
    for _ in range(5):
        pb, _, _ = interior_optimum_problem(rng, 4, family)
        report = verify_interior_optima(pb)
        assert report.flags.systems_solved == (True, True)
    assert solves == []


def test_rejected_witness_falls_back_to_farkas(monkeypatch):
    pb, _, _ = interior_optimum_problem(np.random.default_rng(19), 4, "wedge")
    expected = verify_interior_optima(pb)
    solves = residual_spy(monkeypatch)
    real = farkas.verify_outcome

    def reject_witness(outcome, A, rhs, cone, **kwargs):
        # Only the preimage G u of the latest residual solve may pass.
        if not (solves and np.array_equal(outcome.point, generators(cone) @ solves[-1].coefficients)):
            return False
        return real(outcome, A, rhs, cone, **kwargs)

    monkeypatch.setattr(farkas, "verify_outcome", reject_witness)
    report = verify_interior_optima(pb)
    assert len(solves) == 2
    assert report.flags == expected.flags and report.notes == expected.notes
    assert report.x_star.tobytes() == expected.x_star.tobytes()
    assert (report.v_primal, report.v_dual, report.gap) == (expected.v_primal, expected.v_dual, expected.gap)


def pipelines_complex_specs(seed):
    """The complex specs of the ``pipelines`` benchmark pool."""
    return [data for kind, data in benchmark_items("pipelines", seed) if kind == "complex"]


@pytest.mark.parametrize("seed", [11, 12])
def test_boundary_systems_match_nnls_first_order(seed):
    specs = pipelines_complex_specs(seed)
    assert len(specs) == 136
    for spec in specs:
        try:
            expected = nnls_first_system_solvability(spec)
        except SolverFailure:
            # The NNLS-first order stalls here; the new order may not.
            continue
        try:
            report = complex_lp.classify_boundary_optima(spec)
        except SolverFailure:
            continue
        assert (report.primal_system_solvable, report.dual_system_solvable) == expected
