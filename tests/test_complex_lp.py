"""Complex argument-cone programs through the real embedding."""

import json
import math
import os

import numpy as np
import pytest

from oracles import check_arg_condition, polar_brute_force

from conedual.complex_lp import (
    BoundaryAngleReport,
    ComplexLPSpec,
    _realify,
    build_complex_lp,
    classify_boundary_optima,
    complex_spec_from_dict,
    complex_spec_to_dict,
)
from conedual import duality
from conedual.cones import contains, generated, generators, wedge
from conedual.duality import feasible_dual, feasible_primal, solve
from conedual.linops import EUCLIDEAN, pairing


def scalar_spec(a=1.0, b=1.0, c=1.0, alpha=math.pi / 4, beta=math.pi / 4):
    return ComplexLPSpec(A=[[a]], b=[b], c=[c], alpha=[alpha], beta=[beta])


def test_scalar_identity_instance():
    spec = scalar_spec()
    pb = build_complex_lp(spec)
    report = solve(pb)
    oracle = polar_brute_force(spec, r_max=2.0, r_step=1e-3, theta_step=1e-3)
    assert oracle == pytest.approx(1.0, abs=1e-4)
    assert report.v_primal == pytest.approx(oracle, abs=1e-4)
    assert report.v_dual == pytest.approx(report.v_primal, abs=1e-8)


def test_angle_range_rejected():
    with pytest.raises(ValueError, match="open interval"):
        scalar_spec(alpha=math.pi / 2)
    with pytest.raises(ValueError, match="open interval"):
        scalar_spec(beta=0.0)


@pytest.mark.parametrize("angle", [None, "0.5", True, math.nan], ids=["none", "string", "bool", "nan"])
@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_half_angles_must_be_finite_numbers(side, angle):
    # The constructor and the file reader refuse the same half-angles, given
    # alone or in a list, with the same message.
    message = f"{side} must be a finite number"
    for given in (angle, [angle]):
        with pytest.raises(ValueError, match=message):
            ComplexLPSpec(**{"A": [[1.0]], "b": [1.0], "c": [1.0], "alpha": 0.5, "beta": 0.5, side: given})
        doc = complex_spec_to_dict(scalar_spec())
        doc[side] = given
        with pytest.raises(ValueError, match=message):
            complex_spec_from_dict(doc)


@pytest.mark.parametrize("shape", [(1, 0), (0, 1)], ids=["m=0", "n=0"])
def test_zero_complex_dimension_rejected(shape):
    n, m = shape
    with pytest.raises(ValueError, match="at least 1"):
        ComplexLPSpec(A=np.zeros(shape), b=[1j] * n, c=[1j] * m, alpha=[0.5] * m, beta=[0.5] * n)


def test_complex_embedding_examples():
    np.testing.assert_allclose(_realify(np.array([1 + 2j])), [1.0, 2.0])
    # a = i as a 2x2 block sends (1, 0) to (0, 1), matching i * 1 = i.
    block = _realify(np.array([[1j]]))
    np.testing.assert_allclose(block, [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(block @ np.array([1.0, 0.0]), [0.0, 1.0])


def test_embedding_pairing_matches_complex_arithmetic():
    # z = i, c = i embedded: Re(conj(z) c) = Re(-i * i) = 1.
    z = _realify(np.array([1j]))
    c = _realify(np.array([1j]))
    assert pairing(EUCLIDEAN, z, c) == pytest.approx(1.0)
    # z = 1 + i, w = 1 - i: Re(conj(z) w) = Re(-2i) = 0.
    z = _realify(np.array([1 + 1j]))
    w = _realify(np.array([1 - 1j]))
    assert pairing(EUCLIDEAN, z, w) == pytest.approx(0.0)
    rng = np.random.default_rng(41)
    for _ in range(200):
        zc = rng.normal(size=3) + 1j * rng.normal(size=3)
        wc = rng.normal(size=3) + 1j * rng.normal(size=3)
        expected = float(np.real(np.vdot(zc, wc)))
        got = pairing(EUCLIDEAN, _realify(zc), _realify(wc))
        assert got == pytest.approx(expected, abs=1e-12)


def test_embedding_matrix_multiplication_consistent():
    rng = np.random.default_rng(43)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    block = _realify(a)
    for _ in range(100):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        np.testing.assert_allclose(block @ _realify(z), _realify(a @ z), atol=1e-12)
    # Conjugate transposition is block transposition.
    np.testing.assert_allclose(_realify(a.conj().T), block.T, atol=1e-14)


def test_game_slice_adds_imaginary_sum_normal():
    spec = ComplexLPSpec(
        A=np.eye(2, dtype=complex),
        b=[1.0, 1.0],
        c=[1.0, 1.0],
        alpha=[math.pi / 4, math.pi / 4],
        beta=[math.pi / 4, math.pi / 4],
        game_slice=True,
    )
    pb = build_complex_lp(spec)
    assert pb.S.kind == "slice"
    np.testing.assert_allclose(pb.S.normals[:, 0], [0.0, 1.0, 0.0, 1.0])
    # Conjugate coordinates cancel in the imaginary sum and stay members.
    z = np.array([1.0, 0.5, 1.0, -0.5])
    assert contains(pb.S, z, 1e-9)
    assert not contains(pb.S, np.array([1.0, 0.5, 1.0, 0.5]), 1e-9)


def test_game_slice_problem_solves():
    # Real data is compatible with the zero-imaginary-sum slice; the
    # sliced pair must still solve with zero gap at the real optimum.
    spec = ComplexLPSpec(
        A=np.eye(2, dtype=complex),
        b=[1.0, 1.0],
        c=[1.0, 1.0],
        alpha=[math.pi / 4, math.pi / 4],
        beta=[math.pi / 4, math.pi / 4],
        game_slice=True,
    )
    report = solve(build_complex_lp(spec))
    assert report.v_primal == pytest.approx(2.0, abs=1e-8)
    assert report.v_dual == pytest.approx(2.0, abs=1e-8)
    assert abs(report.gap) <= 1e-8


def test_realified_dual_cones_match_closed_form():
    # Membership through the generated representation of the dual equals
    # the complementary-angle wedge on a sample.
    rng = np.random.default_rng(173)
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
        closed_form = wedge(math.pi / 2 - alpha)
        rays = generated(generators(closed_form))
        for _ in range(500):
            v = rng.uniform(-2, 2, size=2)
            assert contains(rays, v, 1e-9) == contains(closed_form, v, 1e-9)


def test_check_arg_condition_examples():
    assert check_arg_condition(np.array([[1.0]]), -math.pi / 2, 0.0)
    assert check_arg_condition(np.array([[-1j]]), -math.pi / 2, 0.0)
    assert not check_arg_condition(np.array([[1j]]), -math.pi / 2, 0.0)
    assert check_arg_condition(np.array([[0.0, 1.0], [-1j, 0.5 - 0.5j]]), -math.pi / 2, 0.0)


def boundary_instance():
    # Equality systems insoluble on both sides: b sits outside the primal
    # wedge and c outside the dual-variable wedge, yet both optima are
    # finite.  The optimizers must then ride the wedge boundaries.
    return ComplexLPSpec(
        A=[[1.0]],
        b=[1j],
        c=[np.exp(1j * math.pi / 5)],
        alpha=[math.pi / 4],
        beta=[math.pi / 6],
    )


def test_boundary_characterization_applies():
    report = classify_boundary_optima(boundary_instance(), tol=1e-6)
    assert isinstance(report, BoundaryAngleReport)
    assert not report.primal_system_solvable
    assert not report.dual_system_solvable
    assert report.characterization_applies
    for _, angle, bound, at_boundary in report.primal_angles:
        assert at_boundary
        assert abs(abs(angle) - bound) <= 1e-6
    for _, angle, bound, at_boundary in report.dual_angles:
        assert at_boundary


def test_boundary_instance_strong_duality():
    pb = build_complex_lp(boundary_instance())
    report = solve(pb)
    assert abs(report.gap) <= 1e-9
    assert feasible_primal(pb, report.x_star, 1e-8)
    assert feasible_dual(pb, report.y_star, 1e-8)


def test_boundary_characterization_vacuous_when_solvable():
    report = classify_boundary_optima(scalar_spec(), tol=1e-6)
    assert report.primal_system_solvable and report.dual_system_solvable
    assert not report.characterization_applies
    assert "vacuous" in report.note


def test_real_coordinates_excluded_from_assertion():
    # The identity instance optimizes at the real point z = 1; the angle
    # table must mark it excluded instead of claiming a boundary angle.
    report = classify_boundary_optima(scalar_spec(), tol=1e-6)
    rows = report.primal_angles
    assert rows and rows[0][3] is None  # real coordinate: no boundary claim


def test_realification_weak_duality_random():
    rng = np.random.default_rng(179)
    for _ in range(20):
        m, n = 2, 2
        a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        spec = ComplexLPSpec(
            A=a,
            b=rng.normal(size=n) + 1j * rng.normal(size=n),
            c=rng.normal(size=m) + 1j * rng.normal(size=m),
            alpha=rng.uniform(0.3, 1.2, size=m),
            beta=rng.uniform(0.3, 1.2, size=n),
        )
        pb = build_complex_lp(spec)
        report = solve(pb)
        if report.status_primal == "optimal" and report.status_dual == "optimal":
            assert report.gap >= -1e-8
            assert feasible_primal(pb, report.x_star, 1e-7)
            assert feasible_dual(pb, report.y_star, 1e-7)


def test_spec_json_round_trip():
    spec = boundary_instance()
    back = complex_spec_from_dict(complex_spec_to_dict(spec))
    np.testing.assert_allclose(back.A, spec.A)
    np.testing.assert_allclose(back.b, spec.b)
    assert back.alpha == spec.alpha and back.beta == spec.beta


def slice_stall_specs():
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "slice_stalls.json")) as fh:
        return [case for case in json.load(fh) if "spec" in case]


@pytest.mark.parametrize("case", slice_stall_specs(), ids=lambda case: case["source"])
def test_game_slice_items_that_stalled_on_penalty_rows(case):
    # The Farkas solve of one equality system stalled on these pipelines
    # items while the slice equalities were imposed by penalty rows.  On
    # each, one side's LP is infeasible, so that side's equality system is
    # unsolvable (a solution would be a feasible point), and the other
    # system is solved by the optimizer of the unbounded side.
    spec = complex_spec_from_dict(case["spec"])
    report = classify_boundary_optima(spec)
    solved = (report.primal_system_solvable, report.dual_system_solvable)
    assert list(solved) == case["expected"]["systems_solvable"]
    lp = solve(build_complex_lp(spec))
    for side_solved, status in zip(solved, (lp.status_primal, lp.status_dual)):
        assert not (side_solved and status == "infeasible")


def complex_boundary_items():
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "complex_boundary_items.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", complex_boundary_items(), ids=lambda case: case["source"])
def test_boundary_items_with_coordinates_inside_their_wedges(case):
    # Both equality systems are unsolvable and both values finite, and a
    # non-real optimizer coordinate lies strictly inside its wedge.  The
    # theorem does not place every coordinate at its half-angle; it only
    # rules out interior optimizers (an interior dual optimum would make
    # the primal system solvable), so nothing is raised.
    report = classify_boundary_optima(complex_spec_from_dict(case["spec"]))
    assert report.characterization_applies == case["expected"]["characterization_applies"]
    solved = [report.primal_system_solvable, report.dual_system_solvable]
    assert solved == case["expected"]["systems_solvable"]
    assert any(row[3] is False for row in report.primal_angles + report.dual_angles)


def test_solve_skips_interior_tests_on_slice_cones(monkeypatch):
    # A slice has no interior, so solve asks nothing of interior_contains
    # (which would test the relative interior) for its optimizers.
    case = next(c for c in complex_boundary_items() if c["spec"]["game_slice"])
    pb = build_complex_lp(complex_spec_from_dict(case["spec"]))
    calls = []
    real = duality.interior_contains

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "interior_contains", counting)
    report = solve(pb)
    assert (report.status_primal, report.status_dual) == ("optimal", "optimal")
    assert calls == []
    assert report.flags.primal_interior_opt is False and report.flags.dual_interior_opt is False
