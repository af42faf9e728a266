"""Farkas alternatives: branch construction, verification, exclusivity."""

from collections import Counter

import numpy as np
import pytest

from oracles import adjoint_operator, dual, feasible_farkas_instance, infeasible_farkas_instance

import conedual.farkas as farkas_module
import conedual.residual as residual_module
from conedual.cones import contains, distance, generators, orthant, product, wedge
from conedual.errors import IndeterminateAlternative, SolverFailure
from conedual.farkas import FarkasOutcome, farkas_dual, farkas_primal, outcome_to_dict, verify_outcome
from conedual.instances import classify_instance, random_cone, random_farkas_instance
from conedual.linops import OperatorSpec, pairing, transposed, weighted_quadrature
from conedual.nnls import nnls
from conedual.residual import residual_minimize

I2 = OperatorSpec(matrix=np.eye(2))


def brute_force_dual_certificate_exists(a_mat, c, t_cone, grid=np.linspace(-2, 2, 81)):
    """Grid search for the separating system of the adjoint equality
    problem: some x with A x in T* and <x, c> < 0."""
    t_dual = dual(t_cone)
    for x1 in grid:
        for x2 in grid:
            x = np.array([x1, x2])
            if x @ c < -1e-6 and contains(t_dual, a_mat @ x, 1e-9):
                return True
    return False


def test_primal_solution_branch():
    out = farkas_primal(I2, np.array([1.0, 1.0]), orthant(2))
    assert out.branch == "solution"
    np.testing.assert_allclose(out.point, [1.0, 1.0], atol=1e-10)
    assert verify_outcome(out, I2, np.array([1.0, 1.0]), orthant(2))


def test_primal_certificate_branch():
    b = np.array([-1.0, 0.0])
    out = farkas_primal(I2, b, orthant(2))
    assert out.branch == "certificate"
    np.testing.assert_allclose(out.certificate, [-1.0, 0.0], atol=1e-10)
    assert pairing(None, out.certificate, -b) < 0
    assert np.all(-I2.matrix.T @ out.certificate >= -1e-12)
    assert verify_outcome(out, I2, b, orthant(2))


def test_primal_underdetermined_solution_contract():
    # One equation, two unknowns: check the contract, not the coordinates.
    a = OperatorSpec(matrix=np.array([[1.0, 1.0]]))
    b = np.array([5.0])
    out = farkas_primal(a, b, orthant(2))
    assert out.branch == "solution"
    assert abs(float((a.matrix @ out.point)[0]) - 5.0) <= 1e-8
    assert np.all(out.point >= -1e-12)


def test_dual_solution_branch():
    out = farkas_dual(I2, np.array([2.0, 3.0]), orthant(2))
    assert out.branch == "solution"
    np.testing.assert_allclose(out.point, [2.0, 3.0], atol=1e-10)
    assert verify_outcome(out, I2, np.array([2.0, 3.0]), orthant(2))


def test_dual_certificate_sign_convention_frozen_by_oracle():
    # c = (0, -1) outside the image of the orthant under the identity
    # adjoint.  The oracle confirms a separating x exists; the returned
    # certificate must satisfy the system directly, while the sign-flipped
    # candidate must fail it.
    c = np.array([0.0, -1.0])
    t_cone = orthant(2)
    assert brute_force_dual_certificate_exists(I2.matrix, c, t_cone)
    out = farkas_dual(I2, c, t_cone)
    assert out.branch == "certificate"
    x = out.certificate
    assert pairing(None, x, c) < 0
    assert contains(dual(t_cone), I2.matrix @ x, 1e-9)
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-10)
    flipped = -x
    assert not (
        pairing(None, flipped, c) < 0 and contains(dual(t_cone), I2.matrix @ flipped, 1e-9)
    )


def test_dual_certificate_convention_on_random_2d_instances():
    rng = np.random.default_rng(113)
    checked = 0
    while checked < 40:
        a_mat = rng.uniform(-1, 1, size=(2, 2))
        c = rng.uniform(-1, 1, size=2)
        t_cone = wedge(rng.uniform(0.3, 1.2)) if rng.random() < 0.5 else orthant(2)
        a = OperatorSpec(matrix=a_mat)
        try:
            out = farkas_dual(a, c, t_cone)
        except IndeterminateAlternative:
            continue
        if out.branch != "certificate":
            continue
        checked += 1
        assert brute_force_dual_certificate_exists(a_mat, c, t_cone)
        assert pairing(None, out.certificate, c) < -1e-9
        assert contains(dual(t_cone), a_mat @ out.certificate, 1e-8)


def test_dual_zero_operator_certificate():
    a = OperatorSpec(matrix=np.zeros((2, 2)))
    c = np.array([1.0, 0.0])
    out = farkas_dual(a, c, orthant(2))
    assert out.branch == "certificate"
    assert pairing(None, out.certificate, c) < 0
    np.testing.assert_allclose(a.matrix @ out.certificate, 0.0, atol=1e-15)
    assert verify_outcome(out, a, c, orthant(2))


def test_verify_rejects_zero_margin_certificate():
    out = farkas_primal(I2, np.array([-1.0, 0.0]), orthant(2))
    out.certificate = np.array([0.0, 1.0])  # orthogonal to b: margin 0
    assert not verify_outcome(out, I2, np.array([-1.0, 0.0]), orthant(2))


def test_verify_rejects_fake_certificate():
    # alpha = (1, 0) for b = (1, 1): the margin is fine but -A^T alpha
    # leaves the dual cone.
    b = np.array([1.0, 1.0])
    fake = farkas_primal(I2, np.array([-1.0, 0.0]), orthant(2))
    fake.certificate = np.array([1.0, 0.0])
    assert pairing(None, fake.certificate, -b) < 0
    assert not verify_outcome(fake, I2, b, orthant(2))


def test_verify_valid_solution_outcome():
    out = farkas_primal(I2, np.array([0.5, 2.0]), orthant(2))
    assert verify_outcome(out, I2, np.array([0.5, 2.0]), orthant(2))


def test_certificate_scaling_invariance():
    b = np.array([-2.0, 1.0])
    out = farkas_primal(I2, b, orthant(2))
    assert out.branch == "certificate"
    for mu in (0.5, 2.0, 10.0):
        scaled = farkas_primal(I2, b, orthant(2))
        scaled.certificate = mu * out.certificate
        assert verify_outcome(scaled, I2, b, orthant(2))


def test_mutual_exclusivity_sampled():
    rng = np.random.default_rng(127)
    both = 0
    for _ in range(300):
        a, b, cone = random_farkas_instance(rng)
        solution_ok, certificate_ok, _ = classify_instance(a, b, cone)
        if solution_ok and certificate_ok:
            both += 1
    assert both == 0


def test_constructed_feasible_instances_take_solution_branch():
    rng = np.random.default_rng(131)
    for _ in range(50):
        a, b, cone, _ = feasible_farkas_instance(rng)
        out = farkas_primal(a, b, cone)
        assert out.branch == "solution"
        assert verify_outcome(out, a, b, cone)


def test_constructed_infeasible_instances_take_certificate_branch():
    rng = np.random.default_rng(137)
    for _ in range(50):
        a, b, cone, _ = infeasible_farkas_instance(rng)
        out = farkas_primal(a, b, cone)
        assert out.branch == "certificate"
        assert verify_outcome(out, a, b, cone)


def test_outcome_serialization():
    out = farkas_primal(I2, np.array([-1.0, 0.0]), orthant(2))
    doc = outcome_to_dict(out)
    assert doc["branch"] == "certificate"
    assert doc["point"] is None
    assert set(doc["residuals"]) == {"eq_residual", "cone_residual", "strict_margin"}


def test_dual_decision_is_primal_decision_on_adjoint():
    rng = np.random.default_rng(113)
    cases = [
        (I2, np.array([2.0, 3.0]), orthant(2)),
        (I2, np.array([0.0, -1.0]), orthant(2)),
        (OperatorSpec(matrix=np.zeros((2, 2))), np.array([1.0, 0.0]), orthant(2)),
    ]
    for _ in range(20):
        t_cone = wedge(rng.uniform(0.3, 1.2)) if rng.random() < 0.5 else orthant(2)
        cases.append((OperatorSpec(matrix=rng.uniform(-1, 1, size=(2, 2))), rng.uniform(-1, 1, size=2), t_cone))
    branches = set()
    for a, c, t_cone in cases:
        try:
            out = farkas_dual(a, c, t_cone)
        except IndeterminateAlternative:
            continue
        ref = farkas_primal(adjoint_operator(a), c, t_cone)
        branches.add(out.branch)
        assert (out.side, ref.side) == ("dual", "primal")
        assert out.branch == ref.branch
        assert out.residuals == ref.residuals and out.residual_value == ref.residual_value
        if out.branch == "solution":
            assert out.certificate is None and np.array_equal(out.point, ref.point)
        else:
            assert out.point is None and np.array_equal(out.certificate, -ref.certificate)
        assert verify_outcome(out, a, c, t_cone) == verify_outcome(ref, adjoint_operator(a), c, t_cone)
    assert branches == {"solution", "certificate"}


def two_solve_classify(a, b, cone, tol=1e-8):
    """The classification with separate solves per branch: the separating
    vector and the indeterminate fallback each solve the residual again."""
    solution_ok = certificate_ok = indeterminate = False
    res = residual_minimize(a, b, cone)
    if res.value <= tol * tol:
        x = generators(cone) @ res.coefficients
        solution_ok = float(np.linalg.norm(a.matrix @ x - b)) <= tol and contains(cone, x, tol)
    sep = residual_minimize(a, b, cone)
    if sep.value > tol * tol:
        alpha = sep.gamma - b
        neg = -(alpha / np.linalg.norm(alpha))
        certificate_ok = contains(dual(cone), -a.matrix.T @ neg, tol) and pairing(None, neg, -b) < -tol
    if not solution_ok and not certificate_ok:
        try:
            farkas_primal(a, b, cone, tol=tol)
        except IndeterminateAlternative:
            indeterminate = True
    return solution_ok, certificate_ok, indeterminate


def test_classify_instance_solves_once_and_matches_two_solve_reference(monkeypatch):
    instances = []
    for seed, make in ((127, random_farkas_instance), (131, feasible_farkas_instance),
                       (137, infeasible_farkas_instance)):
        rng = np.random.default_rng(seed)
        instances += [make(rng)[:3] for _ in range(60)]
    expected = [two_solve_classify(a, b, cone) for a, b, cone in instances]

    calls = []

    def counting_nnls(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(residual_module, "nnls", counting_nnls)
    outcomes = set()
    for (a, b, cone), ref in zip(instances, expected):
        calls.clear()
        got = classify_instance(a, b, cone)
        assert len(calls) == 1
        assert got == ref
        outcomes.add(got)
    assert {(True, False, False), (False, True, False)} <= outcomes


def test_certificates_refused_where_the_euclidean_dual_is_not_the_pairing_dual():
    # Under X-weights (100, 1) the dual of wedge(0.3) in the pairing is
    # diag(w)^-1 S*, not S*: the separating (-0.296, 0.955) read a cone
    # residual of 0.279 and failed its own verification.
    a = OperatorSpec(matrix=np.eye(2), pairing_domain=weighted_quadrature([100.0, 1.0]))
    b = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="non-uniform pairing weights"):
        farkas_primal(a, b, wedge(0.3))
    with pytest.raises(ValueError, match="non-uniform pairing weights"):
        farkas_dual(transposed(a), -b, wedge(0.3))
    forged = FarkasOutcome(branch="certificate", side="primal", certificate=np.array([-0.296, 0.955]))
    with pytest.raises(ValueError, match="non-uniform pairing weights"):
        verify_outcome(forged, a, b, wedge(0.3))
    # Solutions need no dual cone, and orthants and products of them take
    # any weights.
    assert verify_outcome(farkas_primal(a, np.array([1.0, 0.0]), wedge(0.3)), a, np.array([1.0, 0.0]), wedge(0.3))
    for cone in (orthant(2), product(orthant(1), orthant(1))):
        out = farkas_primal(a, -b, cone)
        assert out.branch == "certificate" and verify_outcome(out, a, -b, cone)


def band_corpus(seed, count):
    """``random_farkas_instance`` data, each with copies whose ``b`` is
    scaled so that the residual value lands near 2, 5 and 9 ``tol^2``,
    where the value alone decides no branch."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        a, b, cone = random_farkas_instance(rng)
        corpus.append((a, b, cone))
        value = residual_minimize(a, b, cone).value
        if value > 0:
            corpus += [(a, b * np.sqrt(k * 1e-16 / value), cone) for k in (2.0, 5.0, 9.0)]
    return corpus


def test_classify_instance_agrees_with_farkas_primal_and_verify_outcome():
    # classify_instance reads farkas_primal's decision: the branch it
    # returns, which verify_outcome accepts, or "neither" where it raises.
    seen = Counter()
    for a, b, cone in band_corpus(2029, 150):
        try:
            got = classify_instance(a, b, cone)
        except SolverFailure:
            with pytest.raises(SolverFailure):
                farkas_primal(a, b, cone)
            seen["stall"] += 1
            continue
        try:
            out = farkas_primal(a, b, cone)
        except IndeterminateAlternative:
            assert got == (False, False, True)
            seen["neither"] += 1
            continue
        assert verify_outcome(out, a, b, cone)
        assert got == (out.branch == "solution", out.branch == "certificate", False)
        seen[out.branch] += 1
    assert seen["solution"] and seen["certificate"] and seen["neither"]


def test_every_returned_outcome_verifies():
    # A branch is reported only when it verifies, whatever the residual
    # value: on the band corpus and on right-hand sides of order 1e8, where
    # the value once picked candidates that failed their own check.
    rng = np.random.default_rng(7)
    cases = band_corpus(2029, 150)
    for _ in range(300):
        a, b, cone = random_farkas_instance(rng)
        cases.append((a, 1e8 * b, cone))
    seen = Counter()
    for a, b, cone in cases:
        # farkas_dual on (-a^T, -b) decides the system farkas_primal does on (a, b).
        for decide, op, rhs in ((farkas_primal, a, b), (farkas_dual, OperatorSpec(matrix=-a.matrix.T), -b)):
            try:
                out = decide(op, rhs, cone)
            except (IndeterminateAlternative, SolverFailure) as exc:
                seen[type(exc).__name__] += 1
                continue
            assert verify_outcome(out, op, rhs, cone)
            seen[out.side, out.branch] += 1
    assert seen["IndeterminateAlternative"]
    assert all(seen[side, branch] for side in ("primal", "dual") for branch in ("solution", "certificate"))


def test_stored_residuals_are_the_verified_ones(monkeypatch):
    # Every outcome carries, bit for bit, the residuals verify_outcome
    # compares with its tolerance: one routine computes both.
    computed = []
    real = farkas_module._residuals

    def recording(*args):
        computed.append(np.array(real(*args)))
        return tuple(computed[-1])

    monkeypatch.setattr(farkas_module, "_residuals", recording)
    weighted = OperatorSpec(
        matrix=np.array([[1.0, -2.0, 0.5], [0.3, 1.0, -1.0]]),
        pairing_domain=weighted_quadrature([1.0, 4.0, 0.5]),
        pairing_codomain=weighted_quadrature([2.0, 0.25]),
    )
    cases = [(weighted, b, np.array([1.0, -1.0, 0.5]), orthant(3), orthant(2)) for b in ([1.0, 1.0], [-1.0, 0.5])]
    rng = np.random.default_rng(139)
    for _ in range(150):
        a, b, cone = random_farkas_instance(rng)
        cases.append((a, b, rng.uniform(-1.0, 1.0, size=a.domain_dim), cone, random_cone(rng, a.codomain_dim)))
    seen = set()
    for a, b, c, s_cone, t_cone in cases:
        for decide, rhs, cone in ((farkas_primal, b, s_cone), (farkas_dual, c, t_cone)):
            computed.clear()
            try:
                out = decide(a, rhs, cone)
            except (IndeterminateAlternative, SolverFailure):
                continue
            stored = np.array(list(out.residuals.values()))
            assert verify_outcome(out, a, rhs, cone)
            assert len(computed) == 2 and computed[0].tobytes() == computed[1].tobytes() == stored.tobytes()
            if out.branch == "solution":
                assert out.cone_residual == distance(cone, out.point)
            seen.add((out.side, out.branch))
    assert seen == {(side, branch) for side in ("primal", "dual") for branch in ("solution", "certificate")}
