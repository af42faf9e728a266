"""Cone membership, interiors, duals, and generator representations."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from oracles import dual, sample_members, slice_distance_by_supports, slice_interior_by_base

from conedual import cones
from conedual.complex_lp import ComplexLPSpec, build_complex_lp
from conedual.cones import (
    cone_from_dict,
    cone_to_dict,
    contains,
    distance,
    dual_distance,
    generated,
    generators,
    interior_contains,
    is_solid,
    orthant,
    product,
    slice_cone,
    wedge,
)
from conedual.duality import ConicProblem, solve
from conedual.linops import OperatorSpec


def wedge_angle_contains(half_angle, v, tol):
    """Independent membership oracle: direct angle and radius check."""
    x, y = v
    r = math.hypot(x, y)
    if r <= tol:
        return True
    theta = abs(math.atan2(y, x))
    if theta <= half_angle:
        return True
    return r * math.sin(min(theta - half_angle, math.pi / 2)) <= tol


def test_zero_vector_in_every_cone():
    for cone in (orthant(3), wedge(math.pi / 4), generated(np.array([[1.0, 0.0], [1.0, 1.0]]))):
        assert contains(cone, np.zeros(cone.dim), 0.0)


def test_orthant_negative_coordinate_outside():
    assert not contains(orthant(2), np.array([-1.0, 0.0]), 1e-9)


def test_wedge_boundary_ray_member():
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert wedge_angle_contains(math.pi / 4, v, 1e-9)
    assert contains(wedge(math.pi / 4), v, 1e-9)


def test_wedge_and_product_distances_do_not_overflow_on_finite_data():
    # The squares of these block distances overflow; their hypot does not.
    assert distance(wedge([0.5]), [-1e308, -1e308]) == math.hypot(1e308, 1e308)
    cone = product(wedge([0.5]), orthant(1))
    assert distance(cone, [-1e160, -1e160, 1.0]) == math.hypot(1e160, 1e160)
    # The dual wedge has half-angle pi/2 - 0.5, exceeded by pi/4 + 0.5.
    expected = math.hypot(1e160, 1e160) * math.sin(math.pi / 4 + 0.5)
    assert dual_distance(cone, [-1e160, -1e160, 1.0]) == pytest.approx(expected)


def test_wedge_membership_matches_angle_oracle():
    rng = np.random.default_rng(7)
    w = wedge(math.pi / 3)
    for _ in range(500):
        v = rng.uniform(-2, 2, size=2)
        assert contains(w, v, 1e-9) == wedge_angle_contains(math.pi / 3, v, 1e-9)


def test_interior_examples():
    assert interior_contains(orthant(2), np.array([1.0, 1.0]), 1e-6)
    assert not interior_contains(orthant(2), np.array([1.0, 0.0]), 1e-6)
    v = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    assert interior_contains(wedge(math.pi / 4), v, 1e-6)


def test_zero_vector_never_interior():
    for cone in (orthant(2), wedge(math.pi / 4), product(orthant(1), wedge(0.8))):
        assert not interior_contains(cone, np.zeros(cone.dim), 1e-6)


def test_interior_of_a_ray_is_relative():
    ray = generated(np.array([[1.0], [1.0]]))
    assert interior_contains(ray, np.array([1.0, 1.0]), 1e-6)
    assert not interior_contains(ray, np.array([1.0, 0.0]), 1e-6)
    assert not interior_contains(ray, np.zeros(2), 1e-6)


def test_dual_orthant_self():
    assert dual(orthant(4)).kind == "orthant"


def test_dual_wedge_complement_angle():
    assert dual(wedge(math.pi / 4)).half_angles == pytest.approx((math.pi / 4,))
    assert dual(wedge(math.pi / 6)).half_angles == pytest.approx((math.pi / 3,))


def test_generators_orthant_identity():
    np.testing.assert_allclose(generators(orthant(2)), np.eye(2))


def test_generators_wedge_rays():
    g = generators(wedge(math.pi / 4))
    expected = np.array(
        [
            [math.cos(math.pi / 4), math.cos(math.pi / 4)],
            [math.sin(math.pi / 4), -math.sin(math.pi / 4)],
        ]
    )
    np.testing.assert_allclose(g, expected)
    # Every nonnegative combination of the rays is a member and vice versa.
    rng = np.random.default_rng(3)
    w = wedge(math.pi / 4)
    for _ in range(300):
        u = rng.exponential(size=2)
        assert wedge_angle_contains(math.pi / 4, g @ u, 1e-9)
        v = rng.uniform(-2, 2, size=2)
        assert contains(w, v, 1e-9) == wedge_angle_contains(math.pi / 4, v, 1e-9)


def test_product_generators_block_diagonal():
    p = product(orthant(1), wedge(math.pi / 3))
    g = generators(p)
    assert g.shape == (3, 3)
    assert g[0, 0] == 1.0
    assert np.all(g[0, 1:] == 0.0) and np.all(g[1:, 0] == 0.0)


def test_conic_closure_sampled():
    rng = np.random.default_rng(11)
    for cone in (orthant(3), wedge((math.pi / 6, math.pi / 3)), product(orthant(2), wedge(math.pi / 4))):
        members = sample_members(cone, 1000, rng)
        mus = rng.uniform(0, 10, size=1000)
        for i in range(0, 1000, 2):
            assert contains(cone, members[i] + members[i + 1], 1e-9)
            assert contains(cone, mus[i] * members[i], 1e-9)


def test_generator_soundness():
    rng = np.random.default_rng(13)
    for cone in (orthant(4), wedge((0.3, 1.2)), generated(rng.uniform(-1, 1, size=(3, 5)))):
        g = generators(cone)
        for _ in range(1000):
            u = rng.exponential(size=g.shape[1])
            assert contains(cone, g @ u, 1e-9)


def test_dual_pairing_nonnegative():
    rng = np.random.default_rng(17)
    for cone in (orthant(3), wedge(math.pi / 5), product(orthant(1), wedge(0.7))):
        members = sample_members(cone, 1000, rng)
        duals = sample_members(dual(cone), 1000, rng)
        dots = np.einsum("ij,ij->i", members, duals)
        assert dots.min() >= -1e-9


def test_wedge_double_dual_membership_agrees():
    rng = np.random.default_rng(19)
    alpha = math.pi / 5
    twice = dual(dual(wedge(alpha)))
    as_generated = generated(generators(wedge(alpha)))
    mismatches = 0
    for _ in range(10_000):
        v = rng.uniform(-2, 2, size=2)
        if contains(twice, v, 1e-9) != contains(as_generated, v, 1e-9):
            mismatches += 1
    assert mismatches == 0


def test_interior_implies_membership():
    rng = np.random.default_rng(23)
    for cone in (orthant(3), wedge((0.4, 1.0))):
        for v in sample_members(cone, 200, rng):
            if interior_contains(cone, v, 1e-6):
                assert contains(cone, v, 1e-9)


def test_slice_cone_membership():
    # Sum of the second coordinates pinned to zero on an orthant.
    cone = slice_cone(orthant(4), np.array([0.0, 1.0, 0.0, 1.0]))
    assert contains(cone, np.array([1.0, 0.5, 1.0, -0.5]), 1e-9) is False  # -0.5 exits the orthant
    assert contains(cone, np.array([1.0, 0.0, 2.0, 0.0]), 1e-9)
    assert not contains(cone, np.array([1.0, 1.0, 1.0, 1.0]), 1e-9)  # slice residual 2


def test_slice_dual_contains_normal_span():
    cone = slice_cone(orthant(2), np.array([0.0, 1.0]))
    d = dual(cone)
    # Both signs of the normal pair nonnegatively with every slice member.
    assert contains(d, np.array([0.0, 5.0]), 1e-9)
    assert contains(d, np.array([0.0, -5.0]), 1e-9)
    rng = np.random.default_rng(29)
    members = sample_members(cone, 200, rng)
    duals = sample_members(d, 200, rng)
    dots = np.einsum("ij,ij->i", members, duals)
    assert dots.min() >= -1e-9


# ---------------------------------------------------------------------------
# Slice rays
# ---------------------------------------------------------------------------


def random_slices(rng):
    """Slices of orthants (one or two normals) and wedges (one normal) with
    random normals, and the two cones of ``game_slice`` complex programs."""
    for _ in range(12):
        dim = int(rng.integers(2, 6))
        yield slice_cone(orthant(dim), rng.uniform(-1.0, 1.0, size=(dim, int(rng.integers(1, 3)))))
    for _ in range(8):
        cone = wedge(rng.uniform(0.15, math.pi / 2 - 0.15, size=int(rng.integers(1, 3))))
        yield slice_cone(cone, rng.uniform(-1.0, 1.0, size=cone.dim))
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        spec = ComplexLPSpec(
            A=rng.uniform(-1.0, 1.0, size=(n, m)) + 1j * rng.uniform(-1.0, 1.0, size=(n, m)),
            b=rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n),
            c=rng.uniform(-1.0, 1.0, size=m) + 1j * rng.uniform(-1.0, 1.0, size=m),
            alpha=rng.uniform(0.15, math.pi / 2 - 0.15, size=m),
            beta=rng.uniform(0.15, math.pi / 2 - 0.15, size=n),
            game_slice=True,
        )
        pb = build_complex_lp(spec)
        yield pb.S
        yield pb.T


# ---------------------------------------------------------------------------
# Dual distance
# ---------------------------------------------------------------------------


def test_dual_distance_on_generators_matches_the_closed_form():
    # By Moreau's decomposition dist(z, K*) = ||P_K(-z)||: an NNLS on K's own
    # generators gives the closed-form distance to the dual.
    rng = np.random.default_rng(43)
    for cone in (orthant(3), wedge((0.3, 1.2)), product(orthant(1), wedge(0.8))):
        as_generated = generated(generators(cone))
        for scale in 10.0 ** np.arange(-3, 4):
            points = [rng.standard_normal(cone.dim) for _ in range(12)]
            points += list(sample_members(dual(cone), 4, rng)) + list(-sample_members(cone, 4, rng))
            for z in points:
                z = scale * z / np.linalg.norm(z)
                expected = distance(dual(cone), z)
                assert dual_distance(cone, z) == expected
                assert abs(dual_distance(as_generated, z) - expected) <= 1e-12 * scale


def test_dual_distance_on_slices_matches_the_enumerated_dual():
    rng = np.random.default_rng(47)
    for cone in list(random_slices(rng)) + [slice_cone(orthant(2), np.array([1.0, 1.0]))]:
        enumerated = dual(cone)
        for _ in range(8):
            z = rng.standard_normal(cone.dim)
            expected = distance(enumerated, z)
            assert abs(dual_distance(cone, z) - expected) <= 1e-9 * (1.0 + expected)


def test_dual_has_no_closed_form_for_generated_cones_and_slices():
    for cone in (
        generated(np.eye(2)),
        slice_cone(orthant(2), np.array([1.0, -1.0])),
        product(orthant(1), generated(np.ones((1, 1)))),
    ):
        with pytest.raises(ValueError, match="dual_distance"):
            cones.dual(cone)


def test_slices_and_rank_deficient_generators_are_not_solid():
    assert is_solid(product(orthant(1), wedge(0.8), generated(np.eye(2))))
    assert not is_solid(slice_cone(orthant(3), np.array([1.0, -1.0, 0.0])))
    assert not is_solid(product(orthant(1), generated(np.ones((2, 1)))))


def test_slice_distance_matches_support_enumeration():
    rng = np.random.default_rng(37)
    nonzero = 0
    for cone in random_slices(rng):
        g = generators(cone)
        nonzero += g.shape[1] > 0
        points = [rng.standard_normal(cone.dim) for _ in range(6)]
        points += [g @ rng.exponential(size=g.shape[1]) + 0.1 * rng.standard_normal(cone.dim) for _ in range(4)]
        for v in points:
            expected = slice_distance_by_supports(generators(cone.base), cone.normals, v)
            assert abs(distance(cone, v) - expected) <= 1e-9 * (1.0 + expected)
    assert nonzero >= 15


def test_slice_distance_is_exact_on_the_zero_slice():
    # orthant(2) ∩ (1, 1)^⊥ = {0}: the distance of (1, -1) is its norm,
    # where combining the base distance 1 and the subspace residual 0 in
    # quadrature read 1.
    cone = slice_cone(orthant(2), np.array([1.0, 1.0]))
    v = np.array([1.0, -1.0])
    assert distance(cone, v) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert slice_distance_by_supports(generators(orthant(2)), cone.normals, v) == pytest.approx(math.sqrt(2.0))


def test_slice_rays_lie_in_the_slice_and_its_base():
    rng = np.random.default_rng(41)
    for cone in random_slices(rng):
        g = generators(cone)
        assert np.all(np.linalg.norm(g, axis=0) > 0)
        for ray in g.T:
            assert contains(cone.base, ray, 1e-9)
            assert np.linalg.norm(cone.normals.T @ ray) <= 1e-12 * np.linalg.norm(ray)
        members = sample_members(cone, 50, rng)
        assert np.abs(members @ cone.normals).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(members).max(initial=0.0))


def test_pair_on_the_zero_slice_solves_at_the_origin():
    cone = slice_cone(orthant(2), np.array([1.0, 1.0]))
    assert generators(cone).shape == (2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interior_contains(cone, np.zeros(2), 1e-9)
        assert sample_members(cone, 3, np.random.default_rng(0)).shape == (3, 2)
        report = solve(ConicProblem(A=OperatorSpec(matrix=np.eye(2)), b=np.zeros(2), c=np.zeros(2), S=cone, T=orthant(2)))
    assert report.status_primal == "optimal"
    assert np.array_equal(report.x_star, np.zeros(2))


def test_slice_drops_the_zero_rays_of_antiparallel_generators():
    # (1, 0) and (-1, 0) pair into 1 * (-1, 0) + 1 * (1, 0) = 0.
    cone = slice_cone(generated(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])), np.array([1.0, 0.0]))
    assert np.array_equal(generators(cone), np.array([[0.0], [1.0]]))


def test_slice_rays_split_by_sign_beyond_roundoff():
    # <n, e_1> = 1e-10 is far above roundoff, so e_1 pairs with e_2 into
    # the ray (1, 1e-10).
    cone = slice_cone(orthant(2), np.array([1e-10, -1.0]))
    assert np.array_equal(generators(cone), np.array([[1.0], [1e-10]]))


def test_slice_keeps_a_generator_that_lies_in_it_up_to_roundoff():
    # <n, (1, 1, 1)> rounds to 5.55e-17, not 0, and no generator has a
    # negative product; the slice is still the ray along (1, 1, 1), not
    # the origin, whose distance from (1, 1, 1) would read sqrt(3).
    gens = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    normal = np.array([0.1, 0.2, -0.3])
    assert normal @ gens[:, 0] != 0.0
    cone = cone_from_dict({"kind": "slice", "base": {"kind": "generated", "generators": gens.T.tolist()}, "slice_normals": [normal.tolist()]})
    assert np.array_equal(generators(cone), np.ones((3, 1)))
    assert distance(cone, np.ones(3)) <= 1e-15
    v = np.array([1.0, -1.0, 0.5])
    assert distance(cone, v) == pytest.approx(slice_distance_by_supports(gens, normal, v), rel=1e-12)


def test_slice_with_too_many_generators_is_rejected():
    # orthant(60) cut by one normal with 30 positive and 30 negative entries
    # has 900 generators; a second such normal would pair about 450 x 450.
    rng = np.random.default_rng(5)
    normals = rng.uniform(0.5, 1.0, size=(60, 2)) * np.where(np.arange(60) % 2 == 0, 1.0, -1.0)[:, np.newaxis]
    assert generators(slice_cone(orthant(60), normals[:, 0])).shape == (60, 900)
    with pytest.raises(ValueError, match="slice has more than 4096 generators"):
        cone_from_dict({"kind": "slice", "base": {"kind": "orthant", "dim": 60}, "slice_normals": normals.T.tolist()})


def test_slice_of_a_slice_is_the_one_step_slice():
    base = wedge((0.4, 0.9, 1.2))
    n1 = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    n2 = np.array([1.0, 0.0, -0.5, 0.0, -0.5, 0.3])
    twice = slice_cone(slice_cone(base, n1), n2)
    once = slice_cone(base, np.column_stack([n1, n2]))
    assert twice.base is base
    assert np.array_equal(twice.normals, once.normals)
    assert generators(twice).tobytes() == generators(once).tobytes()
    assert generators(once).shape[1] > 0


def test_product_with_a_slice_factor():
    factor = slice_cone(orthant(3), np.array([1.0, -1.0, 0.0]))
    cone = product(factor, wedge(0.7))
    assert generators(cone).shape == (5, 4)
    assert interior_contains(cone, barycenter(cone), 1e-9)
    rng = np.random.default_rng(43)
    members = sample_members(cone, 200, rng)
    duals = sample_members(dual(cone), 200, rng)
    assert all(contains(cone, v, 1e-9) for v in members)
    assert np.einsum("ij,ij->i", members, duals).min() >= -1e-9
    v = np.array([1.0, -1.0, 2.0, -1.0, 3.0])
    expected = math.hypot(
        slice_distance_by_supports(generators(orthant(3)), factor.normals, v[:3]), distance(wedge(0.7), v[3:])
    )
    assert distance(cone, v) == pytest.approx(expected, rel=1e-12)
    # c = (1, ..., 1) lies in S*, and x = 0 is feasible, so both values are 0.
    mat = rng.uniform(-1.0, 1.0, size=(5, 5))
    report = solve(ConicProblem(A=OperatorSpec(matrix=mat), b=np.zeros(5), c=np.ones(5), S=cone, T=orthant(5)))
    assert (report.status_primal, report.status_dual) == ("optimal", "optimal")
    assert abs(report.v_primal) <= 1e-9 and abs(report.v_dual) <= 1e-9
    assert contains(cone, report.x_star, 1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        contains(orthant(2), np.array([1.0, 2.0, 3.0]), 1e-9)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        contains(orthant(2), np.array([np.nan, 0.0]), 1e-9)


def test_wedge_angle_validation():
    with pytest.raises(ValueError, match="open interval"):
        wedge(math.pi / 2)
    with pytest.raises(ValueError, match="open interval"):
        wedge(0.0)


def barycenter(cone):
    """The mean of the generators, which lies in the relative interior of
    the cone (Rockafellar, Convex Analysis, Thm 6.9); the origin for a
    cone without generators."""
    g = generators(cone)
    return g.sum(axis=1) / max(g.shape[1], 1)


def test_interior_point_is_interior():
    # At unit length, for every family, generated cones without interior
    # and slices included.
    rng = np.random.default_rng(53)
    corpus = [
        orthant(3),
        wedge((0.5, 1.1)),
        product(orthant(2), wedge(0.8)),
        generated(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])),
        generated(np.hstack([np.eye(3), -np.eye(3)])),
        generated(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])),
        generated(rng.uniform(-1.0, 1.0, size=(4, 2)) @ rng.uniform(0.0, 1.0, size=(2, 5))),
        product(slice_cone(orthant(3), np.array([1.0, -1.0, 0.0])), wedge(0.7)),
        slice_cone(generated(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])), np.array([0.1, 0.2, -0.3])),
        slice_cone(orthant(2), np.array([1.0, 1.0])),
    ]
    corpus += list(random_slices(rng))
    for cone in corpus:
        point = barycenter(cone)
        norm = np.linalg.norm(point)
        assert interior_contains(cone, point / norm if norm > 0 else point, 1e-9), cone.kind


def test_generated_interior_is_never_optimistic():
    square = generated(np.eye(2))
    assert not interior_contains(square, np.array([1e4, 0.0]), 1e-9)
    assert not interior_contains(square, np.array([1e7, 0.0]), 1e-6)
    assert interior_contains(square, np.array([1e4, 1e4]), 1e-9)


def test_slice_interior_matches_the_base_test_away_from_the_margin_band():
    # Where a slice's relative interior meets its base's interior, the probe
    # in the span of the rays agrees with the base margin plus the subspace
    # residual, except for points whose base margin lies within the band.
    rng = np.random.default_rng(59)
    tol, band = 1e-9, 1e-6
    counts = Counter()
    for cone in random_slices(rng):
        g = generators(cone)
        if g.shape[1] == 0 or not slice_interior_by_base(cone, barycenter(cone), band):
            continue
        # Orthogonal projection onto ker N^T.
        n = np.linalg.qr(cone.normals)[0]
        for _ in range(30):
            w = g @ rng.exponential(size=g.shape[1]) + 10.0 ** rng.uniform(-8, 1) * rng.standard_normal(cone.dim)
            v = w - n @ (n.T @ w)
            if slice_interior_by_base(cone, v, band):
                counts["inside"] += 1
                assert interior_contains(cone, v, tol)
            elif distance(cone.base, v) > band:
                counts["outside"] += 1
                assert not interior_contains(cone, v, tol)
            off = v + 1e-3 * n[:, 0]
            assert not slice_interior_by_base(cone, off, tol) and not interior_contains(cone, off, tol)
    assert counts["inside"] >= 50 and counts["outside"] >= 50, counts


def test_cone_json_round_trip():
    cones = [
        orthant(3),
        wedge((0.3, 1.2)),
        generated(np.array([[1.0, 0.0], [1.0, 2.0]])),
        product(orthant(1), wedge(0.9)),
        slice_cone(wedge((0.4, 0.4)), np.array([0.0, 1.0, 0.0, 1.0])),
    ]
    rng = np.random.default_rng(31)
    for cone in cones:
        back = cone_from_dict(cone_to_dict(cone))
        assert back.kind == cone.kind and back.dim == cone.dim
        for _ in range(50):
            v = rng.uniform(-1, 1, size=cone.dim)
            assert contains(cone, v, 1e-9) == contains(back, v, 1e-9)


def test_orthant_distance_near_overflow():
    # The sum of squares of [-1e200, -1e200] overflows; the scaled path
    # gives the distance with no warning, through every orthant test.
    v = [-1e200, -1e200]
    assert distance(orthant(2), v) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert dual_distance(orthant(2), v) == distance(orthant(2), v)
    assert not contains(orthant(2), v) and contains(orthant(2), [1e200, 1e300])
    assert distance(product(orthant(1), orthant(2)), [-1e308, -1e308, 0.0]) == pytest.approx(math.sqrt(2.0) * 1e308)
    # Where the unscaled sum does not overflow, the scaled path (entries past
    # 1e150) changes no bit.
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        v = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(148.0, 154.1, size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = float(np.linalg.norm(np.minimum(v, 0.0)))
        if math.isfinite(plain):
            assert np.float64(distance(orthant(n), v)).tobytes() == np.float64(plain).tobytes()
