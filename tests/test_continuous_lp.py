"""Continuous programs: discretization, adjoint exactness, sign conditions."""

import gc
import math
import weakref

import numpy as np
import pytest

from oracles import check_classical_conditions, clp_minimal_feasible

from conedual import continuous_lp
from conedual.continuous_lp import (
    ContinuousLPSpec,
    clp_spec_from_dict,
    clp_spec_to_dict,
    discretize_clp,
    grid_points,
    kernel_sign_condition,
)
from conedual.duality import solve, verify_strict_feasibility
from conedual.linops import OperatorSpec, adjoint_identity_check


def scalar_spec(n_grid, B=1.0, K=0.0, b=1.0, c=1.0, horizon=1.0):
    return ContinuousLPSpec(m=1, n=1, horizon=horizon, n_grid=n_grid, B=B, K=K, b=b, c=c)


def test_decoupled_instance_exact_value():
    pb = discretize_clp(scalar_spec(4))
    report = solve(pb)
    assert report.v_primal == pytest.approx(1.0, abs=1e-12)
    assert report.v_dual == pytest.approx(1.0, abs=1e-12)


def test_constant_kernel_hand_assembly():
    kappa = 0.5
    spec = scalar_spec(4, K=kappa)
    pb = discretize_clp(spec)
    h = 0.25
    expected = np.eye(4)
    for j in range(4):
        for k in range(j + 1, 4):
            expected[j, k] = -h * kappa
    np.testing.assert_allclose(pb.A.matrix, expected, atol=1e-15)


def test_kernel_sampled_only_on_support():
    # Asymmetric kernel: the assembled entry at (row j, column k) must be
    # the kernel at (t_j, t_k) with t_j < t_k.
    spec = ContinuousLPSpec(
        m=1, n=1, horizon=1.0, n_grid=4, B=1.0,
        K=lambda s, t: 2.0 * s + t if s <= t else 0.0, b=1.0, c=1.0,
    )
    pb = discretize_clp(spec)
    ts, h = grid_points(spec)
    for j in range(4):
        for k in range(j + 1, 4):
            assert pb.A.matrix[j, k] == pytest.approx(-h * (2.0 * ts[j] + ts[k]))


def test_discrete_adjoint_identity_exact():
    spec = ContinuousLPSpec(
        m=1, n=1, horizon=2.0, n_grid=16, B=lambda t: [[1.0 + 0.1 * t]],
        K=lambda s, t: [[0.4 + 0.2 * s]] if s <= t else [[0.0]], b=1.0, c=1.0,
    )
    pb = discretize_clp(spec)
    report = adjoint_identity_check(pb.operator(), n_samples=200, tol=1e-12, seed=1)
    assert report.passed


def test_independent_discretization_has_first_order_mismatch():
    # Discretizing the adjoint from its own integral formula, with the
    # rectangle rule keeping the current node, leaves an O(h) defect in
    # the pairing identity; the exact-transpose construction avoids it.
    def defect(n_grid):
        h = 1.0 / n_grid
        forward = np.eye(n_grid)
        for j in range(n_grid):
            forward[j, j + 1 :] = -h
        naive_adjoint = np.eye(n_grid) * (1.0 - h)
        for k in range(n_grid):
            naive_adjoint[k, :k] = -h
        # Worst pairing-identity residual over canonical probes equals the
        # largest entry of the transpose mismatch.
        return float(np.max(np.abs(forward.T - naive_adjoint)))

    d16, d32 = defect(16), defect(32)
    assert d16 == pytest.approx(1.0 / 16)
    assert d32 == pytest.approx(d16 / 2)
    exact = OperatorSpec(matrix=np.eye(16))
    assert adjoint_identity_check(exact, n_samples=20, tol=1e-14, seed=7).passed


def test_sign_condition_classification():
    assert kernel_sign_condition(scalar_spec(4, B=-1.0, K=1.0, b=1.0)) == "condition_i"
    assert kernel_sign_condition(scalar_spec(4, B=1.0, K=-1.0, c=-1.0)) == "condition_ii"
    assert kernel_sign_condition(scalar_spec(4, B=1.0, K=1.0)) == "neither"


def test_sign_condition_pipeline_on_strictly_feasible_family():
    # The only sign-condition instances admitting strictly positive
    # feasible pairs have vanishing operator data; with c = 0 as well, the
    # strict pipeline on the discretization finds both equality systems
    # solvable and a zero discrete gap.
    spec = scalar_spec(8, B=0.0, K=0.0, b=0.0, c=0.0)
    assert kernel_sign_condition(spec) == "condition_i"
    report = verify_strict_feasibility(discretize_clp(spec))
    assert report.flags.strict_primal_nonempty and report.flags.strict_dual_nonempty
    assert report.flags.systems_solved == (True, True)
    assert abs(report.gap) <= 1e-6


def test_sign_condition_with_unsolvable_dual_system_is_reported():
    # B = K = b = 0 with c = 1 meets condition_i and has strictly positive
    # feasible pairs (x = y = 1), but A = 0 makes the dual system A^T y = c
    # unsolvable.  The strict pipeline reports that and raises nothing; the
    # gap, its one claim, is zero.
    spec = scalar_spec(4, B=0.0, K=0.0, b=0.0, c=1.0)
    assert kernel_sign_condition(spec) == "condition_i"
    report = verify_strict_feasibility(discretize_clp(spec))
    assert report.flags.strict_primal_nonempty and report.flags.strict_dual_nonempty
    assert report.flags.systems_solved == (True, False)
    assert report.gap == 0.0


def test_chain_samples_each_spec_once(monkeypatch):
    calls = []
    sample_grid = continuous_lp._sample_grid

    def counting_sample_grid(spec):
        calls.append(spec)
        return sample_grid(spec)

    monkeypatch.setattr(continuous_lp, "_sample_grid", counting_sample_grid)
    spec = scalar_spec(8, B=0.0, K=0.0, b=0.0, c=0.0)
    discretize_clp(spec)
    assert kernel_sign_condition(spec) == "condition_i"
    report = verify_strict_feasibility(discretize_clp(spec))
    assert report.flags.systems_solved == (True, True)
    assert calls == [spec]
    # An equal spec is another object and is sampled afresh.
    other = scalar_spec(8, B=0.0, K=0.0, b=0.0, c=0.0)
    assert kernel_sign_condition(other) == "condition_i"
    check_classical_conditions(other)
    assert len(calls) == 2 and calls[1] is other


def test_grid_memo_keeps_no_spec_alive():
    spec = scalar_spec(4, B=-1.0, K=1.0, b=1.0)
    kernel_sign_condition(spec)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_discretized_data_are_not_shared():
    # The samples are kept for the next call on the spec; a write into one
    # problem's b or c must not reach them.
    spec = scalar_spec(4, B=-1.0, K=1.0, b=2.0, c=3.0)
    pb = discretize_clp(spec)
    pb.b[:] = -1.0
    pb.c[:] = -1.0
    again = discretize_clp(spec)
    assert np.array_equal(again.b, np.full(4, 2.0)) and np.array_equal(again.c, np.full(4, 3.0))
    assert kernel_sign_condition(spec) == "condition_i"


def test_classical_conditions_examples():
    holds = check_classical_conditions(scalar_spec(4, B=1.0))
    assert all(holds.recession_trivial)
    fails = check_classical_conditions(scalar_spec(4, B=0.0))
    assert not any(fails.recession_trivial)
    wide = ContinuousLPSpec(m=1, n=2, horizon=1.0, n_grid=3, B=[[1.0, -1.0]], K=0.0, b=[0.0, 0.0], c=1.0)
    report = check_classical_conditions(wide)
    assert not any(report.recession_trivial)  # z = (1, 1) gives B z = 0
    assert not report.signs_nonnegative


def test_backward_substitution_matches_lp():
    spec = scalar_spec(24, K=lambda s, t: [[0.8 + 0.4 * s - 0.2 * t]] if s <= t else [[0.0]],
                       b=lambda t: [1.0 + 0.5 * math.sin(t)], c=lambda t: [1.0 + 0.3 * t])
    oracle, x_min = clp_minimal_feasible(spec)
    pb = discretize_clp(spec)
    report = solve(pb)
    assert report.v_primal == pytest.approx(oracle, rel=1e-9)
    np.testing.assert_allclose(report.x_star, x_min, atol=1e-8)
    assert abs(report.gap) <= 1e-9


def test_causality_probe_rejects_bad_callable():
    with pytest.raises(ValueError, match="causality"):
        ContinuousLPSpec(m=1, n=1, horizon=1.0, n_grid=4, B=1.0, K=lambda s, t: [[1.0]], b=1.0, c=1.0)


def test_non_finite_callback_rejected():
    spec = ContinuousLPSpec(
        m=1, n=1, horizon=1.0, n_grid=4, B=lambda t: [[math.inf]], K=0.0, b=1.0, c=1.0
    )
    with pytest.raises(ValueError, match="non-finite"):
        discretize_clp(spec)


def test_bound_enforced():
    spec = ContinuousLPSpec(
        m=1, n=1, horizon=1.0, n_grid=4, B=lambda t: [[10.0]], K=0.0, b=1.0, c=1.0, bound=5.0
    )
    with pytest.raises(ValueError, match="bound"):
        discretize_clp(spec)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_horizon_must_be_finite_and_positive(horizon):
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        scalar_spec(4, horizon=horizon)


@pytest.mark.parametrize("bound", [math.nan, 0.0, -1.0])
def test_bound_must_be_positive(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        ContinuousLPSpec(m=1, n=1, horizon=1.0, n_grid=4, B=1.0, K=0.0, b=1.0, c=1.0, bound=bound)


def test_infinite_bound_sets_no_cap():
    with pytest.raises(ValueError, match="bound"):
        discretize_clp(scalar_spec(4, B=1e9))
    spec = ContinuousLPSpec(m=1, n=1, horizon=1.0, n_grid=4, B=1e9, K=0.0, b=1.0, c=1.0, bound=math.inf)
    assert discretize_clp(spec).A.matrix[0, 0] == 1e9


def test_grid_kernel_round_trip_and_causality():
    doc = clp_spec_to_dict(scalar_spec(4, K=0.25))
    back = clp_spec_from_dict(doc)
    np.testing.assert_allclose(discretize_clp(back).A.matrix, discretize_clp(scalar_spec(4, K=0.25)).A.matrix)

    grid = np.zeros((4, 4))
    grid[0, 2] = 0.7  # upper triangle: allowed (s < t)
    doc_grid = dict(doc)
    doc_grid["K"] = {"kind": "grid", "data": grid.tolist()}
    clp_spec_from_dict(doc_grid)

    bad = np.zeros((4, 4))
    bad[2, 0] = 0.7  # lower triangle: s > t must vanish
    doc_bad = dict(doc)
    doc_bad["K"] = {"kind": "grid", "data": bad.tolist()}
    with pytest.raises(ValueError, match="causality"):
        clp_spec_from_dict(doc_bad)

    # The first offending entry in row-major order is reported.
    bad[3, 0] = bad[3, 2] = -0.1
    bad[1, 0] = 1e-13  # below the causality threshold
    doc_bad["K"] = {"kind": "grid", "data": bad.tolist()}
    with pytest.raises(ValueError, match=r"^kernel causality violated: grid entry \(2, 0\) is nonzero for s > t$"):
        clp_spec_from_dict(doc_bad)


def test_grid_kernel_with_nonzero_diagonal():
    # The causality probe draws pairs s > t inside one diagonal cell; the
    # grid's kernel vanishes there, so a nonzero diagonal is accepted.
    doc = clp_spec_to_dict(scalar_spec(5, B=-1.5, b=0.5, c=2.0))
    upper = np.triu(np.full((5, 5), 0.5), 1)
    doc["K"] = {"kind": "grid", "data": (upper - 0.25 * np.eye(5)).tolist()}
    spec = clp_spec_from_dict(doc)
    _, h = grid_points(spec)
    expected = -1.5 * np.eye(5) - h * upper
    np.testing.assert_array_equal(discretize_clp(spec).A.matrix, expected)
    # The diagonal lies on the support s <= t, so it enters the sign test.
    assert kernel_sign_condition(spec) == "neither"

    doc["K"] = {"kind": "grid", "data": upper.tolist()}
    spec = clp_spec_from_dict(doc)
    np.testing.assert_array_equal(discretize_clp(spec).A.matrix, expected)
    assert kernel_sign_condition(spec) == "condition_i"


def pointwise_assembly(spec):
    """The operator and right-hand sides assembled entry block by entry
    block from the pointwise ``sample_*`` calls."""
    ts, h = grid_points(spec)
    m, n, n_nodes = spec.m, spec.n, spec.n_grid
    a = np.zeros((n * n_nodes, m * n_nodes))
    for j in range(n_nodes):
        a[n * j : n * (j + 1), m * j : m * (j + 1)] = spec.sample_B(ts[j]).T
        for k in range(j + 1, n_nodes):
            a[n * j : n * (j + 1), m * k : m * (k + 1)] = -h * spec.sample_K(ts[j], ts[k]).T
    b = np.concatenate([spec.sample_b(t) for t in ts])
    c = np.concatenate([spec.sample_c(t) for t in ts])
    return a, b, c


def grid_kernel_spec(n_grid=5):
    rng = np.random.default_rng(5)
    # Strictly upper: the causality probe reads a diagonal cell for s > t.
    grid = np.triu(rng.uniform(-1.0, 1.0, size=(n_grid, n_grid)), 1)
    doc = clp_spec_to_dict(scalar_spec(n_grid, B=1.5, b=0.5, c=2.0))
    doc["K"] = {"kind": "grid", "data": grid.tolist()}
    return clp_spec_from_dict(doc)


ASSEMBLY_SPECS = {
    "constant": lambda: scalar_spec(6, B=1.25, K=0.3, b=0.7, c=1.1),
    "callable": lambda: scalar_spec(
        7,
        B=lambda t: [[1.0 + 0.2 * math.sin(3.0 * t)]],
        K=lambda s, t: [[0.5 * math.exp(-(t - s))]] if s <= t else [[0.0]],
        b=lambda t: [0.4 + t],
        c=lambda t: 1.0 + t * t,
    ),
    "constant_m2_n2": lambda: ContinuousLPSpec(
        m=2, n=2, horizon=1.5, n_grid=5, B=[[1.0, -0.5], [0.25, 2.0]], K=[[0.1, -0.2], [0.3, 0.4]],
        b=[0.5, -0.25], c=[1.0, 3.0],
    ),
    "callable_m2_n2": lambda: ContinuousLPSpec(
        m=2, n=2, horizon=2.0, n_grid=6,
        B=lambda t: np.array([[1.0, t], [-t, 2.0]]),
        K=lambda s, t: np.array([[s, t], [s * t, 1.0]]) if s <= t else np.zeros((2, 2)),
        b=lambda t: np.array([t, 1.0 - t]),
        c=lambda t: np.array([1.0 + t, 2.0]),
    ),
    "callable_m1_n2": lambda: ContinuousLPSpec(
        m=1, n=2, horizon=1.0, n_grid=4, B=lambda t: [[1.0, t]],
        K=lambda s, t: [[s + t, -s]] if s <= t else [[0.0, 0.0]], b=[0.5, 0.25], c=lambda t: [t],
    ),
    "grid_kernel": grid_kernel_spec,
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_SPECS))
def test_discretize_matches_pointwise_assembly(name):
    spec = ASSEMBLY_SPECS[name]()
    pb = discretize_clp(spec)
    a, b, c = pointwise_assembly(spec)
    assert np.array_equal(pb.A.matrix, a)
    assert np.array_equal(pb.b, b)
    assert np.array_equal(pb.c, c)


def causal(value):
    return lambda s, t: value if s <= t else 0.0


BAD_FIELDS = {"B": (lambda v: lambda t: [[v]], (0.5,)), "K": (causal, (0.25, 0.5)),
              "b": (lambda v: lambda t: [v], (0.5,)), "c": (lambda v: lambda t: [v], (0.5,))}


@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
@pytest.mark.parametrize("form", ["constant", "callable"])
def test_non_finite_and_bound_errors_for_every_field(name, form):
    make_callable, args = BAD_FIELDS[name]
    for value, message in ((math.nan, f"^{name} returned non-finite values$"),
                           (10.0, f"^{name} sample exceeds the declared bound 5.0$")):
        data = {"B": 1.0, "K": 0.0, "b": 1.0, "c": 1.0}
        data[name] = value if form == "constant" else make_callable(value)
        spec = ContinuousLPSpec(m=1, n=1, horizon=1.0, n_grid=4, bound=5.0, **data)
        for check in (discretize_clp, kernel_sign_condition, check_classical_conditions,
                      lambda sp: getattr(sp, f"sample_{name}")(*args)):
            with pytest.raises(ValueError, match=message):
                check(spec)


def test_discretize_validates_kernel_diagonal():
    # The diagonal samples K(t, t) do not enter the operator, but they are
    # data of the program and are validated with the rest of the kernel.
    spec = scalar_spec(4, K=lambda s, t: math.inf if s == t else (1.0 if s < t else 0.0))
    with pytest.raises(ValueError, match="K returned non-finite"):
        discretize_clp(spec)


def pointwise_sign_condition(spec, tol=1e-12):
    ts, _ = grid_points(spec)
    big_b = np.array([spec.sample_B(t) for t in ts])
    kernel = np.array([spec.sample_K(ts[j], ts[k]) for j in range(len(ts)) for k in range(j, len(ts))])
    b = np.concatenate([spec.sample_b(t) for t in ts])
    c = np.concatenate([spec.sample_c(t) for t in ts])
    if big_b.max() <= tol and kernel.min() >= -tol and b.min(initial=0.0) >= -tol:
        return "condition_i"
    if big_b.min() >= -tol and kernel.max() <= tol and c.max(initial=0.0) <= tol:
        return "condition_ii"
    return "neither"


def test_sign_condition_matches_pointwise_verdicts():
    specs = [ASSEMBLY_SPECS[name]() for name in sorted(ASSEMBLY_SPECS)] + [
        scalar_spec(4, B=-1.0, K=1.0, b=1.0),
        scalar_spec(4, B=1.0, K=-1.0, c=-1.0),
        scalar_spec(4, B=0.0, K=0.0, b=0.0, c=0.0),
        # Negative only on the diagonal s = t, which lies on the support.
        scalar_spec(5, B=-1.0, K=lambda s, t: -1.0 if s == t else (1.0 if s < t else 0.0), b=1.0),
        # Positive kernel whose sign is only broken far from the diagonal.
        scalar_spec(5, B=1.0, K=lambda s, t: 1.0 if t - s > 0.5 else (-1.0 if s <= t else 0.0), c=-1.0),
    ]
    verdicts = [kernel_sign_condition(spec) for spec in specs]
    assert verdicts == [pointwise_sign_condition(spec) for spec in specs]
    assert set(verdicts) == {"condition_i", "condition_ii", "neither"}
