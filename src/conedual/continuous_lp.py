"""Continuous linear programs on [0, T], discretized to conic pairs.

The continuous pair is

    primal:  min  int x(t) c(t) dt
             s.t. x(t) B(t) >= b(t) + (kernel term),  x(t) >= 0
    dual:    max  int y(t) b(t) dt
             s.t. B(t) y(t) <= c(t) + int_0^t K(s, t) y(s) ds,  y(t) >= 0

with an m x n matrix function ``B``, an m x n Volterra kernel ``K``
vanishing for ``s > t``, and bounded measurable data.  Functions are
sampled on the midpoint grid ``t_k = (k + 1/2) h`` with ``h = T/n_grid``;
kernel integrals use the rectangle rule over the later (primal side) or
earlier (dual side) nodes.

The primal operator is defined as the exact pairing transpose of the
discretized dual-side operator

    (A^T y)_k = B(t_k) y_k - h * sum_{l < k} K(t_l, t_k) y_l,

so the discrete adjoint identity holds to machine precision by
construction and the alternative/certificate machinery applies without an
O(h) adjoint mismatch.  (Discretizing the two integral formulas
independently breaks that identity; it is available for diagnostics via
``OperatorSpec.adjoint_override``.)  The primal rows come out as

    (A x)_j = B(t_j)^T x_j - h * sum_{k > j} K(t_j, t_k)^T x_k,

which samples the kernel only on its support ``s <= t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import orthant
from .duality import ConicProblem, feasible_dual, feasible_primal, solve
from .errors import TheoremViolation
from .farkas import verified_solution
from .linops import OperatorSpec, adjoint_operator, weighted_quadrature
from .simplex import simplex_solve

__all__ = [
    "ContinuousLPSpec",
    "grid_points",
    "discretize_clp",
    "kernel_sign_condition",
    "SignConditionReport",
    "verify_sign_condition_pipeline",
    "ClassicalConditionsReport",
    "check_classical_conditions",
    "clp_spec_to_dict",
    "clp_spec_from_dict",
]


def _matrix_fn(value, shape):
    """Normalize a constant or callable into a sampled matrix function."""
    if callable(value):
        return value
    arr = np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
    return lambda *args, _a=arr: _a


@dataclass(frozen=True)
class ContinuousLPSpec:
    """Data of a continuous linear program.

    ``B``/``K``/``b``/``c`` are callables (``B(t)``, ``K(s, t)``,
    ``b(t)``, ``c(t)``) or constants.  Constant kernels are interpreted as
    constant *on the support* ``s <= t``; genuine callables must vanish for
    ``s > t`` themselves and are probed at construction.  ``bound`` caps
    the admissible magnitude of every sample.
    """

    m: int
    n: int
    horizon: float
    n_grid: int
    B: object
    K: object
    b: object
    c: object
    bound: float = 1e6

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("state dimensions must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_grid < 2:
            raise ValueError("n_grid must be at least 2")
        b_fn = _matrix_fn(self.B, (self.m, self.n))
        if not callable(self.K):
            const = np.broadcast_to(np.asarray(self.K, dtype=float), (self.m, self.n)).copy()
            zero = np.zeros((self.m, self.n))
            k_fn = lambda s, t, _c=const, _z=zero: (_c if s <= t else _z)  # noqa: E731
        else:
            k_fn = self.K
            self._probe_causality(k_fn)
        rhs_fn = _matrix_fn(self.b, (self.n,))
        cost_fn = _matrix_fn(self.c, (self.m,))
        object.__setattr__(self, "_B_fn", b_fn)
        object.__setattr__(self, "_K_fn", k_fn)
        object.__setattr__(self, "_b_fn", rhs_fn)
        object.__setattr__(self, "_c_fn", cost_fn)

    def _probe_causality(self, k_fn, n_probe=25):
        rng = np.random.default_rng(12345)
        for _ in range(n_probe):
            t = rng.uniform(0, self.horizon)
            s = rng.uniform(t, self.horizon)
            if s <= t:
                continue
            val = np.asarray(k_fn(s, t), dtype=float)
            if np.max(np.abs(val), initial=0.0) > 1e-12:
                raise ValueError(
                    f"kernel causality violated: K({s:.4f}, {t:.4f}) is nonzero for s > t"
                )

    def sample_B(self, t):
        return self._sample(self._B_fn(t), (self.m, self.n), "B")

    def sample_K(self, s, t):
        if s > t:
            return np.zeros((self.m, self.n))
        return self._sample(self._K_fn(s, t), (self.m, self.n), "K")

    def sample_b(self, t):
        return self._sample(self._b_fn(t), (self.n,), "b")

    def sample_c(self, t):
        return self._sample(self._c_fn(t), (self.m,), "c")

    def _sample(self, value, shape, name):
        arr = np.asarray(value, dtype=float)
        if arr.shape != shape:
            arr = np.broadcast_to(arr, shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} returned non-finite values")
        if np.max(np.abs(arr), initial=0.0) > self.bound:
            raise ValueError(f"{name} sample exceeds the declared bound {self.bound}")
        return np.array(arr, dtype=float)


def grid_points(spec):
    """Midpoint nodes ``t_k = (k + 1/2) h`` with ``h = horizon / n_grid``."""
    h = spec.horizon / spec.n_grid
    return (np.arange(spec.n_grid) + 0.5) * h, h


def discretize_clp(spec):
    """Assemble the discretized conic pair of a :class:`ContinuousLPSpec`.

    Both cones are nonnegative orthants on the grid, the pairings are
    uniform-weight quadratures, and the operator's adjoint is its exact
    pairing transpose.
    """
    ts, h = grid_points(spec)
    n_nodes = spec.n_grid
    rows = spec.n * n_nodes
    cols = spec.m * n_nodes
    a = np.zeros((rows, cols))
    for j in range(n_nodes):
        rj = slice(spec.n * j, spec.n * (j + 1))
        a[rj, spec.m * j : spec.m * (j + 1)] = spec.sample_B(ts[j]).T
        for k in range(j + 1, n_nodes):
            a[rj, spec.m * k : spec.m * (k + 1)] = -h * spec.sample_K(ts[j], ts[k]).T
    b_h = np.concatenate([spec.sample_b(t) for t in ts])
    c_h = np.concatenate([spec.sample_c(t) for t in ts])
    pairing_x = weighted_quadrature(np.full(cols, h))
    pairing_y = weighted_quadrature(np.full(rows, h))
    op = OperatorSpec(matrix=a, label="volterra", pairing_domain=pairing_x, pairing_codomain=pairing_y)
    return ConicProblem(
        A=op,
        b=b_h,
        c=c_h,
        S=orthant(cols),
        T=orthant(rows),
        pairing_X=pairing_x,
        pairing_Y=pairing_y,
    )


# ---------------------------------------------------------------------------
# Sign conditions
# ---------------------------------------------------------------------------


def _kernel_samples(spec):
    ts, _ = grid_points(spec)
    for j in range(spec.n_grid):
        for k in range(j, spec.n_grid):
            yield spec.sample_K(ts[j], ts[k])


def kernel_sign_condition(spec, tol=1e-12):
    """Classify the sign pattern that makes the equality systems solvable.

    ``condition_i``:  ``B <= 0``, ``K >= 0`` on all samples and the
    discretized ``b`` lies in the dual cone (componentwise nonnegative).
    ``condition_ii``: ``B >= 0``, ``K <= 0`` and ``-c`` lies in the dual
    cone (``c`` componentwise nonpositive).  ``neither`` otherwise.
    """
    ts, _ = grid_points(spec)
    b_mats = [spec.sample_B(t) for t in ts]
    k_mats = list(_kernel_samples(spec))
    b_vals = np.concatenate([spec.sample_b(t) for t in ts])
    c_vals = np.concatenate([spec.sample_c(t) for t in ts])
    b_max = max(float(m.max(initial=-math.inf)) for m in b_mats)
    b_min = min(float(m.min(initial=math.inf)) for m in b_mats)
    k_max = max(float(m.max(initial=-math.inf)) for m in k_mats)
    k_min = min(float(m.min(initial=math.inf)) for m in k_mats)
    if b_max <= tol and k_min >= -tol and b_vals.min(initial=0.0) >= -tol:
        return "condition_i"
    if b_min >= -tol and k_max <= tol and c_vals.max(initial=0.0) <= tol:
        return "condition_ii"
    return "neither"


@dataclass
class SignConditionReport:
    condition: str
    pipeline_ran: bool
    systems_solved: tuple = (False, False)
    gap: float = math.nan
    notes: list = None

    def __post_init__(self):
        if self.notes is None:
            self.notes = []


def _grid_vector(fn_or_vec, per_node, ts):
    if callable(fn_or_vec):
        return np.concatenate([np.broadcast_to(np.asarray(fn_or_vec(t), dtype=float), (per_node,)) for t in ts])
    arr = np.asarray(fn_or_vec, dtype=float)
    if arr.shape != (per_node * len(ts),):
        raise ValueError(f"supplied grid vector has shape {arr.shape}, expected ({per_node * len(ts)},)")
    return arr


def verify_sign_condition_pipeline(spec, x_hat=None, y_hat=None, tol=1e-6):
    """Run the strict-feasibility duality check on the discretization.

    Requires one of the sign conditions to hold and strictly positive
    feasible grid functions ``x_hat``, ``y_hat`` (callables of ``t`` or
    stacked grid vectors).  Asserts that both equality systems are solvable
    and that the discrete gap is within ``tol``; raises
    :class:`TheoremViolation` otherwise.  Without supplied points the
    report only carries the classification.
    """
    condition = kernel_sign_condition(spec)
    report = SignConditionReport(condition=condition, pipeline_ran=False)
    if condition == "neither":
        report.notes.append("no sign condition holds; pipeline not applicable")
        return report
    if x_hat is None or y_hat is None:
        report.notes.append("no strictly positive feasible pair supplied; pipeline skipped")
        return report

    pb = discretize_clp(spec)
    ts, _ = grid_points(spec)
    x_vec = _grid_vector(x_hat, spec.m, ts)
    y_vec = _grid_vector(y_hat, spec.n, ts)
    if np.min(x_vec) <= 0 or np.min(y_vec) <= 0:
        report.notes.append("supplied points are not strictly positive; pipeline skipped")
        return report
    if not feasible_primal(pb, x_vec, 1e-8) or not feasible_dual(pb, y_vec, 1e-8):
        report.notes.append("supplied points are not feasible; pipeline skipped")
        return report

    report.pipeline_ran = True
    op = pb.operator()
    ok_p = verified_solution(op, pb.b, pb.S, tol=1e-8) is not None
    ok_d = verified_solution(adjoint_operator(op), pb.c, pb.T, tol=1e-8) is not None
    report.systems_solved = (ok_p, ok_d)
    if not (ok_p and ok_d):
        raise TheoremViolation(
            "sign condition with strictly positive feasible pair, but an equality system "
            f"is not solvable (primal: {ok_p}, dual: {ok_d})",
            report=report,
        )
    lp_report = solve(pb)
    report.gap = lp_report.gap
    if not (math.isfinite(lp_report.gap) and abs(lp_report.gap) <= tol):
        raise TheoremViolation(
            f"sign condition verified but discrete gap {lp_report.gap!r} exceeds {tol:.1e}",
            report=report,
        )
    return report


# ---------------------------------------------------------------------------
# Classical regularity conditions
# ---------------------------------------------------------------------------


@dataclass
class ClassicalConditionsReport:
    """Pointwise regularity of the data.

    ``recession_trivial`` holds per grid node: ``{z >= 0 : B(t) z <= 0}``
    contains only the origin (checked by a box-bounded LP).
    ``signs_nonnegative`` is the joint nonnegativity of ``B``, ``K`` and
    ``c`` on all samples.
    """

    recession_trivial: list
    signs_nonnegative: bool
    failures: list


def check_classical_conditions(spec, tol=1e-9):
    ts, _ = grid_points(spec)
    failures = []
    recession = []
    for idx, t in enumerate(ts):
        b_mat = spec.sample_B(t)
        # max sum(z) s.t. B(t) z <= 0, 0 <= z <= 1  -- optimum 0 iff trivial.
        n = spec.n
        m = spec.m
        n_var = n + m + n  # z, slack for Bz<=0, slack for z<=1
        a_eq = np.zeros((m + n, n_var))
        a_eq[:m, :n] = b_mat
        a_eq[:m, n : n + m] = np.eye(m)
        a_eq[m:, :n] = np.eye(n)
        a_eq[m:, n + m :] = np.eye(n)
        rhs = np.concatenate([np.zeros(m), np.ones(n)])
        cost = np.zeros(n_var)
        cost[:n] = -1.0
        res = simplex_solve(cost, a_eq, rhs)
        trivial = res.status == "optimal" and -res.objective <= tol
        recession.append(trivial)
        if not trivial:
            failures.append(f"node {idx}: nontrivial nonnegative solution of B(t) z <= 0")

    signs_ok = True
    for t in ts:
        if spec.sample_B(t).min(initial=0.0) < -tol or spec.sample_c(t).min(initial=0.0) < -tol:
            signs_ok = False
    for mat in _kernel_samples(spec):
        if mat.min(initial=0.0) < -tol:
            signs_ok = False
    if not signs_ok:
        failures.append("negative entries in B, K, or c")
    return ClassicalConditionsReport(
        recession_trivial=recession, signs_nonnegative=signs_ok, failures=failures
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _field_to_dict(value):
    if callable(value):
        raise ValueError("callable data cannot be serialized; sample it onto a grid first")
    return {"kind": "constant", "data": np.asarray(value, dtype=float).tolist()}


def clp_spec_to_dict(spec):
    return {
        "type": "clp",
        "m": spec.m,
        "n": spec.n,
        "T": spec.horizon,
        "n_grid": spec.n_grid,
        "B": _field_to_dict(spec.B),
        "K": _field_to_dict(spec.K),
        "b": _field_to_dict(spec.b),
        "c": _field_to_dict(spec.c),
        "bound": spec.bound,
    }


def _field_from_dict(d, name, spec_dims):
    kind = d.get("kind", "constant")
    data = d.get("data")
    if kind == "constant":
        return np.asarray(data, dtype=float)
    if kind == "grid":
        if name != "K":
            raise ValueError(f"grid data is only supported for the kernel, not {name}")
        grid = np.asarray(data, dtype=float)
        n_grid = spec_dims["n_grid"]
        if grid.shape[:2] != (n_grid, n_grid):
            raise ValueError(f"kernel grid must be {n_grid} x {n_grid} in its node indices")
        lower = [
            (j, k)
            for j in range(n_grid)
            for k in range(j)
            if np.max(np.abs(np.atleast_1d(grid[j, k]))) > 1e-12
        ]
        if lower:
            j, k = lower[0]
            raise ValueError(
                f"kernel causality violated: grid entry ({j}, {k}) is nonzero for s > t"
            )
        horizon = spec_dims["T"]
        h = horizon / n_grid

        def k_fn(s, t, _g=grid, _h=h):
            j = min(int(s / _h), n_grid - 1)
            k = min(int(t / _h), n_grid - 1)
            return np.atleast_2d(np.asarray(_g[j, k], dtype=float))

        return k_fn
    raise ValueError(f"unknown data kind {kind!r} for {name}")


def clp_spec_from_dict(d):
    dims = {"n_grid": int(d["n_grid"]), "T": float(d["T"])}
    return ContinuousLPSpec(
        m=int(d["m"]),
        n=int(d["n"]),
        horizon=float(d["T"]),
        n_grid=int(d["n_grid"]),
        B=_field_from_dict(d["B"], "B", dims),
        K=_field_from_dict(d["K"], "K", dims),
        b=_field_from_dict(d["b"], "b", dims),
        c=_field_from_dict(d["c"], "c", dims),
        bound=float(d.get("bound", 1e6)),
    )
