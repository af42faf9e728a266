"""Seeded workloads of the conedual benchmark.

A workload is a pool of items generated from ``--seed`` and the calls one
item makes into the package's public API.  Every item is judged after its
calls return, outside the timed region:

* ``None``: the item's outputs passed the workload's check;
* a failure-family name (``SolverFailure``, ``TheoremViolation``,
  ``IndeterminateAlternative``): the package raised or reported it;
* ``"inconclusive"``: the package returned without reaching the result the
  input was built to have (no branch of the alternative verified, or a
  pipeline went vacuous on a pair built for it to conclude);
* ``"wrong"``: an output contradicts the check, so the run is not correct.

Every judgement but ``None`` counts as a failed item.

Inputs are stratified where a property changes the cost of an item by a
large factor (problem dimensions, data scale, item kind), so the share of
each stratum in a pool is fixed and only the random data varies by seed.
``cycle`` is the length of one round of strata.

``rate`` is the number of items per second this workload ran at when the
benchmark was defined; the pool for ``--seconds s`` holds about ``s * rate``
items, so a given seed and ``--seconds`` always measure the same items.
``record_items`` bounds the items whose spans a traced run keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAILURE_FAMILIES = ("SolverFailure", "TheoremViolation", "IndeterminateAlternative")
INCONCLUSIVE = "inconclusive"
WRONG = "wrong"

# b (and c) are scaled by 10**k, k cycling through this range, so every pool
# holds the same share of each scale.  1e3 is where the absolute NNLS
# stationarity tolerance starts to trip the iteration cap.
SCALE_EXPONENTS = (-3, -2, -1, 0, 1, 2, 3)

_HALF_ANGLE_MARGIN = 0.15


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def pool_size(workload, seconds):
    """Items in the pool for a run of ``seconds``: whole cycles, at least two."""
    return max(2, math.ceil(seconds * workload.rate / workload.cycle)) * workload.cycle


# ---------------------------------------------------------------------------
# farkas_batch
# ---------------------------------------------------------------------------


class FarkasBatch:
    """``instances.classify_instance`` on scaled ``random_farkas_instance`` data."""

    name = "farkas_batch"
    rate = 1700.0
    cycle = len(SCALE_EXPONENTS)
    record_items = 1400

    def make_items(self, cd, seed, count):
        rng = _rng(seed, 1)
        items = []
        for i in range(count):
            a, b, cone = cd.instances.random_farkas_instance(rng, (2, 6))
            items.append((a, b * 10.0 ** SCALE_EXPONENTS[i % len(SCALE_EXPONENTS)], cone))
        return items

    def execute(self, cd, item):
        a, b, cone = item
        return cd.instances.classify_instance(a, b, cone)

    def judge(self, item, result):
        solution_ok, certificate_ok, indeterminate = result
        if indeterminate:
            return "IndeterminateAlternative"
        # Exactly one branch of the alternative verifies from scratch.
        if solution_ok and certificate_ok:
            return WRONG
        return None if solution_ok or certificate_ok else INCONCLUSIVE


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

# One cycle of the pipelines pool: seven interior-optimum pairs, one pair on
# which the strict-feasibility pipeline concludes, four complex specs.
_PIPELINE_CYCLE = ("interior",) * 7 + ("strict",) + ("complex",) * 4
# Interior pairs as (dim, cone family); wedges need an even dimension.
_INTERIOR_STRATA = tuple(
    (dim, family) for dim in range(2, 7) for family in ("orthant", "wedge") if family == "orthant" or dim % 2 == 0
)
# Complex specs as (n, m) complex dimensions, each with and without game_slice.
_COMPLEX_SHAPES = tuple((shape, game) for shape in ((1, 1), (1, 2), (2, 1), (2, 2)) for game in (False, True))


def _random_complex(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape) + 1j * rng.uniform(-1.0, 1.0, size=shape)


def _half_angles(rng, count):
    return rng.uniform(_HALF_ANGLE_MARGIN, math.pi / 2 - _HALF_ANGLE_MARGIN, size=count)


def strict_pair(cd, rng, dim, scale):
    """A conic pair on which the strict-feasibility pipeline concludes.

    Strict members ``x in int S`` with ``A x in T*`` and ``y in int T`` with
    ``-A^T y in S*`` force ``A x = 0`` and ``A^T y = 0``, and the conclusion
    then forces ``b = 0`` and ``c = 0``.  So ``A`` is a random matrix
    projected to annihilate an interior ``x0`` on the right and an interior
    ``y0`` on the left.
    """
    cone_s = cd.instances.random_cone(rng, dim)
    cone_t = cd.instances.random_cone(rng, dim)
    g_s = cd.cones.generators(cone_s)
    g_t = cd.cones.generators(cone_t)
    x0 = g_s @ rng.uniform(0.5, 1.5, size=g_s.shape[1])
    y0 = g_t @ rng.uniform(0.5, 1.5, size=g_t.shape[1])
    p_x = np.eye(dim) - np.outer(x0, x0) / (x0 @ x0)
    p_y = np.eye(dim) - np.outer(y0, y0) / (y0 @ y0)
    mat = scale * (p_y @ rng.uniform(-1.0, 1.0, size=(dim, dim)) @ p_x)
    zero = np.zeros(dim)
    return cd.duality.ConicProblem(A=cd.linops.OperatorSpec(matrix=mat), b=zero, c=zero, S=cone_s, T=cone_t)


class Pipelines:
    """Both theorem pipelines on conic pairs, and the complex boundary pipeline."""

    name = "pipelines"
    rate = 20.0
    cycle = len(_PIPELINE_CYCLE)
    record_items = 12

    def make_items(self, cd, seed, count):
        rng = _rng(seed, 2)
        items = []
        n_interior = n_strict = n_complex = 0
        for i in range(count):
            kind = _PIPELINE_CYCLE[i % len(_PIPELINE_CYCLE)]
            if kind == "complex":
                (n, m), game = _COMPLEX_SHAPES[n_complex % len(_COMPLEX_SHAPES)]
                n_complex += 1
                spec = cd.complex_lp.ComplexLPSpec(
                    A=_random_complex(rng, (n, m)),
                    b=_random_complex(rng, n),
                    c=_random_complex(rng, m),
                    alpha=_half_angles(rng, m),
                    beta=_half_angles(rng, n),
                    game_slice=game,
                )
                items.append((kind, spec))
                continue
            if kind == "strict":
                scale = 10.0 ** SCALE_EXPONENTS[n_strict % len(SCALE_EXPONENTS)]
                items.append((kind, strict_pair(cd, rng, 2 + n_strict % 5, scale)))
                n_strict += 1
                continue
            dim, family = _INTERIOR_STRATA[n_interior % len(_INTERIOR_STRATA)]
            scale = 10.0 ** SCALE_EXPONENTS[n_interior % len(SCALE_EXPONENTS)]
            n_interior += 1
            pb, _, _ = cd.instances.interior_optimum_problem(rng, dim, family)
            pb = cd.duality.ConicProblem(A=pb.A, b=scale * pb.b, c=scale * pb.c, S=pb.S, T=pb.T)
            items.append((kind, pb))
        return items

    def execute(self, cd, item):
        kind, data = item
        if kind == "complex":
            return cd.complex_lp.classify_boundary_optima(data)
        return (cd.duality.verify_interior_optima(data), cd.duality.verify_strict_feasibility(data))

    def judge(self, item, result):
        kind, data = item
        if kind == "interior":
            return None if result[0].flags.systems_solved == (True, True) else INCONCLUSIVE
        if kind == "strict":
            return None if result[1].flags.systems_solved == (True, True) else INCONCLUSIVE
        # Weak duality between the reported optimal values.
        if math.isfinite(result.v_primal) and math.isfinite(result.v_dual):
            slack = 1e-6 * (1.0 + abs(result.v_primal))
            if result.v_primal < result.v_dual - slack:
                return WRONG
        return None


# ---------------------------------------------------------------------------
# clp_grid
# ---------------------------------------------------------------------------

CLP_GRID = 64
CLP_HORIZON = 1.0
# (m, n) state dimensions, each with constant and with callable data.
_CLP_CYCLE = tuple((m, n, fn) for fn in (False, True) for (m, n) in ((1, 1), (1, 2), (2, 1), (2, 2)))


@dataclass(frozen=True)
class DecayKernel:
    """``K(s, t) = K0 exp(-rate (t - s))`` on ``s <= t``, zero above."""

    k0: np.ndarray
    rate: float

    def __call__(self, s, t):
        if s > t:
            return np.zeros_like(self.k0)
        return self.k0 * math.exp(-self.rate * (t - s))


@dataclass(frozen=True)
class WavyMatrix:
    """``B(t) = B0 (1 + 0.3 sin(freq t))``, entrywise positive."""

    b0: np.ndarray
    freq: float

    def __call__(self, t):
        return self.b0 * (1.0 + 0.3 * math.sin(self.freq * t))


@dataclass(frozen=True)
class ClpItem:
    spec: object
    b0: np.ndarray
    k0: np.ndarray
    b_vec: np.ndarray
    c_vec: np.ndarray
    rate: float | None
    freq: float | None


def backward_substitution_value(item):
    """Optimal primal value of an m = n = 1 discretized CLP with ``B > 0``,
    ``K >= 0``, ``b >= 0`` and ``c > 0``, computed from the raw data.

    The rows read ``B_j x_j - h sum_{k > j} K(t_j, t_k) x_k >= b_j``.  Every
    feasible ``x`` dominates the point that makes all rows tight, which is
    found from the last node backwards, and ``c > 0`` makes it optimal.
    """
    n_grid = CLP_GRID
    h = CLP_HORIZON / n_grid
    ts = (np.arange(n_grid) + 0.5) * h
    big_b = np.full(n_grid, item.b0[0, 0])
    if item.freq is not None:
        big_b = big_b * (1.0 + 0.3 * np.sin(item.freq * ts))
    k_grid = np.full((n_grid, n_grid), item.k0[0, 0])
    if item.rate is not None:
        k_grid = k_grid * np.exp(-item.rate * (ts[np.newaxis, :] - ts[:, np.newaxis]))
    x = np.zeros(n_grid)
    for j in range(n_grid - 1, -1, -1):
        x[j] = (item.b_vec[0] + h * (k_grid[j, j + 1 :] @ x[j + 1 :])) / big_b[j]
    return float(h * item.c_vec[0] * x.sum())


class ClpGrid:
    """The discretize-solve-verify chain on continuous linear programs."""

    name = "clp_grid"
    rate = 5.3
    cycle = len(_CLP_CYCLE)
    record_items = 8

    def make_items(self, cd, seed, count):
        rng = _rng(seed, 3)
        items = []
        for i in range(count):
            m, n, callable_data = _CLP_CYCLE[i % len(_CLP_CYCLE)]
            b0 = rng.uniform(0.5, 1.5, size=(m, n))
            # A nonnegative kernel where the backward-substitution oracle applies.
            k_low = 0.0 if m == n == 1 else -1.0
            k0 = rng.uniform(k_low, 1.0, size=(m, n))
            b_vec = rng.uniform(0.1, 1.0, size=n)
            c_vec = rng.uniform(0.5, 1.5, size=m)
            rate = freq = None
            big_b, kernel = b0, k0
            if callable_data:
                rate = float(rng.uniform(0.5, 2.0))
                freq = float(rng.uniform(1.0, 6.0))
                big_b, kernel = WavyMatrix(b0, freq), DecayKernel(k0, rate)
            spec = cd.continuous_lp.ContinuousLPSpec(
                m=m, n=n, horizon=CLP_HORIZON, n_grid=CLP_GRID, B=big_b, K=kernel, b=b_vec, c=c_vec
            )
            items.append(ClpItem(spec, b0, k0, b_vec, c_vec, rate, freq))
        return items

    def execute(self, cd, item):
        spec = item.spec
        pb = cd.continuous_lp.discretize_clp(spec)
        op = pb.operator()
        adjoint = cd.linops.adjoint_identity_check(op)
        report = cd.duality.solve(pb)
        condition = cd.continuous_lp.kernel_sign_condition(spec)
        out_p = cd.farkas.farkas_primal(op, pb.b, pb.S)
        ok_p = cd.farkas.verify_outcome(out_p, op, pb.b, pb.S)
        out_d = cd.farkas.farkas_dual(op, pb.c, pb.T)
        ok_d = cd.farkas.verify_outcome(out_d, op, pb.c, pb.T)
        return adjoint, report, condition, ok_p, ok_d

    def judge(self, item, result):
        adjoint, report, condition, ok_p, ok_d = result
        ok = (
            report.status_primal == "optimal"
            and report.status_dual == "optimal"
            and abs(report.gap) <= 1e-6
            and ok_p
            and ok_d
            and adjoint.max_residual <= 1e-10
            # B > 0 and c > 0 rule out both sign conditions.
            and condition == "neither"
        )
        if ok and item.spec.m == item.spec.n == 1:
            expected = backward_substitution_value(item)
            ok = abs(report.v_primal - expected) <= 1e-9 * (1.0 + abs(expected))
        return None if ok else WRONG


WORKLOADS = {w.name: w for w in (FarkasBatch(), Pipelines(), ClpGrid())}
