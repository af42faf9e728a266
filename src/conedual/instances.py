"""Seeded instance generators for batch classification and testing.

Each generator takes a ``numpy.random.Generator`` so suites are exactly
reproducible from a single seed, and instances are independent across
indices (seed, index) for order-insensitive parallel runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import generators, orthant, wedge
from .duality import ConicProblem, verify_interior_optima
from .errors import IndeterminateAlternative, TheoremViolation
from .farkas import farkas_primal
from .linops import OperatorSpec
from .tolerances import DECISION_TOL

__all__ = [
    "random_cone",
    "random_farkas_instance",
    "interior_optimum_problem",
    "classify_instance",
    "farkas_batch",
    "interior_batch",
]


def random_cone(rng, dim, family="mixed"):
    """An orthant or a wedge product on ``dim`` coordinates.

    Wedges need an even ambient dimension; odd ``dim`` always yields the
    orthant.
    """
    if family == "wedge" and dim % 2 == 1:
        raise ValueError("wedge cones need an even ambient dimension")
    if family == "orthant" or dim % 2 == 1 or (family == "mixed" and rng.random() < 0.5):
        return orthant(dim)
    return wedge(rng.uniform(0.15, math.pi / 2 - 0.15, size=dim // 2))


def random_farkas_instance(rng, dim_range=(2, 6)):
    """Operator, right-hand side, and cone with U[-1, 1] entries."""
    dim_x = int(rng.integers(dim_range[0], dim_range[1] + 1))
    dim_y = int(rng.integers(dim_range[0], dim_range[1] + 1))
    a = OperatorSpec(matrix=rng.uniform(-1.0, 1.0, size=(dim_y, dim_x)))
    b = rng.uniform(-1.0, 1.0, size=dim_y)
    cone = random_cone(rng, dim_x)
    return a, b, cone


def interior_optimum_problem(rng, dim, family="mixed"):
    """A conic pair whose unique optima are interior on both sides.

    Take an invertible ``A``, an interior ``x0 = G u0`` (``u0 > 0``), and
    set ``b := A x0``; every feasible point satisfies
    ``<c, x> = <y0, A x - b> + <y0, b>`` for ``c := A^T y0`` with interior
    ``y0``, so the unique primal optimum is ``x0`` and, symmetrically, the
    unique dual optimum is ``y0``.
    """
    cone_s = random_cone(rng, dim, family)
    cone_t = random_cone(rng, dim, family)
    for _ in range(100):
        mat = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(mat)) > 1e-2:
            break
    g_s = generators(cone_s)
    g_t = generators(cone_t)
    x0 = g_s @ rng.uniform(0.5, 1.5, size=g_s.shape[1])
    y0 = g_t @ rng.uniform(0.5, 1.5, size=g_t.shape[1])
    a = OperatorSpec(matrix=mat)
    pb = ConicProblem(A=a, b=mat @ x0, c=mat.T @ y0, S=cone_s, T=cone_t)
    return pb, x0, y0


# ---------------------------------------------------------------------------
# Batch classification
# ---------------------------------------------------------------------------


@dataclass
class InstanceOutcome:
    index: int
    solution_verified: bool
    certificate_verified: bool
    indeterminate: bool


def classify_instance(a, b, cone, tol=DECISION_TOL):
    """Classify one instance as ``(solution_verified, certificate_verified,
    indeterminate)``: the branch :func:`farkas_primal` returns, which has
    verified, or indeterminate when neither branch verifies.  Exactly one
    entry is true."""
    try:
        branch = farkas_primal(a, b, cone, tol).branch
    except IndeterminateAlternative:
        return False, False, True
    return branch == "solution", branch == "certificate", False


def farkas_batch(seed, indices, tol=DECISION_TOL):
    """Classify the random instances ``(seed, index)`` for ``index`` in the
    range ``indices``; returns one :class:`InstanceOutcome` per index, so
    batches over consecutive ranges concatenate into one batch."""
    rows = []
    for index in indices:
        rng = np.random.default_rng((seed, index))
        a, b, cone = random_farkas_instance(rng)
        rows.append(InstanceOutcome(index, *classify_instance(a, b, cone, tol)))
    return rows


def summarize_batch(rows):
    return {
        "instances": len(rows),
        "solutions": sum(r.solution_verified for r in rows),
        "certificates": sum(r.certificate_verified for r in rows),
        "indeterminate": sum(r.indeterminate for r in rows),
    }


def interior_batch(seed, count, tol=DECISION_TOL):
    """Run the interior-optima verification on constructed instances;
    returns (passes, violations, gaps).

    An instance passes when both equality systems are solved: the pipeline
    has then checked the gap against ``tol * (1 + |v_primal|)`` and would
    have raised on a larger one."""
    passes = 0
    violations = 0
    gaps = []
    for index in range(count):
        rng = np.random.default_rng((seed, index))
        pb, _, _ = interior_optimum_problem(rng, 3)
        try:
            report = verify_interior_optima(pb, tol=tol)
        except TheoremViolation:
            violations += 1
            continue
        gaps.append(abs(report.gap))
        if report.flags.systems_solved == (True, True):
            passes += 1
    return passes, violations, gaps
