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
from .errors import TheoremViolation
from .farkas import _candidate, _indeterminate, verify_outcome
from .linops import OperatorSpec, pairing
from .residual import residual_minimize

__all__ = [
    "random_cone",
    "random_farkas_instance",
    "feasible_farkas_instance",
    "infeasible_farkas_instance",
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


def feasible_farkas_instance(rng):
    """``b := A x0`` with ``x0`` a random cone member, so the equality
    system is solvable by construction."""
    a, _, cone = random_farkas_instance(rng)
    g = generators(cone)
    x0 = g @ rng.uniform(0.2, 1.0, size=g.shape[1])
    return a, a.matrix @ x0, cone, x0


def infeasible_farkas_instance(rng):
    """Shift a feasible right-hand side out of the image cone along a
    verified separator direction of a base instance.

    Draws up to 200 base instances until one admits a separator (operators
    whose image cone covers the whole space admit none), then returns
    ``b := A x0 - 2 d`` with ``d`` the unit separator, which is provably
    outside the image cone.
    """
    for _ in range(200):
        a, b_probe, cone = random_farkas_instance(rng)
        res = residual_minimize(a, b_probe, cone)
        # Off the image cone, gamma - b_probe separates b_probe from it.
        if res.value <= 1e-8 * 1e-8:
            continue
        d = res.gamma - b_probe
        d = d / np.linalg.norm(d)
        g = generators(cone)
        x0 = g @ rng.uniform(0.2, 1.0, size=g.shape[1])
        b = a.matrix @ x0 - 2.0 * d
        # d separates: <d, A x> >= 0 on the cone while <d, b> <= -2.
        if pairing(None, d, b) <= -1.0:
            return a, b, cone, d
    raise RuntimeError("failed to construct an infeasible instance")


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


def classify_instance(a, b, cone, tol=1e-8):
    """Classify one instance as ``(solution_verified, certificate_verified,
    indeterminate)``.

    One residual solve gives the candidate of :func:`farkas_primal`: the
    solution when the residual value is at most ``tol^2``, the certificate
    otherwise.  It is checked by :func:`verify_outcome`, and an instance
    whose candidate fails is indeterminate when the value lies in the band
    where :func:`farkas_primal` raises.  At most one branch verifies.
    """
    res = residual_minimize(a, b, cone)
    branch = "solution" if res.value <= tol * tol else "certificate"
    verified = verify_outcome(_candidate(a, b, cone, res, branch), a, b, cone, tol)
    return (
        verified and branch == "solution",
        verified and branch == "certificate",
        not verified and _indeterminate(res.value, tol),
    )


def farkas_batch(seed, indices, tol=1e-8):
    """Classify the random instances ``(seed, index)`` for ``index`` in the
    range ``indices``; returns one :class:`InstanceOutcome` per index, so
    batches over consecutive ranges concatenate into one batch."""
    rows = []
    for index in indices:
        rng = np.random.default_rng((seed, index))
        a, b, cone = random_farkas_instance(rng)
        solution_ok, certificate_ok, indeterminate = classify_instance(a, b, cone, tol)
        rows.append(
            InstanceOutcome(
                index=index,
                solution_verified=solution_ok,
                certificate_verified=certificate_ok,
                indeterminate=indeterminate,
            )
        )
    return rows


def summarize_batch(rows):
    return {
        "instances": len(rows),
        "solutions": sum(r.solution_verified and not r.certificate_verified for r in rows),
        "certificates": sum(r.certificate_verified and not r.solution_verified for r in rows),
        "both_verified": sum(r.solution_verified and r.certificate_verified for r in rows),
        "indeterminate": sum(r.indeterminate for r in rows),
        "neither": sum(
            not (r.solution_verified or r.certificate_verified or r.indeterminate) for r in rows
        ),
    }


def interior_batch(seed, count, tol=1e-8):
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
