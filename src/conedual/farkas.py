"""Constructive Farkas alternatives with independently verifiable outcomes.

For the primal pair the alternative is between

* system (I):  ``A x = b`` with ``x in S``, and
* system (II): ``-A^T alpha in S*`` with ``<alpha, -b> < 0``,

and exactly one of the two admits a solution.  The decision is driven by the
residual minimizer ``gamma`` over the image cone: a near-zero residual value
yields a solution of (I) from the nonnegative preimage, a clearly positive
one yields the certificate ``alpha = b - gamma`` of (II).

The dual system ``{A^T y = c, y in T}`` is system (I) of the transposed
operator: ``-A^T y = -c`` with ``y in T``, where ``-A^T`` is
``transposed(A)``, the operator of the transposed pair.  Its system (II)
reads ``A x in T*`` with ``<x, c> < 0``, which is the dual certificate
itself, so the dual side is the primal decision on ``(transposed(A), -c)``
with no sign map.

Residual values inside ``(tol^2, 10 tol^2)`` are reported as indeterminate
rather than forced into a branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import contains, distance, dual, generators
from .errors import IndeterminateAlternative
from .linops import adjoint_apply, apply, pairing, pairing_norm, transposed
from .residual import residual_minimize

__all__ = [
    "FarkasOutcome",
    "farkas_primal",
    "farkas_dual",
    "verify_outcome",
    "verified_solution",
    "outcome_to_dict",
]

INDETERMINATE_FACTOR = 10.0


@dataclass
class FarkasOutcome:
    """Tagged outcome of a Farkas decision.

    Exactly one of ``point`` (solution branch) and ``certificate``
    (certificate branch) is populated.  Residuals are recorded at
    construction time; ``verify_outcome`` recomputes them from scratch.
    """

    branch: str  # "solution" | "certificate"
    side: str  # "primal" | "dual"
    point: np.ndarray | None = None
    certificate: np.ndarray | None = None
    eq_residual: float = 0.0
    cone_residual: float = 0.0
    strict_margin: float = 0.0
    residual_value: float = 0.0

    @property
    def residuals(self):
        return {
            "eq_residual": self.eq_residual,
            "cone_residual": self.cone_residual,
            "strict_margin": self.strict_margin,
        }


def _classify(value, tol):
    if value <= tol * tol:
        return "solution"
    if value < INDETERMINATE_FACTOR * tol * tol:
        raise IndeterminateAlternative(
            f"residual value {value:.3e} falls in the indeterminate band for tol={tol:.1e}",
            value=value,
            tol=tol,
        )
    return "certificate"


def farkas_primal(A, b, S, tol=1e-8):
    """Decide ``{A x = b, x in S}`` against its separating system.

    Solution branch: ``x = G u`` from the nonnegative least-squares
    preimage, with ``||A x - b|| <= tol``.  Certificate branch:
    ``alpha = b - gamma`` normalized to unit length, satisfying
    ``-A^T alpha in S*`` and ``<alpha, -b> <= -strict_margin < 0``.  Norms
    and margins are taken in the operator's codomain pairing.  The cone
    residual is the Euclidean distance to ``S*``, which coincides with the
    pairing dual for orthants under any positive weights.
    """
    p = A.pairing_codomain
    b = np.asarray(b, dtype=float)
    res = residual_minimize(A, b, S)
    branch = _classify(res.value, tol)
    if branch == "solution":
        x = generators(S) @ res.coefficients
        return FarkasOutcome(
            branch="solution",
            side="primal",
            point=x,
            eq_residual=pairing_norm(p, apply(A, x) - b),
            residual_value=res.value,
        )
    alpha = b - res.gamma
    alpha = alpha / pairing_norm(p, alpha)
    margin = -pairing(p, alpha, -b)
    cone_res = distance(dual(S), -adjoint_apply(A, alpha))
    return FarkasOutcome(
        branch="certificate",
        side="primal",
        certificate=alpha,
        cone_residual=cone_res,
        strict_margin=margin,
        residual_value=res.value,
    )


def farkas_dual(A, c, T, tol=1e-8):
    """Decide ``{A^T y = c, y in T}`` against its separating system.

    Solution branch: ``y in T`` with ``||A^T y - c|| <= tol``.  Certificate
    branch: ``x = gamma - c`` (unit length, ``gamma`` the point of ``A^T T``
    nearest to ``c``) with ``A x in T*`` and ``<x, c> <= -strict_margin < 0``.
    This is :func:`farkas_primal` on ``(transposed(A), -c)``.
    """
    # 0.0 - c, not -c: a zero entry of c then gives +0.0 in the certificate
    # b - gamma, where -0.0 - 0.0 would give -0.0.
    outcome = farkas_primal(transposed(A), 0.0 - np.asarray(c, dtype=float), T, tol=tol)
    outcome.side = "dual"
    return outcome


def verify_outcome(outcome, A, rhs, cone, tol=1e-8):
    """Re-check the populated branch from the raw problem data.

    Never consults solver internals: equality residuals, cone memberships,
    and strict margins are recomputed from ``A``, ``rhs`` and the cones.
    For certificate branches the strict inequality must clear ``tol``.
    A dual-side outcome is checked as the primal outcome of
    ``(transposed(A), -rhs)``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if outcome.side == "dual":
        A, rhs = transposed(A), -rhs
    elif outcome.side != "primal":
        raise ValueError(f"unknown outcome side {outcome.side!r}")
    p_eq = A.pairing_codomain
    if outcome.branch == "solution":
        if outcome.point is None:
            return False
        eq = pairing_norm(p_eq, apply(A, outcome.point) - rhs)
        return eq <= tol and contains(cone, outcome.point, tol)
    if outcome.certificate is None:
        return False
    alpha = outcome.certificate
    image = -adjoint_apply(A, alpha)
    margin = -pairing(p_eq, alpha, -rhs)
    return contains(dual(cone), image, tol) and margin > tol


def verified_solution(A, rhs, cone, tol=1e-8, witness=None):
    """A solution of ``{A x = rhs, x in cone}`` re-checked by
    :func:`verify_outcome` at ``10 tol``; None when none verifies.

    A candidate ``witness`` (say, an optimizer that should solve the
    system) is checked first and returned when it passes; otherwise the
    solution comes from :func:`farkas_primal`.  A verified witness proves
    the system solvable, so it can only turn None into a solution.  The
    dual system ``{A^T y = c, y in T}`` is this system for
    ``(transposed(A), -c)``."""
    if witness is not None:
        candidate = FarkasOutcome(branch="solution", side="primal", point=witness)
        if verify_outcome(candidate, A, rhs, cone, tol=10 * tol):
            return witness
    outcome = farkas_primal(A, rhs, cone, tol=tol)
    if outcome.branch == "solution" and verify_outcome(outcome, A, rhs, cone, tol=10 * tol):
        return outcome.point
    return None


def outcome_to_dict(outcome):
    return {
        "branch": outcome.branch,
        "side": outcome.side,
        "point": None if outcome.point is None else outcome.point.tolist(),
        "cert": None if outcome.certificate is None else outcome.certificate.tolist(),
        "residuals": {k: float(v) for k, v in outcome.residuals.items()},
    }
