"""Constructive Farkas alternatives with independently verifiable outcomes.

For the primal pair the alternative is between

* system (I):  ``A x = b`` with ``x in S``, and
* system (II): ``-A^T alpha in S*`` with ``<alpha, -b> < 0``,

and exactly one of the two admits a solution.  The decision is driven by the
residual minimizer ``gamma`` over the image cone, which yields both
candidates: a solution of (I) from the nonnegative preimage and the
certificate ``alpha = b - gamma`` of (II).  A branch is reported only when
its candidate verifies.

The dual system ``{A^T y = c, y in T}`` is system (I) of the transposed
operator: ``-A^T y = -c`` with ``y in T``, where ``-A^T`` is
``transposed(A)``, the operator of the transposed pair.  Its system (II)
reads ``A x in T*`` with ``<x, c> < 0``, which is the dual certificate
itself, so the dual side is the primal decision on ``(transposed(A), -c)``
with no sign map.

The residuals of an outcome are computed by one routine, which
:func:`farkas_primal` checks and stores and :func:`verify_outcome` compares
with its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import _check_pairing_dual, distance, dual_distance, generators
from .errors import IndeterminateAlternative
from .linops import _as_array, _pairing, adjoint_matrix, apply, pairing_norm, transposed
from .residual import residual_minimize
from .tolerances import DECISION_TOL

__all__ = [
    "FarkasOutcome",
    "farkas_primal",
    "farkas_dual",
    "verify_outcome",
    "verified_solution",
    "outcome_to_dict",
]

@dataclass
class FarkasOutcome:
    """Tagged outcome of a Farkas decision.

    Exactly one of ``point`` (solution branch) and ``certificate``
    (certificate branch) is populated.  The residuals are the ones
    :func:`verify_outcome` compares with its tolerance.
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


def _candidate(A, b, S, res, branch):
    """The primal outcome on ``branch`` from the residual minimizer ``res``
    of ``(A, b, S)``, without residuals: ``x = G u``, or ``b - gamma`` at
    unit length in ``Y``'s pairing."""
    if branch == "solution":
        x = generators(S) @ res.coefficients
        return FarkasOutcome(branch="solution", side="primal", point=x, residual_value=res.value)
    alpha = b - res.gamma
    alpha = alpha / pairing_norm(A.pairing_codomain, alpha)
    return FarkasOutcome(branch="certificate", side="primal", certificate=alpha, residual_value=res.value)


def _residuals(outcome, A, rhs, cone):
    """``(eq_residual, cone_residual, strict_margin)`` of ``outcome`` for
    ``{A x = rhs, x in cone}``, from the raw data only: ``||A x - rhs||``,
    the distance from ``x`` to the cone and 0 for a solution; 0, the
    distance from ``-A^T alpha`` to the dual cone and ``-<alpha, -rhs>``
    for a certificate, which raises ValueError where the Euclidean dual
    cone is not the dual in ``X``'s pairing.  A dual-side outcome is measured as the
    primal outcome of ``(transposed(A), -rhs)``.  ``rhs`` is already read
    as a float vector."""
    if outcome.side not in ("primal", "dual"):
        raise ValueError(f"unknown outcome side {outcome.side!r}")
    if outcome.side == "dual":
        A, rhs = transposed(A), -rhs
    p = A.pairing_codomain
    if outcome.branch == "solution":
        x = outcome.point
        return pairing_norm(p, apply(A, x) - rhs), distance(cone, x), 0.0
    _check_pairing_dual(cone, A.pairing_domain, "S")
    alpha = _as_array(outcome.certificate, "certificate", 1, A.codomain_dim)
    # The margin -<alpha, -rhs> is <alpha, rhs>, bit for bit up to the sign of a zero.
    return 0.0, dual_distance(cone, -(adjoint_matrix(A) @ alpha)), _pairing(p, alpha, rhs)


def _passes(branch, residuals, tol):
    eq, cone, margin = residuals
    return cone <= tol and (eq <= tol if branch == "solution" else margin > tol)


def farkas_primal(A, b, S, tol=DECISION_TOL):
    """Decide ``{A x = b, x in S}`` against its separating system.

    Solution branch: ``x = G u`` from the nonnegative least-squares
    preimage, with ``||A x - b|| <= tol``.  Certificate branch:
    ``alpha = b - gamma`` normalized to unit length, satisfying
    ``-A^T alpha in S*`` and ``<alpha, -b> <= -strict_margin < 0``.  Norms
    and margins are taken in the operator's codomain pairing; the cone
    residual is the Euclidean distance to ``S`` or ``S*``.

    Only a branch that passes :func:`verify_outcome` at ``tol`` is
    returned: first the one the residual value points to (the solution when
    it is at most ``tol^2``), then the other.  Raises
    :class:`~conedual.errors.IndeterminateAlternative` if neither passes.
    """
    return _decide(A, _as_array(b, "b", 1, A.codomain_dim), S, tol)


def _decide(A, b, S, tol):
    """:func:`farkas_primal` for a ``b`` already read as a float vector."""
    res = residual_minimize(A, b, S)
    branches = ("solution", "certificate") if res.value <= tol * tol else ("certificate", "solution")
    for branch in branches:
        # b - gamma = 0 has no unit-length certificate.
        if branch == "certificate" and res.value == 0:
            continue
        outcome = _candidate(A, b, S, res, branch)
        residuals = _residuals(outcome, A, b, S)
        if _passes(branch, residuals, tol):
            outcome.eq_residual, outcome.cone_residual, outcome.strict_margin = residuals
            return outcome
    raise IndeterminateAlternative(
        f"neither branch verifies at tol={tol:.1e} (residual value {res.value:.3e})",
        value=res.value,
        tol=tol,
    )


def farkas_dual(A, c, T, tol=DECISION_TOL):
    """Decide ``{A^T y = c, y in T}`` against its separating system.

    Solution branch: ``y in T`` with ``||A^T y - c|| <= tol``.  Certificate
    branch: ``x = gamma - c`` (unit length, ``gamma`` the point of ``A^T T``
    nearest to ``c``) with ``A x in T*`` and ``<x, c> <= -strict_margin < 0``.
    This is :func:`farkas_primal` on ``(transposed(A), -c)``.
    """
    # 0.0 - c, not -c: a zero entry of c then gives +0.0 in the certificate
    # b - gamma, where -0.0 - 0.0 would give -0.0.
    outcome = _decide(transposed(A), 0.0 - _as_array(c, "c", 1, A.domain_dim), T, tol)
    outcome.side = "dual"
    return outcome


def verify_outcome(outcome, A, rhs, cone, tol=DECISION_TOL):
    """Re-check the populated branch from the raw problem data.

    Never consults solver internals: the residuals are recomputed from
    ``A``, ``rhs`` and the cone.  Both branches need a cone residual of at
    most ``tol``; a solution also an equality residual of at most ``tol``,
    a certificate a strict margin above ``tol``.
    """
    if (outcome.point if outcome.branch == "solution" else outcome.certificate) is None:
        return False
    rhs = _as_array(rhs, "rhs", 1, A.domain_dim if outcome.side == "dual" else A.codomain_dim)
    return _passes(outcome.branch, _residuals(outcome, A, rhs, cone), tol)


def verified_solution(A, rhs, cone, tol=DECISION_TOL, witness=None):
    """A solution of ``{A x = rhs, x in cone}`` that passes
    :func:`verify_outcome` at ``10 tol``; None when none passes.

    A candidate ``witness`` (say, an optimizer that should solve the
    system) is checked first and returned when it passes; otherwise the
    candidate is the preimage ``x = G u`` of the residual minimizer, the
    solution candidate of :func:`farkas_primal`.  No certificate is built:
    None only says that no solution verified.  A verified witness proves
    the system solvable, so it can only turn None into a solution.  The
    dual system ``{A^T y = c, y in T}`` is this system for
    ``(transposed(A), -c)``."""
    if witness is not None:
        candidate = FarkasOutcome(branch="solution", side="primal", point=witness)
        if verify_outcome(candidate, A, rhs, cone, tol=10 * tol):
            return witness
    candidate = _candidate(A, rhs, cone, residual_minimize(A, rhs, cone), "solution")
    return candidate.point if verify_outcome(candidate, A, rhs, cone, tol=10 * tol) else None


def outcome_to_dict(outcome):
    return {
        "branch": outcome.branch,
        "side": outcome.side,
        "point": None if outcome.point is None else outcome.point.tolist(),
        "cert": None if outcome.certificate is None else outcome.certificate.tolist(),
        "residuals": {k: float(v) for k, v in outcome.residuals.items()},
    }
