"""Conic linear programming duality toolkit.

Constructively decides the alternative between the equality systems
``{A x = b, x in S}`` / ``{A^T y = c, y in T}`` and their separating
systems, solves the associated primal-dual conic pairs at desk scale, and
verifies strong-duality and complementarity statements on concrete
instances, including complex argument-cone programs and discretized
continuous programs with Volterra kernels.
"""

from .cones import (
    ConeSpec,
    contains,
    dual,
    dual_distance,
    generated,
    generators,
    interior_contains,
    orthant,
    product,
    slice_cone,
    wedge,
)
from .duality import (
    ConicProblem,
    SolveReport,
    complementarity,
    feasible_dual,
    feasible_primal,
    solve,
    verify_interior_optima,
    verify_strict_feasibility,
)
from .errors import IndeterminateAlternative, SolverFailure, TheoremViolation
from .farkas import FarkasOutcome, farkas_dual, farkas_primal, verify_outcome
from .linops import (
    OperatorSpec,
    PairingSpec,
    adjoint_apply,
    adjoint_identity_check,
    apply,
    complex_embed,
    pairing,
    transposed,
    weighted_quadrature,
)
from .residual import ResidualResult, residual_minimize

__version__ = "0.1.0"

__all__ = [
    "ConeSpec",
    "ConicProblem",
    "FarkasOutcome",
    "IndeterminateAlternative",
    "OperatorSpec",
    "PairingSpec",
    "ResidualResult",
    "SolveReport",
    "SolverFailure",
    "TheoremViolation",
    "adjoint_apply",
    "adjoint_identity_check",
    "apply",
    "complementarity",
    "complex_embed",
    "contains",
    "dual",
    "dual_distance",
    "farkas_dual",
    "farkas_primal",
    "feasible_dual",
    "feasible_primal",
    "generated",
    "generators",
    "interior_contains",
    "orthant",
    "pairing",
    "product",
    "residual_minimize",
    "slice_cone",
    "solve",
    "transposed",
    "verify_interior_optima",
    "verify_outcome",
    "verify_strict_feasibility",
    "wedge",
    "weighted_quadrature",
]
