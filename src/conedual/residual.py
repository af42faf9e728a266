"""Residual minimization over cone images.

The residual problem is ``min <z, z>  over  z in {A x - b : x in S}``.  With
``S = {G u : u >= 0}`` this is the nonnegative least-squares problem
``min ||(A G) u - b||_W^2`` over ``u >= 0``; weighted pairings are folded in
by row scaling so the active-set solver always works in Euclidean geometry.

When the minimum value is positive, the minimizer ``gamma`` generates a
strict separator between ``b`` and the image cone: ``alpha = gamma - b``
satisfies ``<alpha, b> < 0 <= <alpha, A x>`` for every ``x in S``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import generators
from .linops import _as_array, pairing
from .nnls import nnls

__all__ = ["ResidualResult", "residual_minimize"]

@dataclass
class ResidualResult:
    """Outcome of a residual minimization.

    ``gamma`` lies in the image cone ``C_A = {A x : x in S}``,
    ``coefficients`` is the nonnegative preimage with
    ``gamma = A G coefficients``, and ``value = <gamma - b, gamma - b>``.
    """

    gamma: np.ndarray
    coefficients: np.ndarray
    value: float
    iterations: int
    kkt_residual: float


def residual_minimize(A, b, S):
    """Minimize ``<A x - b, A x - b>`` over ``x in S``.

    Parameters
    ----------
    A : OperatorSpec
    b : (dim Y,) array
    S : ConeSpec
        Finitely generated; a slice through its own rays, so the preimage
        ``G u`` lies in the slice by construction.

    The objective is measured in the operator's codomain pairing, and the
    active-set iteration stops at stationarity ``STATIONARITY_TOL``.  The
    minimum always exists: the objective is coercive on the closed
    polyhedral image cone.
    """
    p = A.pairing_codomain
    b = _as_array(b, "b", 1, A.codomain_dim)
    g = generators(S)
    if g.shape[0] != A.domain_dim:
        raise ValueError(f"cone dimension {g.shape[0]} does not match operator domain {A.domain_dim}")

    m_img = A.matrix @ g
    sqrt_w = np.sqrt(p.weight_vector(A.codomain_dim))
    rows = m_img * sqrt_w[:, np.newaxis]
    rhs = b * sqrt_w

    result = nnls(rows, rhs)
    u = result.u
    gamma = m_img @ u
    diff = gamma - b
    value = pairing(p, diff, diff)
    return ResidualResult(
        gamma=gamma,
        coefficients=u,
        value=float(value),
        iterations=result.iterations,
        kkt_residual=result.kkt_residual,
    )
