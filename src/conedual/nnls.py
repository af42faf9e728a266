"""Active-set solver for nonnegative least squares.

Solves ``min_u || M u - b ||_2  subject to  u >= 0`` by the classical
passive/active set iteration, with the entering index chosen as the
*smallest* index whose dual value exceeds the tolerance (Bland-style
selection, which rules out cycling on degenerate problems just as it does
for the simplex method).  The subproblems on the passive set are solved by
``numpy.linalg.lstsq``, so rank-deficient passive sets are handled.

In exact arithmetic every outer iteration strictly decreases the residual
or grows the passive set, and the inner loop strictly shrinks it, so the
iteration terminates.  In floating point it can stall instead: an index
whose dual value lies just above ``kkt_tol`` enters, the least-squares step
gives it a non-positive coefficient, it leaves again, and the iterate is
unchanged bit for bit.  The state of an outer iteration is its iterate
alone (the passive set is ``u > 0`` and the dual vector is computed from
``u``), so such a repeat would recur until the iteration cap.  The solver
detects it after the first repeat and raises :class:`SolverFailure` with
the same ``detail`` the cap would carry.  ``max_iter`` still guards longer
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

__all__ = ["NNLSResult", "nnls"]


@dataclass
class NNLSResult:
    u: np.ndarray
    residual_norm: float
    iterations: int
    kkt_residual: float


def nnls(M, b, kkt_tol=1e-10, max_iter=None):
    """Minimize ``||M u - b||_2`` over ``u >= 0``.

    Parameters
    ----------
    M : (m, k) array
    b : (m,) array
    kkt_tol : float
        Stationarity tolerance on the dual vector ``M^T (b - M u)``.
    max_iter : int, optional
        Outer-iteration cap; defaults to ``100 * (k + m)``.

    Returns
    -------
    NNLSResult
        ``u`` is exactly nonnegative.  ``kkt_residual`` is the largest
        positive entry of the dual vector at the returned point (zero when
        the KKT conditions hold to working precision).

    Raises
    ------
    SolverFailure
        If an outer iteration returns the iterate it started from (the
        entering index left the passive set again), or if the iteration
        cap trips.  The iterate is attached to ``detail["u"]`` and the
        largest free dual value to ``detail["kkt"]``.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    if b.ndim != 1 or b.shape[0] != M.shape[0]:
        raise ValueError(f"b has shape {b.shape}, expected ({M.shape[0]},)")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in NNLS data")

    m, k = M.shape
    if max_iter is None:
        max_iter = 100 * (k + m)

    u = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    w = M.T @ b  # dual vector at u = 0
    iterations = 0

    while True:
        free = ~passive
        if not np.any(free) or np.max(w[free], initial=-np.inf) <= kkt_tol:
            break
        iterations += 1
        if iterations > max_iter:
            raise SolverFailure("NNLS iteration cap exceeded", detail={"u": u, "kkt": _kkt(w, free)})
        # Smallest eligible index enters the passive set.  The inner loop
        # rebinds ``u`` before changing it, so ``start`` keeps this iterate.
        j = int(np.flatnonzero(free & (w > kkt_tol))[0])
        passive[j] = True
        start = u

        while True:
            idx = np.flatnonzero(passive)
            z = np.zeros(k)
            z[idx] = np.linalg.lstsq(M[:, idx], b, rcond=None)[0]
            if np.all(z[idx] > 0):
                u = z
                break
            # Step toward z until the first passive component hits zero.
            blocking = idx[z[idx] <= 0]
            ratios = u[blocking] / (u[blocking] - z[blocking])
            alpha = float(np.min(ratios))
            u = u + alpha * (z - u)
            u[blocking[ratios <= alpha + 1e-15]] = 0.0
            passive &= u > 0.0

        u[~passive] = 0.0
        w = M.T @ (b - M @ u)
        # Only an iterate that lost ``j`` again can equal ``start``.
        if not passive[j] and u.tobytes() == start.tobytes():
            raise SolverFailure(
                "NNLS stalled: the entering index left again and the iterate did not move",
                detail={"u": u, "kkt": _kkt(w, ~passive)},
            )

    residual = b - M @ u
    return NNLSResult(
        u=u,
        residual_norm=float(np.linalg.norm(residual)),
        iterations=iterations,
        kkt_residual=_kkt(w, ~passive),
    )


def _kkt(w, free):
    """The largest positive dual value over the free indices, or zero."""
    return max(float(np.max(w[free], initial=0.0)), 0.0)
