"""Active-set solver for nonnegative least squares.

Solves ``min_u || M u - b ||_2  subject to  u >= 0`` by the classical
passive/active set iteration, with the entering index chosen as the
*smallest* index whose dual value exceeds the tolerance (Bland-style
selection, which rules out cycling on degenerate problems just as it does
for the simplex method).

The subproblems on the passive set are solved from a thin QR factor
``M[:, P] = Q R`` of the passive columns, kept in the order they entered
together with ``Q^T b`` and the inverse of the triangular ``R`` (Lawson &
Hanson, *Solving Least Squares Problems*, 1974, ch. 23-24).  An entering
column is appended by Gram-Schmidt with one re-orthogonalization pass, and
the new columns of ``R`` and of its inverse follow from the projection
coefficients, O(m p + p^2) work; each subproblem ``R z_P = Q^T b`` is then
solved by one triangular matrix-vector product.  When a blocking step
removes indices, the surviving columns are re-factored once by
``numpy.linalg.qr``.  The normal equations ``M^T M`` are never formed, so
the conditioning of the subproblems is that of ``M[:, P]``.  When the
passive columns are numerically dependent -- a diagonal entry of ``R`` at
or below ``eps * max(m, k)`` times the largest, or more than ``min(m, k)``
passive columns -- the subproblem is solved by ``numpy.linalg.lstsq`` on
the passive columns instead, which returns the minimum-norm solution,
until a blocking step leaves an independent set.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

__all__ = ["NNLSResult", "nnls"]

_EPS = np.finfo(float).eps


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
    factor = _PassiveFactor(M, b)
    w = M.T @ b  # dual vector at u = 0
    iterations = 0

    while True:
        free = ~passive
        eligible = np.flatnonzero(free & (w > kkt_tol))
        if eligible.size == 0:
            break
        iterations += 1
        if iterations > max_iter:
            raise SolverFailure("NNLS iteration cap exceeded", detail={"u": u, "kkt": _kkt(w, free)})
        # Smallest eligible index enters the passive set.  The inner loop
        # rebinds ``u`` before changing it, so ``start`` keeps this iterate.
        j = int(eligible[0])
        passive[j] = True
        factor.append(j)
        start = u

        while True:
            idx, z_idx = factor.solve()
            z = np.zeros(k)
            z[idx] = z_idx
            if np.all(z_idx > 0):
                u = z
                break
            # Step toward z until the first passive component hits zero.
            # An index with u = z = 0 blocks at once: its ratio is 0, not 0/0.
            blocking = np.flatnonzero(passive & (z <= 0))
            gap = u[blocking] - z[blocking]
            ratios = np.divide(u[blocking], gap, out=np.zeros_like(gap), where=gap > 0)
            alpha = float(np.min(ratios))
            u = u + alpha * (z - u)
            u[blocking[ratios <= alpha + 1e-15]] = 0.0
            passive &= u > 0.0
            factor.keep(passive)

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


class _PassiveFactor:
    """Thin QR factor ``M[:, cols] = Q R`` of the passive columns.

    ``cols`` lists the passive indices in the order they entered.  ``Q``,
    the inverse ``Rinv`` of the upper triangular ``R`` and ``qtb = Q^T b``
    are kept in buffers of ``min(m, k)`` columns, of which the first ``n``
    are in use, and ``diag`` holds the magnitudes of the ``n`` diagonal
    entries of ``R``.  A column that would make the factor numerically
    dependent, or exceed ``min(m, k)`` columns, is listed in ``cols`` but
    not factored, and neither is any column after it; while
    ``n < len(cols)``, :meth:`solve` falls back to ``lstsq``.
    """

    def __init__(self, M, b):
        m, k = M.shape
        self.M = M
        self.b = b
        self.cols = []
        self.diag = []
        self.tol = _EPS * max(m, k)
        size = min(m, k)
        self.Q = np.zeros((m, size))
        self.Rinv = np.zeros((size, size))
        self.qtb = np.zeros(size)

    def append(self, j):
        """Add column ``j`` by Gram-Schmidt with one re-orthogonalization.

        With ``M[:, j] = Q r + rho q``, the new column of ``R`` is
        ``(r, rho)`` and that of its inverse is ``(-Rinv r / rho, 1 / rho)``,
        the recurrence by which LAPACK's ``trti2`` inverts a triangular
        matrix.
        """
        n = len(self.diag)
        self.cols.append(j)
        if n + 1 < len(self.cols) or n == self.qtb.size:
            return
        v = self.M[:, j]
        if n:
            Q = self.Q[:, :n]
            r = Q.T @ v
            v = v - Q @ r
            s = Q.T @ v
            v -= Q @ s
            r += s
        rho = math.sqrt(v @ v)
        diag = self.diag + [rho]
        if min(diag) <= self.tol * max(diag):
            return
        self.diag = diag
        q = v / rho
        self.Q[:, n] = q
        self.qtb[n] = q @ self.b
        if n:
            self.Rinv[:n, n] = (self.Rinv[:n, :n] @ r) / -rho
        self.Rinv[n, n] = 1.0 / rho

    def keep(self, passive):
        """Drop the columns that left ``passive`` and re-factor the rest."""
        self.cols = [j for j in self.cols if passive[j]]
        self.diag = []
        p = len(self.cols)
        if p == 0 or p > self.qtb.size:
            return
        Q, R = np.linalg.qr(self.M[:, self.cols])
        diag = np.abs(np.diagonal(R))
        if diag.min() <= self.tol * diag.max():
            return
        self.diag = diag.tolist()
        self.Q[:, :p] = Q
        self.Rinv[:p, :p] = np.linalg.inv(R)
        self.qtb[:p] = Q.T @ self.b

    def solve(self):
        """The passive indices and the least-squares coefficients on them."""
        idx = np.array(self.cols, dtype=int)
        n = len(self.diag)
        if n < idx.size:
            idx.sort()
            return idx, np.linalg.lstsq(self.M[:, idx], self.b, rcond=None)[0]
        return idx, self.Rinv[:n, :n] @ self.qtb[:n]
