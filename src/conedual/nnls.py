"""Active-set solver for nonnegative least squares.

Solves ``min_u || M u - b ||_2  subject to  u >= 0`` by the classical
passive/active set iteration, in which the free index with the *largest*
dual value above the tolerance enters (the smallest such index on a tie).

The subproblems on the passive set are solved from a thin QR factor
``M[:, P] = Q R`` of the passive columns, kept in the order they entered
together with ``Q^T b`` and the inverse of the triangular ``R`` (Lawson &
Hanson, *Solving Least Squares Problems*, 1974, ch. 23-24).  An entering
column is appended by Gram-Schmidt with one re-orthogonalization pass, and
the new columns of ``R`` and of its inverse follow from the projection
coefficients, O(m p + p^2) work; each subproblem ``R z_P = Q^T b`` is then
solved by one triangular matrix-vector product.  When a blocking step
removes indices, the factor of the columns before the first removed one is
kept, and only the surviving columns after it are re-factored, inside the
span of the trailing columns of ``Q``; the inverse of their new diagonal
block is read off the kept inverse and polished by one Newton step, so a
blocking step inverts no matrix.  The normal equations ``M^T M`` are
never formed, so the conditioning of the subproblems is that of
``M[:, P]``.  When the passive columns are numerically dependent -- a
diagonal entry of ``R`` at or below ``eps * max(m, k)`` times the largest,
or more than ``min(m, k)`` passive columns -- the subproblem is solved by
``numpy.linalg.lstsq`` on the passive columns instead, which returns the
minimum-norm solution, until a blocking step leaves an independent set;
the factor is then recomputed by ``numpy.linalg.qr``.

A system with ``2 < k <= m`` columns whose optimum uses every column would
take ``k`` outer iterations.  So when the first outer iteration lowered
the residual and every free dual value is still above ``kkt_tol``, the
second one tries a dense shortcut (Van Benthem & Keenan, *J. Chemometrics*
18, 2004, start from the unconstrained solution): one QR factor of
``[M | b]`` gives ``R`` and ``Q^T b``; if the diagonal of ``R`` passes the
dependence check above, the columns have full rank, and if the
back-substituted unconstrained minimizer is positive it is feasible, hence
the unique optimum, and is returned with ``kkt_residual`` zero.  Otherwise
the iteration goes on from the passive factor, which the shortcut leaves
untouched.  Waiting for the first iteration spares the attempt on most
small systems whose optimum is not dense.

In exact arithmetic every outer iteration strictly decreases the residual
whichever eligible index enters (it gets a positive coefficient), so no
passive set recurs and the iteration terminates: unlike the simplex method,
NNLS needs no Bland rule.  In floating point an outer iteration can fail
to: an index whose dual value lies just above ``kkt_tol`` enters on
roundoff, the least-squares step gives it a non-positive coefficient, and
it leaves again, returning to the iterate it started from or to one that
differs from it by roundoff.  The same indices would then enter again until
the iteration cap.  So an outer iteration that does not bring the squared
residual below its smallest value so far rejects its entering index, and
the eligible index with the next largest dual value is tried (Lawson &
Hanson's rule for a candidate whose coefficient is not positive).  The
rejections are cleared whenever the residual falls.  When every eligible
index is rejected the iterate is returned, and ``kkt_residual`` reports the
largest dual value left over the free indices.  ``max_iter`` still guards
the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .tolerances import BLOCKING_TIE_TOL, STATIONARITY_TOL

__all__ = ["NNLSResult", "nnls"]

_EPS = np.finfo(float).eps


@dataclass
class NNLSResult:
    u: np.ndarray
    residual_norm: float
    iterations: int
    kkt_residual: float


def nnls(M, b, kkt_tol=STATIONARITY_TOL, max_iter=None):
    """Minimize ``||M u - b||_2`` over ``u >= 0``.

    Parameters
    ----------
    M : (m, k) array
    b : (m,) array
    kkt_tol : float
        Stationarity tolerance on the dual vector ``M^T (b - M u)``;
        defaults to ``STATIONARITY_TOL``.
    max_iter : int, optional
        Outer-iteration cap; defaults to ``100 * (k + m)``.

    Returns
    -------
    NNLSResult
        ``u`` is exactly nonnegative.  ``kkt_residual`` is the largest
        positive entry of the dual vector over the free indices at the
        returned point: zero when the KKT conditions hold to working
        precision, and above ``kkt_tol`` when every index left eligible was
        rejected.

    Raises
    ------
    SolverFailure
        If the iteration cap trips.  The iterate is attached to
        ``detail["u"]`` and the largest free dual value to ``detail["kkt"]``.
    """
    # + 0.0 turns -0.0 into +0.0: np.linalg.qr depends on the sign of zeros.
    M = np.asarray(M, dtype=float) + 0.0
    b = np.asarray(b, dtype=float) + 0.0
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    if b.ndim != 1 or b.shape[0] != M.shape[0]:
        raise ValueError(f"b has shape {b.shape}, expected ({M.shape[0]},)")
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ValueError("non-finite entries in NNLS data")

    m, k = M.shape
    if max_iter is None:
        max_iter = 100 * (k + m)

    u = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    rejected = []
    factor = _PassiveFactor(M, b)
    w = M.T @ b  # dual vector at u = 0
    rr = best = b @ b  # squared residual, and its smallest value so far
    iterations = 0

    while k:  # with no columns u = 0 is the answer
        candidates = np.where(passive, -np.inf, w)
        if rejected:
            candidates[rejected] = -np.inf
        # The largest dual value enters; argmax takes the smallest index of a tie.
        j = int(candidates.argmax())
        if not candidates[j] > kkt_tol:
            break
        iterations += 1
        if iterations > max_iter:
            raise SolverFailure("NNLS iteration cap exceeded", detail={"u": u, "kkt": _kkt(w, ~passive)})
        # The dense shortcut of the module docstring.
        if iterations == 2 and not rejected and 2 < k <= m and (w[~passive] > kkt_tol).all():
            z = _dense_solution(M, b, factor.tol)
            if z is not None:
                u, passive[:] = z, True
                r = b - M @ u
                rr = r @ r
                break
        passive[j] = True
        factor.append(j)

        while True:
            cols, z_cols = factor.solve()
            z = np.zeros(k)
            z[cols] = z_cols
            if (z_cols > 0).all():
                break
            # Step toward z until the first passive component hits zero.
            # An index with u = z = 0 blocks at once: its ratio is 0, not 0/0.
            blocking = np.flatnonzero(passive & (z <= 0))
            gap = u[blocking] - z[blocking]
            ratios = np.divide(u[blocking], gap, out=np.zeros_like(gap), where=gap > 0)
            alpha = float(np.min(ratios))
            u = u + alpha * (z - u)
            u[blocking[ratios <= alpha + BLOCKING_TIE_TOL]] = 0.0
            passive &= u > 0.0
            factor.keep(passive)

        u = z
        r = b - M @ u
        rr = r @ r
        # Only roundoff keeps an outer iteration from lowering the residual.
        if rr < best:
            best = rr
            rejected.clear()
        else:
            rejected.append(j)
        w = M.T @ r

    return NNLSResult(
        u=u,
        residual_norm=math.sqrt(rr),
        iterations=iterations,
        kkt_residual=_kkt(w, ~passive),
    )


def _dense_solution(M, b, tol):
    """The unconstrained least-squares minimizer, if the columns of ``M``
    pass the factor's dependence check and it is positive, else None.

    One QR factor of ``[M | b]`` gives ``R`` and ``Q^T b`` together."""
    k = M.shape[1]
    R = np.linalg.qr(np.column_stack([M, b]), mode="r")
    diag = np.abs(np.diagonal(R[:, :k]))
    if diag.min() <= tol * diag.max():
        return None
    z = np.linalg.solve(R[:k, :k], R[:k, k])
    return z if (z > 0).all() else None


def _kkt(w, free):
    """The largest positive dual value over the free indices, or zero."""
    return float(w[free].max(initial=0.0))


class _PassiveFactor:
    """Thin QR factor ``M[:, cols] = Q R`` of the passive columns.

    ``cols`` lists the passive indices in the order they entered.  ``Q``,
    the inverse ``Rinv`` of the upper triangular ``R`` and ``qtb = Q^T b``
    are kept in buffers of ``min(m, k)`` columns, of which the first ``n``
    are in use; ``diag`` holds the magnitudes of the ``n`` diagonal entries
    of ``R``, and ``dmin`` and ``dmax`` their extremes.  A column that would
    make the factor numerically dependent, or exceed ``min(m, k)`` columns,
    is listed in ``cols`` but not factored, and neither is any column after
    it; while ``n < len(cols)``, :meth:`solve` falls back to ``lstsq``.
    """

    def __init__(self, M, b):
        m, k = M.shape
        self.M = M
        self.b = b
        self.cols = []
        self._set_diag([])
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
        dmin, dmax = min(self.dmin, rho), max(self.dmax, rho)
        if dmin <= self.tol * dmax:
            return
        self.diag.append(rho)
        self.dmin, self.dmax = dmin, dmax
        q = v / rho
        self.Q[:, n] = q
        self.qtb[n] = q @ self.b
        if n:
            self.Rinv[:n, n] = (self.Rinv[:n, :n] @ r) / -rho
        self.Rinv[n, n] = 1.0 / rho

    def keep(self, passive):
        """Drop the columns that left ``passive``.

        Let ``k`` be the position of the first dropped column.  The factor
        of the columns before it stands.  The surviving columns after it lie
        in the span of ``Q[:, :n]``, with coefficients ``P = Q[:, :n]^T
        M[:, tail]``, so ``P[k:] = U T`` gives their new ``Q`` columns
        ``Q[:, k:n] U``, the diagonal block ``T`` of ``R`` beside the block
        ``P[:k]``, and by block inversion the new columns of ``Rinv``.
        ``T`` is not inverted: ``Rinv[k:n, k:n] P[k:]`` selects the identity
        columns of the surviving positions ``pos``, so ``T^{-1} = Rinv[pos,
        k:n] U``, made exactly triangular by ``triu``.  That product carries
        the rounding of ``P`` through ``Rinv``, a residual ``I - T T^{-1}``
        of order ``eps cond(R)`` that on ill-conditioned systems moves the
        optimum, so one Newton step ``X + X (I - T X)`` squares it away.  An
        incomplete factor, or a downdate that fails the dependence check,
        is recomputed from the surviving columns instead.
        """
        n = len(self.diag)
        complete = n == len(self.cols)
        k = next((i for i, j in enumerate(self.cols) if not passive[j]), n)
        pos = [i for i in range(k, n) if passive[self.cols[i]]]
        self.cols = [j for j in self.cols if passive[j]]
        if not complete:
            self._refactor()
            return
        tail = self.cols[k:]
        diag = self.diag[:k]
        if tail:
            P = self.Q[:, :n].T @ self.M[:, tail]
            U, T = np.linalg.qr(P[k:])
            diag += np.abs(np.diagonal(T)).tolist()
            if min(diag) <= self.tol * max(diag):
                self._refactor()
                return
            end = k + len(tail)
            Tinv = np.triu(self.Rinv[pos, k:n] @ U)
            Tinv += Tinv @ (np.eye(len(tail)) - T @ Tinv)
            self.Q[:, k:end] = self.Q[:, k:n] @ U
            self.qtb[k:end] = U.T @ self.qtb[k:n]
            self.Rinv[k:end, k:end] = Tinv
            self.Rinv[:k, k:end] = -(self.Rinv[:k, :k] @ P[:k]) @ Tinv
        self._set_diag(diag)

    def _set_diag(self, diag):
        self.diag, self.dmin, self.dmax = diag, min(diag, default=math.inf), max(diag, default=0.0)

    def _refactor(self):
        """Factor the columns ``cols`` afresh by ``numpy.linalg.qr``."""
        self._set_diag([])
        p = len(self.cols)
        if p == 0 or p > self.qtb.size:
            return
        Q, R = np.linalg.qr(self.M[:, self.cols])
        diag = np.abs(np.diagonal(R))
        if diag.min() <= self.tol * diag.max():
            return
        self._set_diag(diag.tolist())
        self.Q[:, :p] = Q
        self.Rinv[:p, :p] = np.linalg.inv(R)
        self.qtb[:p] = Q.T @ self.b

    def solve(self):
        """The passive indices and the least-squares coefficients on them."""
        n = len(self.diag)
        if n < len(self.cols):
            idx = sorted(self.cols)
            return idx, np.linalg.lstsq(self.M[:, idx], self.b, rcond=None)[0]
        return self.cols, self.Rinv[:n, :n] @ self.qtb[:n]
