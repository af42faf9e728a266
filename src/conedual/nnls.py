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
``M[:, P]``.

A column that would make the passive columns numerically dependent -- a
diagonal entry of ``R`` at or below ``eps * max(m, k)`` times the largest,
or more than ``min(m, k)`` passive columns -- is refused: it does not
enter, the factor is left as it was, and the column is rejected as below
(Lawson & Hanson's rule; in exact arithmetic such a column has the dual
value ``M_j^T r = 0``, so only roundoff lets it be a candidate).  The
passive columns are therefore always independent and every subproblem has
one solve path.  A blocking step keeps them so: each surviving column's
diagonal entry is its distance from the span of the kept columns before
it, which are fewer than before, so it cannot shrink, and the inverse of
the re-factored block divides by nothing.

A system with ``2 < k <= m`` columns whose optimum uses every column
would take ``k`` outer iterations, and one whose optimum uses most of
them nearly as many.  So the iteration makes two dense attempts (Van
Benthem & Keenan, *J. Chemometrics* 18, 2004, start from the
unconstrained solution).  Each takes one QR factor of ``[M | b]``, which
gives ``R`` and ``Q^T b``; if the diagonal of ``R`` passes the dependence
test above, the columns have full rank, and if the back-substituted
unconstrained minimizer ``z`` is positive it is feasible, hence the
unique optimum, and is returned with ``kkt_residual`` zero.

The first attempt is made at the second outer iteration, when the first
lowered the residual and every free dual value is still above
``STATIONARITY_TOL``; if it does not return, the iteration goes on from
the passive factor, which the attempt leaves untouched.  Waiting for the
first iteration spares the attempt on most small systems whose optimum is
not dense.

The second attempt is made at outer iteration ``_WARM_START_ITERATION``,
5, whatever the dual values, when no index is rejected.  If the columns
have full rank but ``z`` is not positive, and has more positive entries
than the passive set has columns, it becomes a warm start, as in BVLS
(Stark & Parker, *Comput. Stat.* 10, 1995) and FNNLS (Bro & De Jong,
*J. Chemometrics* 11, 1997): the factor is cleared; the columns with
``z_j > 0`` are appended in order of decreasing ``z_j``, a refused one
staying free; then, until every coefficient of the least-squares
solution on the passive columns is positive, each nonpositive one is
dropped and the rest re-solved.  The iteration goes on from that point.
No step is taken toward the solution from the iterate before: from ``u =
0`` the first negative coefficient would empty the passive set.  The
columns with the largest ``z_j`` are the likeliest to stay, so appending
them first puts the drops late in the factor, where
:meth:`_PassiveFactor.keep` re-factors a short tail.

The measurements behind these choices replay the NNLS calls of the
benchmark workloads (``tools/nnls_replay.py``, seed 11 unless named).
On the ``(128, 128)`` Farkas systems of ``clp_grid`` the warm start took
the mean outer iterations from 91 to 18, the ``keep`` calls from 15 to 8
and the time per call from 8.0 to 4.0 ms, with the same supports;
appended in index order it cost 22 % more per call.  On ``farkas_batch``
the time per call did not move; the warm start at iteration 2 (without
the eligibility test) would have cost 24 % more, at iteration 3 13 % and
at iteration 4 4 %: most small systems end before iteration 5.  A warm
start from no more columns than the passive set rarely saves an
iteration: on the ``(5, 5)`` to ``(6, 6)`` systems of ``farkas_batch``
seed 2311, 158 of 234 warm starts were of that kind, they added 276
outer iterations, and the slowest calls of the workload were among them,
a ``(6, 6)`` system going from 5 iterations to 10.

In exact arithmetic every outer iteration strictly decreases the residual
whichever eligible index enters (it gets a positive coefficient), so no
passive set recurs and the iteration terminates: unlike the simplex method,
NNLS needs no Bland rule.  In floating point an outer iteration can fail
to: an index whose dual value lies just above ``STATIONARITY_TOL`` enters
on roundoff, the least-squares step gives it a non-positive coefficient,
and it leaves again, returning to the iterate it started from or to one
that differs from it by roundoff.  The same indices would then enter again until
the iteration cap.  So an outer iteration that does not bring the squared
residual below its smallest value so far rejects its entering index, and
the eligible index with the next largest dual value is tried (Lawson &
Hanson's rule for a candidate whose coefficient is not positive).  The
rejections are cleared whenever the residual falls.  When every eligible
index is rejected the iterate is returned, and ``kkt_residual`` reports the
largest dual value left over the free indices.  The warm start runs at
most once, and its point may fit ``b`` worse than the iterate it replaces,
so the smallest squared residual so far is reset to its own; every later
outer iteration lowers the residual below that or is rejected, so no
passive set recurs after it.  The iteration cap still guards the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .tolerances import BLOCKING_TIE_TOL, STATIONARITY_TOL

__all__ = ["NNLSResult", "nnls"]

_EPS = np.finfo(float).eps
_ITERATIONS_PER_SIZE = 100  # the cap on outer iterations, per row and column of M
_WARM_START_ITERATION = 5  # the outer iteration of the second dense attempt


@dataclass
class NNLSResult:
    u: np.ndarray
    residual_norm: float
    iterations: int
    kkt_residual: float


def nnls(M, b):
    """Minimize ``||M u - b||_2`` over ``u >= 0``, for an ``(m, k)`` matrix
    ``M`` and an ``(m,)`` vector ``b``.

    An index is eligible to enter while its entry of the dual vector
    ``M^T (b - M u)`` is above ``STATIONARITY_TOL``, and the iteration stops
    after ``_ITERATIONS_PER_SIZE * (k + m)`` outer iterations.

    Returns
    -------
    NNLSResult
        ``u`` is exactly nonnegative.  ``kkt_residual`` is the largest
        positive entry of the dual vector over the free indices at the
        returned point: zero when the KKT conditions hold to working
        precision, and above ``STATIONARITY_TOL`` when every index left
        eligible was rejected, on roundoff or as a dependent column.

    Raises
    ------
    SolverFailure
        If the iteration cap trips, or if the least-squares coefficients
        or the squared residual are not finite (data near the overflow
        threshold).  The iterate is attached to ``detail["u"]`` and the
        largest free dual value to ``detail["kkt"]``.
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
    cap = _ITERATIONS_PER_SIZE * (k + m)

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
        if not candidates[j] > STATIONARITY_TOL:
            break
        iterations += 1
        if iterations > cap:
            raise SolverFailure("NNLS iteration cap exceeded", detail={"u": u, "kkt": _kkt(w, ~passive)})
        # The two dense attempts of the module docstring.
        if not rejected and 2 < k <= m and (
            iterations == _WARM_START_ITERATION
            or iterations == 2 and (w[~passive] > STATIONARITY_TOL).all()
        ):
            z = _dense_solution(M, b, factor.tol)
            if z is not None and (z > 0).all():
                u, passive[:] = z, True
                r = b - M @ u
                rr = r @ r
                break
            if (
                z is not None
                and iterations == _WARM_START_ITERATION
                and np.count_nonzero(z > 0) > len(factor.cols)
            ):
                order = [i for i in np.argsort(-z, kind="stable").tolist() if z[i] > 0]
                u, passive = _fit_columns(factor, order)
                r = b - M @ u
                rr = best = r @ r
                w = M.T @ r
                continue
        if not factor.append(j):
            rejected.append(j)  # a dependent column is refused and rejected
            continue
        passive[j] = True

        while True:
            cols, z_cols = factor.solve()
            z = np.zeros(k)
            z[cols] = z_cols
            if (z_cols > 0).all():
                break
            # Step toward z until the first passive component hits zero.
            # An index with u = z = 0 blocks at once: its ratio is 0, not 0/0.
            blocking = np.flatnonzero(passive & (z <= 0))
            if not blocking.size:
                # Only a coefficient that is not a number neither passes nor blocks.
                raise SolverFailure(
                    "NNLS least-squares coefficients are not finite", detail={"u": u, "kkt": _kkt(w, ~passive)}
                )
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

    if not math.isfinite(rr):
        raise SolverFailure("NNLS residual is not finite", detail={"u": u, "kkt": _kkt(w, ~passive)})
    return NNLSResult(
        u=u,
        residual_norm=math.sqrt(rr),
        iterations=iterations,
        kkt_residual=_kkt(w, ~passive),
    )


def _dense_solution(M, b, tol):
    """The unconstrained least-squares minimizer, if the columns of ``M``
    pass the factor's dependence check, else None.

    One QR factor of ``[M | b]`` gives ``R`` and ``Q^T b`` together."""
    k = M.shape[1]
    R = np.linalg.qr(np.column_stack([M, b]), mode="r")
    diag = np.abs(np.diagonal(R[:, :k]))
    if diag.min() <= tol * diag.max():
        return None
    return np.linalg.solve(R[:k, :k], R[:k, k])


def _fit_columns(factor, order):
    """The warm start: ``(u, passive)`` from the columns ``order``, in order.

    The factor is cleared and each column appended, a refused one staying
    free; then each nonpositive coefficient is dropped and the rest
    re-solved until every coefficient is positive.  No step is taken from
    the previous iterate: from ``u = 0`` the first negative coefficient
    would empty the passive set."""
    k = factor.M.shape[1]
    passive = np.zeros(k, dtype=bool)
    factor.keep(passive)
    for j in order:
        passive[j] = factor.append(j)
    cols, z_cols = factor.solve()
    while not (z_cols > 0).all():
        passive[cols] = z_cols > 0
        factor.keep(passive)
        cols, z_cols = factor.solve()
    u = np.zeros(k)
    u[cols] = z_cols
    return u, passive


def _kkt(w, free):
    """The largest positive dual value over the free indices, or zero."""
    return float(w[free].max(initial=0.0))


class _PassiveFactor:
    """Thin QR factor ``M[:, cols] = Q R`` of the passive columns.

    ``cols`` lists the passive indices in the order they entered.  ``Q``,
    the inverse ``Rinv`` of the upper triangular ``R`` and ``qtb = Q^T b``
    are kept in buffers of ``min(m, k)`` columns, of which the first
    ``len(cols)`` are in use; ``diag`` holds the magnitudes of the diagonal
    entries of ``R``, and ``dmin`` and ``dmax`` their extremes.  A column
    that would make the factor numerically dependent, or exceed ``min(m,
    k)`` columns, is refused by :meth:`append`, so the factored columns are
    always all the passive ones.
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
        """Add column ``j`` by Gram-Schmidt with one re-orthogonalization,
        and return whether it was added.

        With ``M[:, j] = Q r + rho q``, the new column of ``R`` is
        ``(r, rho)`` and that of its inverse is ``(-Rinv r / rho, 1 / rho)``,
        the recurrence by which LAPACK's ``trti2`` inverts a triangular
        matrix.  The column is refused, and the factor left untouched, when
        the factor already has ``min(m, k)`` columns or when ``rho`` would
        fail the dependence test ``dmin <= eps max(m, k) dmax``.
        """
        n = len(self.cols)
        if n == self.qtb.size:
            return False
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
            return False
        self.cols.append(j)
        self.diag.append(rho)
        self.dmin, self.dmax = dmin, dmax
        q = v / rho
        self.Q[:, n] = q
        self.qtb[n] = q @ self.b
        if n:
            self.Rinv[:n, n] = (self.Rinv[:n, :n] @ r) / -rho
        self.Rinv[n, n] = 1.0 / rho
        return True

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
        optimum, so one Newton step ``X + X (I - T X)`` squares it away.

        The downdate is not tested for dependence again.  A surviving
        column's diagonal entry is its distance from the span of the kept
        columns before it, which are fewer than before, so it cannot shrink,
        and ``T^{-1}`` comes from the kept ``Rinv`` and the Newton step,
        dividing by nothing.  Only ``dmax`` can grow, and that reflects the
        scale of the columns, not their dependence; ``dmin`` and ``dmax``
        are refreshed for the next :meth:`append`.
        """
        n = len(self.cols)
        k = next((i for i, j in enumerate(self.cols) if not passive[j]), n)
        pos = [i for i in range(k, n) if passive[self.cols[i]]]
        self.cols = [j for j in self.cols if passive[j]]
        tail = self.cols[k:]
        diag = self.diag[:k]
        if tail:
            P = self.Q[:, :n].T @ self.M[:, tail]
            U, T = np.linalg.qr(P[k:])
            diag += np.abs(np.diagonal(T)).tolist()
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

    def solve(self):
        """The passive indices and the least-squares coefficients on them."""
        n = len(self.cols)
        return self.cols, self.Rinv[:n, :n] @ self.qtb[:n]
