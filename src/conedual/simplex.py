"""Dense self-dual parametric simplex for inequality-form linear programs.

Solves ``min c^T x  subject to  A x >= b, x >= 0`` on a Tucker tableau
(Dantzig, *Linear Programming and Extensions*, 1963; Vanderbei, *Linear
Programming*, ch. 7).  With the surplus ``w = A x - b`` every row reads
``basic = sum_j t_ij nonbasic_j + t_i,n + mu t_i,n+1`` and the cost row
reads the reduced costs the same way::

    [[A,            -b, 1 + max |b|],
     [c,             0, 0],
     [1 + max |c|,   0, 0]]

so ``mu`` perturbs each side in its own units and has none itself.  The
slack basis (``w`` basic, ``x`` nonbasic) is optimal once ``mu`` is at
least every ``b_i / (1 + max |b|)`` and ``-c_j / (1 + max |c|)``, so below
1.  Each step lowers ``mu`` to the smallest value at which the basis stays
optimal.  Where a reduced cost reaches zero there, its column enters on a
primal ratio test; where a basic value does, its row leaves on a dual
ratio test; entries that reach zero within ``RATIO_TIE_TOL`` of the same
``mu`` tie, and the smallest variable label moves.  Primal and dual
infeasibility are treated alike, so there is no phase one: the basis is
optimal for the problem as given once ``mu <= MU_TOL``.  A row that no
column can raise proves ``A x >= b`` infeasible.  A column that no row
blocks proves the LP dual infeasible; the cost rows are then zeroed and
the steps go on from the same basis, which decides between a feasible (so
``"unbounded"``) and an infeasible problem.

A pivot entry is accepted only where it exceeds ``PIVOT_TOL`` times the
largest entry of its sign in the row or column (and at least
``PIVOT_TOL``), so an entry that is roundoff beside a large one is never
pivoted on, whatever the scale of the data.  Ratio tests clamp basic
values and reduced costs at 0, so one that roundoff drove below zero
blocks at ratio 0 instead of being driven further negative; ratios within
``RATIO_TIE_TOL`` of the smallest tie, and the smallest variable index
among them is taken.  Every pivot is one vectorized update of the rows
from the first one with a nonzero entry in the pivot column on.  No pivot
rule here is proved not to cycle: on a degenerate LP, termination rests on
the iteration cap, past which :class:`SolverFailure` is raised.

An optimal result carries ``x`` and the row multipliers ``y``, an
optimizer of the dual LP ``max b^T y, A^T y <= c, y >= 0``: ``y_i`` is the
final reduced cost of the surplus ``w_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .tolerances import CLAMP_TOL, MU_TOL, PIVOT_TOL, RATIO_TIE_TOL

__all__ = ["SimplexResult", "simplex_solve"]


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    y: np.ndarray | None
    objective: float | None
    iterations: int


def _clamp(v):
    """``v`` with entries below ``CLAMP_TOL``, roundoff-sized or negative, read as 0."""
    return np.where(v < CLAMP_TOL, 0.0, v)


def _pivot(t, r, s):
    """Exchange the basic variable of row ``r`` with the nonbasic one of
    column ``s`` in the Tucker tableau ``t``."""
    piv = t[r, s]
    row = t[r] / piv
    factors = t[:, s].copy()
    # Rows with a zero factor would compute t - 0 p = t, so only the run from
    # the first nonzero factor on is updated (row r is one of them).
    lo = factors.nonzero()[0][0]
    t[lo:] -= factors[lo:, None] * row
    t[:, s] = factors / piv
    t[r] = -row
    t[r, s] = 1.0 / piv


def _ratio(entries, value, labels):
    """The position of the step that ``entries`` (positive where they
    count) take against ``value`` (clamped at 0), smallest ratio first and
    the smallest label among ties, or None when no entry counts."""
    cand = (entries > PIVOT_TOL * entries.max(initial=1.0)).nonzero()[0]
    if cand.size <= 1:
        return cand[0] if cand.size else None
    ratios = np.maximum(value[cand], 0.0) / entries[cand]
    ties = cand[ratios <= ratios[ratios.argmin()] + RATIO_TIE_TOL]
    return ties[labels[ties].argmin()]


def simplex_solve(c, A, b):
    """Self-dual simplex for ``min c^T x, A x >= b, x >= 0``.

    Returns a :class:`SimplexResult`; ``status`` is ``"infeasible"`` when
    ``A x >= b, x >= 0`` has no solution and ``"unbounded"`` when it has
    one but the objective is unbounded below.  Only an optimal result
    carries ``x`` and ``y``.

    Raises :class:`SolverFailure` when the pivots exceed
    ``200 (m + n + 10)``, or when the final tableau is not finite.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    t = np.zeros((m + 2, n + 2))
    t[:m, :n] = A
    t[:m, n] = -b
    t[:m, n + 1] = 1.0 + np.abs(b).max(initial=0.0)
    t[m, :n] = c
    t[m + 1, :n] = 1.0 + np.abs(c).max(initial=0.0)
    if not np.isfinite(t).all():
        raise ValueError("non-finite entries in LP data")
    cap = 200 * (m + n + 10)
    # Variable labels, x_j is j and w_i is n + i, nonbasic by column and
    # then basic by row.
    labels = np.arange(n + m)
    status = "optimal"
    iterations = 0
    while True:
        # Per column and then per row, the value and the mu coefficient of
        # its reduced cost or basic value: mu falls to the largest point
        # where one of them reaches zero.
        value, coef = np.concatenate((t[m:, :n].T, t[:m, n:])).T
        rising = (coef > 0.0).nonzero()[0]
        if rising.size == 0:
            break
        ratios = value[rising] / coef[rising]
        mu = -ratios.min()
        if not mu > MU_TOL:  # also a NaN of an overflowed tableau
            break
        ties = rising[ratios <= RATIO_TIE_TOL - mu]
        k = ties[labels[ties].argmin()] if ties.size > 1 else ties[0]
        at_mu = value + mu * coef
        if k < n:
            s = k
            r = _ratio(-t[:m, s], at_mu[n:], labels[n:])
            if r is None:
                # The LP dual is infeasible: go on with zero costs to decide
                # whether A x >= b, x >= 0 is.
                status = "unbounded"
                t[m:] = 0.0
                continue
        else:
            r = k - n
            s = _ratio(t[r, :n], at_mu[:n], labels[:n])
            if s is None:
                status = "infeasible"
                break
        iterations += 1
        if iterations > cap:
            raise SolverFailure("simplex iteration cap exceeded (cycling guard)", detail={"iterations": iterations})
        _pivot(t, r, s)
        labels[s], labels[n + r] = labels[n + r], labels[s]

    if not np.isfinite(t).all():
        raise SolverFailure("simplex tableau is not finite", detail={"iterations": iterations})
    if status != "optimal":
        return SimplexResult(status=status, x=None, y=None, objective=None, iterations=iterations)
    values = np.zeros(n + m)
    values[labels[n:]] = t[:m, n]
    costs = np.zeros(n + m)
    costs[labels[:n]] = t[m, :n]
    x = _clamp(values[:n])
    return SimplexResult(status="optimal", x=x, y=_clamp(costs[n:]), objective=float(c @ x), iterations=iterations)
