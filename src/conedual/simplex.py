"""Dense two-phase simplex for standard-form linear programs.

Solves ``min c^T x  subject to  A x = b, x >= 0`` on a dense tableau.
Bland's rule (smallest eligible index enters, smallest basic index breaks
ratio ties) is used in both phases, so the iteration terminates on
degenerate problems without cycling.  Intended for desk-scale instances;
every pivot is one vectorized update of the tableau rows from the first
row with a nonzero entry in the pivot column to the cost row, the last:
the rows above it would be left unchanged.

Phase one starts from a slack crash basis (Bixby, "Implementing the
simplex method: the initial basis", ORSA J. Comput., 1992): after the rows
with ``b < 0`` are negated, a row that has a column equal to its unit
vector starts with that column basic (the smallest such index), and only
the other rows get an artificial.  When every row has one, phase one does
nothing.

A leaving row is accepted only where its entry exceeds ``PIVOT_TOL``
times the largest positive entry of the entering column (and at least
``PIVOT_TOL``): only positive entries block the step, so an entry that is
roundoff beside a large blocking one is never pivoted on, whatever the
scale of the data.  The ratio test clamps right-hand sides at 0, so a row
whose basic value roundoff drove below zero blocks at ratio 0 instead of
being driven further negative.  Phase one minimizes a sum of artificials,
which is bounded below, so an entering column that no row blocks is
roundoff there: the next candidate in Bland's order is tried, and phase
one ends when none has a blocking row.  Its objective then decides
feasibility.  An artificial left basic after phase one is driven out on
the largest entry of its row; a row with no entry above ``PIVOT_TOL`` is
dropped as redundant.

An optimal result carries the final reduced costs ``d = c - A^T lambda``.
``lambda``, the multipliers of the optimal basis on the rows as given
(before any sign flip; a dropped row has multiplier 0), is an optimizer of
the dual LP ``max b^T lambda, A^T lambda <= c``: ``d >= 0`` holds to
``PIVOT_TOL``.  Where ``A`` has the column ``-e_i`` at zero cost, ``d``
holds ``lambda_i`` in that column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .tolerances import CLAMP_TOL, PHASE_ONE_TOL, PIVOT_TOL, RATIO_TIE_TOL

__all__ = ["SimplexResult", "simplex_solve"]


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    basis: list | None
    iterations: int
    phase1_objective: float = 0.0
    reduced_costs: np.ndarray | None = None


def _clamp(v):
    """``v`` with entries below ``CLAMP_TOL``, roundoff-sized or negative, read as 0."""
    return np.where(v < CLAMP_TOL, 0.0, v)


def _pivot(tableau, basis, row, col):
    piv = tableau[row, col]
    tableau[row] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero factor would compute t - 0 p = t, so only the run from
    # the first nonzero factor on is updated; the cost row is the last row.
    nonzero = factors.nonzero()[0]
    if nonzero.size:
        lo = nonzero[0]
        tableau[lo:] -= factors[lo:, None] * tableau[row]
    basis[row] = col


def _bland_leaving(tableau, basis, col, n_rows):
    column = tableau[:n_rows, col]
    # Relative pivot test: only positive entries block the step, so an entry
    # that is roundoff beside the column's largest positive one is no pivot.
    cand = (column > PIVOT_TOL * column.max(initial=1.0)).nonzero()[0]
    if cand.size == 0:
        return None
    # A right-hand side that roundoff drove below zero blocks at ratio 0:
    # skipping its row would let the step drive it further negative.
    ratios = np.maximum(tableau[cand, -1], 0.0) / column[cand]
    ties = cand[ratios <= ratios.min() + RATIO_TIE_TOL]
    # Bland tie-break: leave the row whose basic variable has smallest index.
    return int(ties[basis[ties].argmin()])


def _run_phase(tableau, basis, n_rows, n_eligible, cap, iteration_count, bounded):
    """Pivot until no column below ``n_eligible`` has a negative reduced cost.

    The smallest such column enters.  If no row blocks it, the phase ends
    ``"unbounded"``, unless its objective is ``bounded`` below: then the
    column's reduced cost is roundoff, the next candidate in Bland's order
    is tried, and the phase ends ``"optimal"`` when no candidate has a
    blocking row.
    """
    while True:
        for col in (tableau[-1, :n_eligible] < -PIVOT_TOL).nonzero()[0]:
            row = _bland_leaving(tableau, basis, col, n_rows)
            if row is not None:
                break
            if not bounded:
                return "unbounded", iteration_count
        else:
            return "optimal", iteration_count
        iteration_count += 1
        if iteration_count > cap:
            raise SolverFailure(
                "simplex iteration cap exceeded (cycling guard)",
                detail={"basis": basis.tolist(), "iterations": iteration_count},
            )
        _pivot(tableau, basis, row, col)


def _crash_basis(A):
    """Per row, the smallest column of ``A`` equal to that row's unit
    vector, or -1 where there is none."""
    if A.shape[1] == 0:
        return np.full(A.shape[0], -1)
    unit = (A == 1.0) & ((A != 0.0).sum(axis=0) == 1)
    return np.where(unit.any(axis=1), unit.argmax(axis=1), -1)


def _nonnegative_rhs(A, b):
    """``A x = b`` with the rows where ``b < 0`` negated."""
    sign = np.where(b < 0, -1.0, 1.0)
    return A * sign[:, None], b * sign


def simplex_solve(c, A, b):
    """Two-phase simplex for ``min c^T x, A x = b, x >= 0``.

    Returns a :class:`SimplexResult`; ``status`` is ``"infeasible"`` when
    phase one terminates with an artificial objective above
    ``PHASE_ONE_TOL (1 + max |b|)``, ``"unbounded"`` when phase two finds
    an improving ray.  Only an optimal result carries ``x`` and the reduced
    costs.

    Raises :class:`SolverFailure` when the pivots exceed
    ``200 (m + n + 10)``, with the current basis attached.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("non-finite entries in LP data")
    cap = 200 * (m + n + 10)

    # Normalize to b >= 0 so the starting basis is feasible.
    A, b = _nonnegative_rhs(A, b)

    # Phase one tableau: [A | one artificial column per uncrashed row | b].
    basis = _crash_basis(A)
    art = (basis < 0).nonzero()[0]
    n_art = art.size
    tableau = np.zeros((m + 1, n + n_art + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    iterations = 0
    phase1_obj = 0.0
    if n_art:
        basis[art] = n + np.arange(n_art)
        tableau[art, basis[art]] = 1.0
        # Reduced artificial costs: subtract each artificial row from the cost row.
        tableau[-1, :n] = -A[art].sum(axis=0)
        tableau[-1, -1] = -b[art].sum()
        # The sum of artificials is bounded below by 0, so phase one ends "optimal".
        _, iterations = _run_phase(tableau, basis, m, n + n_art, cap, 0, bounded=True)

        phase1_obj = float(-tableau[-1, -1])
        scale = 1.0 + float(np.abs(b).max(initial=0.0))
        if phase1_obj > PHASE_ONE_TOL * scale:
            return SimplexResult(
                status="infeasible",
                x=None,
                objective=None,
                basis=None,
                iterations=iterations,
                phase1_objective=phase1_obj,
            )

        # Drive artificials out of the basis, each on the largest entry of its
        # row; rows where none exceeds the pivot tolerance are redundant.
        keep = np.ones(m, dtype=bool)
        for i in (basis >= n).nonzero()[0]:
            row = np.abs(tableau[i, :n])
            if row.max(initial=0.0) <= PIVOT_TOL:
                keep[i] = False
            else:
                _pivot(tableau, basis, i, int(row.argmax()))
                iterations += 1
        # Phase two drops the artificial columns: b moves into the first.
        tableau[:, n] = tableau[:, -1]
        tableau = tableau[np.append(keep, True), : n + 1]
        basis = basis[keep]

    m2 = basis.size
    tableau[-1, :n] = c
    tableau[-1, -1] = 0.0
    for i in c[basis].nonzero()[0]:
        tableau[-1] -= tableau[-1, basis[i]] * tableau[i]

    status, iterations = _run_phase(tableau, basis, m2, n, cap, iterations, bounded=False)
    if status == "unbounded":
        return SimplexResult(
            status="unbounded",
            x=None,
            objective=None,
            basis=basis.tolist(),
            iterations=iterations,
            phase1_objective=phase1_obj,
        )

    x = np.zeros(n)
    x[basis] = _clamp(tableau[:m2, -1])
    return SimplexResult(
        status="optimal",
        x=x,
        objective=float(c @ x),
        basis=basis.tolist(),
        iterations=iterations,
        phase1_objective=phase1_obj,
        reduced_costs=tableau[-1, :n].copy(),
    )
