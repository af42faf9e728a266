"""Primal-dual conic pairs, a desk-scale solver, and verification pipelines.

The pair solved here is

    primal:  min <c, x>   s.t.  A x - b in T*,  x in S
    dual:    max <y, b>   s.t.  -A^T y + c in S*,  y in T

Note the orientation: the primal slack lives in the *dual* of the cone that
constrains the dual variable.

The pair is symmetric: the dual of ``(A, b, c, S, T)`` is the primal of the
transposed pair ``(-A^T, -c, -b, T, S)``, whose operator carries the two
pairings swapped (:meth:`ConicProblem.transpose`), and the one sign map
between them is

    dual value = -(primal value of the transposed pair),

with the dual optimizer ``y`` the primal optimizer of the transposed pair.
So only the primal half of each computation is written here; the dual half
is the same code on ``pb.transpose()``.  The primal is reduced to an
inequality-form linear program through the generator parameterization
``x = G_S u`` (``u >= 0``) with the conic constraint ``A x - b in T*``
written as ``G_T^T (A x - b) >= 0`` through the generators of ``T`` itself,
and solved by the self-dual simplex of :mod:`conedual.simplex`.  The LP of
``pb.transpose()`` is the LP dual of this one, so one optimal simplex run
gives both optimizers: ``x`` from its basic values and ``y`` from its row
multipliers.  ``solve`` poses and runs the LP with fewer nonnegative
right-hand sides, and the LP of the other side too only on a tie or when
the first is not optimal; the rule sees only the two right-hand sides, so
a pair and its transpose still give the same report with the sides
exchanged.
Optimal values follow the usual conventions: ``+inf`` for an infeasible
primal, ``-inf`` for an infeasible dual, and the opposite infinities for
unbounded problems.

Two verification pipelines re-check the strong-duality statements:

* ``verify_interior_optima`` -- when a problem's returned optimizer lies in
  the interior of its cone (and the value is finite), the *other* side's
  equality system must be solvable and the duality gap must vanish.
* ``verify_strict_feasibility`` -- when both cones admit strictly feasible
  points whose operator images also stay in the dual cones and both values
  are finite, the gap must vanish; the solvability of the two equality
  systems is reported, not asserted (it need not hold).

Both raise :class:`TheoremViolation` when a verified precondition holds but
the asserted conclusion fails at tolerance; unmet preconditions are
reported as notes, never as violations.

Both pipelines share one ``solve`` per pair.  ``solve`` keeps the optimizers
and LP statuses of the last pair it solved, keyed by a weak reference to the
problem object, so the ``solve`` inside
``verify_strict_feasibility`` that follows ``verify_interior_optima`` on the
same object runs no simplex.  Transposed pairs are built from the validated
parts of their source without repeating its checks.  Neither pipeline does
work that cannot change its verdict: the interior pipeline checks the
returned optimizers as solutions of the equality systems before it starts
a Farkas solve, and the strict pipeline searches for strict members only
when ``-b in T*`` and ``c in S*``, which both strict sets need.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .cones import (
    ConeSpec,
    _by_generators,
    _check_pairing_dual,
    contains,
    cone_from_dict,
    cone_to_dict,
    dual_distance,
    interior_contains,
    is_solid,
)
from .errors import TheoremViolation
from .farkas import verified_solution
from .linops import OperatorSpec, PairingSpec, _as_array, _as_count, _as_object, adjoint_apply, apply, pairing, pairing_norm, transposed
from .simplex import simplex_solve
from .tolerances import DECISION_TOL, INTERIOR_TOL, STRICT_MEMBER_MARGIN, STRICT_TOL

__all__ = [
    "ConicProblem",
    "ReportFlags",
    "SolveReport",
    "feasible_primal",
    "feasible_dual",
    "solve",
    "complementarity",
    "verify_interior_optima",
    "verify_strict_feasibility",
    "problem_to_dict",
    "problem_from_dict",
    "report_to_dict",
]


@dataclass(frozen=True)
class ConicProblem:
    """The data ``(A, b, c, S, T)`` of a primal-dual conic pair.

    The pairings of ``X`` and ``Y`` are ``A``'s.  Construction checks that
    ``b`` and ``c`` are finite vectors and that the dimensions match, and
    refuses non-uniform weights on a cone other than an orthant or a
    product of orthants, where the Euclidean dual cone is not the dual in
    the pairing.  Neither cone needs an interior: ``T = generated([I, -I])``
    has ``T* = {0}``, so ``A x - b in T*`` reads ``A x = b``.
    A problem is treated as immutable after construction:
    ``solve`` recognizes a repeat call by the object alone, so changing its
    arrays in place afterwards leaves stale optimizers behind.  Build a new
    problem instead.
    """

    A: OperatorSpec
    b: np.ndarray
    c: np.ndarray
    S: ConeSpec
    T: ConeSpec

    def __post_init__(self):
        b = _as_array(self.b, "b", 1)
        c = _as_array(self.c, "c", 1)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if self.A.codomain_dim != b.shape[0]:
            raise ValueError("b does not match the operator codomain")
        if self.A.domain_dim != c.shape[0]:
            raise ValueError("c does not match the operator domain")
        if self.S.dim != self.A.domain_dim:
            raise ValueError("S does not match the operator domain")
        if self.T.dim != self.A.codomain_dim:
            raise ValueError("T does not match the operator codomain")
        for name, cone, p in (("S", self.S, self.A.pairing_domain), ("T", self.T, self.A.pairing_codomain)):
            _check_pairing_dual(cone, p, name)

    def operator(self):
        """The operator ``A``, which carries the pairings."""
        return self.A

    def transpose(self):
        """The pair ``(-A^T, -c, -b, T, S)``, whose primal is this pair's
        dual.

        The operator is :func:`~conedual.linops.transposed`, so
        ``pb.transpose().transpose()`` reproduces ``pb`` bit for bit.  The
        construction checks are not run again: the dimensions are this
        pair's, swapped, and the cones and pairings are the same
        already-validated objects.
        """
        pt = object.__new__(ConicProblem)
        # Fill the frozen fields directly, bypassing __post_init__.
        pt.__dict__.update(
            A=transposed(self.A),
            b=-self.c,
            c=-self.b,
            S=self.T,
            T=self.S,
        )
        return pt


@dataclass
class ReportFlags:
    primal_interior_opt: bool = False
    dual_interior_opt: bool = False
    strict_primal_nonempty: bool | None = None
    strict_dual_nonempty: bool | None = None
    systems_solved: tuple = (False, False)


@dataclass
class SolveReport:
    v_primal: float
    v_dual: float
    x_star: np.ndarray | None
    y_star: np.ndarray | None
    gap: float
    comp_residuals: tuple | None
    flags: ReportFlags
    status_primal: str
    status_dual: str
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def feasible_primal(pb, x, tol=DECISION_TOL):
    """``x in S`` and ``A x - b in T*``."""
    return contains(pb.S, x, tol) and dual_distance(pb.T, apply(pb.A, x) - pb.b) <= tol


def feasible_dual(pb, y, tol=DECISION_TOL):
    """``y in T`` and ``c - A^T y in S*``."""
    return feasible_primal(pb.transpose(), y, tol)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


# The primal value when no optimizer is attained; the dual value is its negation.
_UNATTAINED_VALUE = {"infeasible": math.inf, "unbounded": -math.inf}


def _standard_form(pb):
    """``(cost, M, beta)`` of the LP ``min <c, G_S u>`` s.t. ``M u >= beta``,
    ``u >= 0``, with ``M = G_T^T A G_S`` and ``beta = G_T^T b``: the rows
    say ``A G_S u - b in T*`` through the generators of ``T``.  With
    Euclidean pairings the LP of ``pb.transpose()`` has the matrix ``G_S^T
    (-A^T) G_T``, this one's transposed and negated: each LP is the other's
    LP dual.  An orthant's identity generators are not multiplied, so the
    arrays can be the problem's own: callers only read them."""
    weighted_c = pb.A.pairing_domain.weight_vector(pb.S.dim) * pb.c
    rows = _by_generators(pb.T, _by_generators(pb.S, pb.A.matrix, "right"), "transpose")
    return _by_generators(pb.S, weighted_c, "transpose"), rows, _by_generators(pb.T, pb.b, "transpose")


def _copy(x):
    return None if x is None else x.copy()


# ``(weakref to pb, x*, primal status, y*, dual status)`` of the
# last pair ``solve`` ran its linear programs on, or None.  It is replaced
# as a whole, so concurrent calls can miss it but never mix two entries.
_last_solve = None


def _optimizers(pb):
    """``(x*, y*, status)`` from one simplex run on the LP of ``pb`` (see
    :func:`_standard_form`); the optimizers are None unless it is optimal.

    ``x* = G_S u``.  With the row multipliers ``lambda`` of the LP,
    ``y* = W_Y^-1 G_T lambda``: then ``y* in T``, ``<y*, b> = lambda^T
    G_T^T b`` is the LP dual value, and ``G_S^T W_X (c - A^T y*)`` is the
    LP dual slack of ``u``, nonnegative at an optimal basis.
    """
    res = simplex_solve(*_standard_form(pb))
    if res.status != "optimal":
        return None, None, res.status
    y = _by_generators(pb.T, res.y) / pb.A.pairing_codomain.weight_vector(pb.T.dim)
    return _by_generators(pb.S, res.x), y, res.status


def _optimal_pair(pb):
    """``(x*, primal status, y*, dual status)`` from the LPs of ``pb`` and
    ``pb.transpose()``, running one of them where that settles both sides.

    The LP with fewer nonnegative right-hand sides runs first.  If it ends
    optimal, both sides are optimal and both optimizers come from it.  On
    a tie, or when it does not end optimal, the other LP runs too, and
    each side takes the optimizer and status of its own LP.  Only the LPs
    that run are posed.  The rule, the tie included, is what makes the
    report of ``pb.transpose()`` this one with the sides exchanged bit for
    bit: it sees only the two right-hand sides, which ``pb.transpose()``
    has the same (swapped), so the transposed pair runs the same LPs and
    reads each optimizer from the same run.
    """
    sides = (pb, pb.transpose())
    rows = [int((_by_generators(q.T, q.b, "transpose") >= 0).sum()) for q in sides]
    first = int(rows[1] < rows[0])
    own, other, status = _optimizers(sides[first])
    if status != "optimal" or rows[0] == rows[1]:
        other, _, other_status = _optimizers(sides[1 - first])
    else:
        other_status = status
    if first:
        return other, other_status, own, status
    return own, status, other, other_status


def solve(pb):
    """Solve both problems of the pair and assemble a :class:`SolveReport`.

    One simplex run usually settles both sides: the LP of the primal and
    the LP of ``pb.transpose()`` are each other's LP duals, so an optimal
    basis of either gives both optimizers, one from the basic values and
    the other from the row multipliers (see :func:`_optimal_pair`).  The
    dual is solved as the primal of ``pb.transpose()`` only when the two
    LPs tie on nonnegative right-hand sides or the first one is not
    optimal, so ``solve(pb.transpose())`` gives this report with the sides
    exchanged.  Only the LP that runs is posed.  Optimizers,
    when attained, are mapped back through the generators.  Interior flags
    classify the returned optimizers with margin ``INTERIOR_TOL``; points
    within the margin band count as boundary, and a cone without interior
    (see :func:`~conedual.cones.is_solid`: a slice, a rank-deficient
    generated cone, or a product with such a factor) has no interior
    optimizer.

    A repeat call on the same problem object takes copies of the optimizers
    and statuses of the previous call instead of solving the linear
    programs again; everything else in the report is computed afresh.  Only
    the last pair is remembered, and only by a weak reference.
    """
    global _last_solve
    notes = []

    memo = _last_solve
    if memo is None or memo[0]() is not pb:
        memo = _last_solve = (weakref.ref(pb), *_optimal_pair(pb))
    x_star, status_p, y_star, status_d = _copy(memo[1]), memo[2], _copy(memo[3]), memo[4]
    # A finite dual value is <y*, b>, which is -(the transposed primal
    # value) up to the sign of an exact zero: both are formed from one y*.
    p_x, p_y = pb.A.pairing_domain, pb.A.pairing_codomain
    v_primal = _UNATTAINED_VALUE[status_p] if x_star is None else pairing(p_x, pb.c, x_star)
    v_dual = -_UNATTAINED_VALUE[status_d] if y_star is None else pairing(p_y, y_star, pb.b)

    flags = ReportFlags()
    if x_star is not None:
        flags.primal_interior_opt = is_solid(pb.S) and interior_contains(pb.S, x_star, INTERIOR_TOL)
    if y_star is not None:
        flags.dual_interior_opt = is_solid(pb.T) and interior_contains(pb.T, y_star, INTERIOR_TOL)

    gap = v_primal - v_dual if math.isfinite(v_primal) and math.isfinite(v_dual) else math.nan
    comp = None
    if x_star is not None and y_star is not None:
        comp = complementarity(pb, x_star, y_star)
    return SolveReport(
        v_primal=float(v_primal),
        v_dual=float(v_dual),
        x_star=x_star,
        y_star=y_star,
        gap=float(gap),
        comp_residuals=comp,
        flags=flags,
        status_primal=status_p,
        status_dual=status_d,
        notes=notes,
    )


def complementarity(pb, x, y):
    """The slackness pair ``(<y, A x - b>, <c - A^T y, x>)``.

    Both are nonnegative for feasible pairs, their sum is the objective gap
    of the pair, and both vanish exactly at optimal pairs.
    """
    first = pairing(pb.A.pairing_codomain, y, apply(pb.A, x) - pb.b)
    second = pairing(pb.A.pairing_domain, pb.c - adjoint_apply(pb.A, y), x)
    return (float(first), float(second))


# ---------------------------------------------------------------------------
# Interior-optima pipeline
# ---------------------------------------------------------------------------


def verify_interior_optima(pb, tol=DECISION_TOL):
    """Check the strong-duality statement driven by interior optima.

    Preconditions are evaluated on the returned optimizers only, which
    ``solve`` returns only for an optimal LP, so their values are finite.
    When the dual optimizer is interior, the primal equality system
    ``A x = b, x in S`` must be solvable; symmetrically for the primal
    side.  When both preconditions hold the values must agree
    within ``tol * (1 + |v_primal|)``.  The solutions of the two systems
    are then optimal by weak duality: ``<c, x> = <y, A x> = <y, b>`` lies
    between the two optimal values.  The statement needs ``int T`` (resp.
    ``int S``) nonempty, so an optimizer on a slice is never interior and
    its side's precondition is not met.

    Each system is first tried at the optimizer ``solve`` returned: with
    ``y*`` interior, complementary slackness ``<y*, A x* - b> = 0`` forces
    ``A x* = b``, so ``x*`` is the candidate solution of the primal system
    (and ``y*`` of the dual one).  A fresh Farkas solve runs only when the
    optimizer fails the check (see :func:`~conedual.farkas.verified_solution`).
    The dual system is the primal system of ``pb.transpose()``.
    """
    report = solve(pb)
    flags = report.flags
    solved = []
    for q, witness, side, other, precond in (
        (pb, report.x_star, "primal", "dual", flags.dual_interior_opt),
        (pb.transpose(), report.y_star, "dual", "primal", flags.primal_interior_opt),
    ):
        if not precond:
            report.notes.append(f"precondition not met: {other} optimum not interior or not attained")
        elif verified_solution(q.A, q.b, q.S, tol=tol, witness=witness) is None:
            raise TheoremViolation(
                f"interior {other} optimum with finite value, but the {side} equality system "
                "has no verified solution",
                report=report,
            )
        solved.append(precond)

    if all(solved):
        scale = 1.0 + abs(report.v_primal)
        if abs(report.v_primal - report.v_dual) > tol * scale:
            raise TheoremViolation(
                f"interior optima on both sides but gap {report.gap:.3e} exceeds {tol:.1e} * {scale:.3e}",
                report=report,
            )
    flags.systems_solved = tuple(solved)
    return report


# ---------------------------------------------------------------------------
# Strict-feasibility pipeline
# ---------------------------------------------------------------------------


def _strict_member(pb):
    """Search for a strictly interior primal feasible point whose operator
    image also lies in the dual cone: ``x = G_S u`` with ``u >= 1``,
    ``A x - b in T*`` and ``A x in T*``.

    The rows are those of :func:`_standard_form`, ``M u >= max(G_T^T b,
    0)`` with ``M = G_T^T A G_S``: row by row they say ``M u >= G_T^T b``
    and ``M u >= 0``, which is ``A x - b in T*`` and ``A x in T*``.  The
    margin is fixed at 1 and substituted out: ``u = r + 1`` with ``r >=
    0``, so ``M 1`` moves to the right-hand side, and the point is ``G_S (r
    + 1)``.  What is left is a feasibility LP with zero
    cost.  No positive margin is lost: with ``A G u in T*``,
    ``t A G u - b = (A G u - b) + (t - 1) A G u in T*`` for ``t >= 1``, so
    the feasible set is closed under ``u -> t u`` and any positive margin
    scales up to 1.  A slice ``S`` needs no rows of its own, since its
    generators are its own rays.

    On ``pb.transpose()`` this is the dual search ``y = G_T v``,
    ``c - A^T y in S*``, ``-A^T y in S*``.  The rows are posed unscaled: where
    every ``A g`` vanishes in exact arithmetic, as for a slice whose only
    ray is its cut point, dividing by the largest entry of ``A G`` would
    turn roundoff into unit rows.  Returns the point or None.
    """
    cost, rows, beta = _standard_form(pb)
    res = simplex_solve(np.zeros_like(cost), rows, np.maximum(beta, 0.0) - rows.sum(axis=1))
    if res.status != "optimal":
        return None
    point = _by_generators(pb.S, res.x + 1.0)
    image = apply(pb.A, point)
    strict = interior_contains(pb.S, point, STRICT_MEMBER_MARGIN) and all(dual_distance(pb.T, z) <= STRICT_TOL for z in (image - pb.b, image))
    return point if strict else None


def _system_solved(pb, tol):
    """Whether ``A x = b, x in S`` of ``pb`` has a verified solution, once
    both strict sets of ``pb`` are known to be nonempty.

    For a solid ``T`` (see :func:`~conedual.cones.is_solid`; a slice, or a
    product with a slice factor, is not) the system is solvable
    iff ``b = 0`` (see :func:`verify_strict_feasibility`), so it is decided
    by the check of the witness 0 alone, ``||b|| <= 10 tol`` in ``Y``'s
    pairing, with no Farkas solve.  Otherwise the witness 0 is tried first
    and a Farkas solve follows when it fails.
    """
    if is_solid(pb.T):
        return pairing_norm(pb.A.pairing_codomain, pb.b) <= 10 * tol
    return verified_solution(pb.A, pb.b, pb.S, tol=tol, witness=np.zeros(pb.S.dim)) is not None


def verify_strict_feasibility(pb, tol=DECISION_TOL):
    """Check the strong-duality statement driven by strict feasibility.

    Pipeline: (0) check ``-b in T*`` and ``c in S*``; (1) find explicit
    strict members on both sides (interior, feasible, and with the pure
    operator image in the dual cone); (2) when both strict sets are
    nonempty and both optimal values are finite, the gap must vanish
    within ``tol``, and the solvability of both equality systems is
    reported in ``systems_solved``.  Only the gap check raises.

    Step (0) is a gate: both strict sets can be nonempty only if
    ``-b in T*`` and ``c in S*``.  Let ``x0`` and ``y0`` be strict members.
    ``A x0 in T*`` and ``y0 in T`` give ``<y0, A x0> >= 0``;
    ``-A^T y0 in S*`` and ``x0 in S`` give ``<y0, A x0> = <A^T y0, x0> <= 0``.
    So ``<y0, A x0> = 0``: ``A x0`` lies in ``T*`` and is orthogonal to
    ``y0``, and ``-A^T y0`` lies in ``S*`` and is orthogonal to ``x0``.  For
    ``y0`` in the relative interior of ``T``, the members of ``T*``
    orthogonal to ``y0`` form the lineality space of ``T*`` (they vanish on
    all of ``T``), so ``-A x0 in T*`` and ``-b = (A x0 - b) + (-A x0) in T*``;
    in the same way ``c = (c - A^T y0) + A^T y0 in S*``.  Relative interiors
    make this hold for slice cones too.  When the gate fails, the verdict
    is vacuous: the note names the failed condition, and the strict flags
    stay None ("not searched").  The gate uses the tolerance the strict
    members are checked at.

    The gate also settles the rest.  ``x = 0`` and ``y = 0`` are feasible
    (``-b in T*``, ``c in S*``) and not strict members, so boundary feasible
    points need no search.  On every feasible pair ``<c, x> >= 0`` and
    ``<y, b> <= 0``, so ``x = y = 0`` are optimal and both values are 0; the
    gap check re-checks the values the LPs returned.  The equality systems
    need not be solvable.  By the argument above, ``A^T y0`` lies in the
    lineality space of ``S*``, which vanishes on ``S`` (for solid cones,
    ``A x0 = 0`` and ``A^T y0 = 0``).  If ``A x = b`` for some ``x in S``,
    then ``<y0, b> = <A^T y0, x> = 0``, and ``y0`` in the interior of ``T``
    with ``-b in T*`` forces ``b = 0``.  So for a solid ``T`` the primal
    system is solvable iff ``b = 0``, and for a solid ``S`` the dual system
    iff ``c = 0``; for a slice, ``b`` in the lineality space of ``T*`` is
    only necessary.  ``A = 0``, ``b = 0``, ``c = (1, 1)`` on orthants meets
    every precondition with a solvable primal and an unsolvable dual
    system.  So solvability is reported in ``systems_solved``, not
    asserted.  Each system is decided on its own side, the dual system as
    the primal system of ``pb.transpose()`` (see :func:`_system_solved`).
    """
    report = solve(pb)
    failed = [
        name
        for name, ok in (
            ("-b in T*", dual_distance(pb.T, -pb.b) <= STRICT_TOL),
            ("c in S*", dual_distance(pb.S, pb.c) <= STRICT_TOL),
        )
        if not ok
    ]
    if failed:
        report.notes.append("precondition not met: strict sets not searched, " + " and ".join(failed) + " fails")
        return report

    flags = report.flags
    sides = (pb, pb.transpose())
    flags.strict_primal_nonempty, flags.strict_dual_nonempty = (_strict_member(q) is not None for q in sides)
    preconds = {
        "strict primal set": flags.strict_primal_nonempty,
        "strict dual set": flags.strict_dual_nonempty,
        "finite values": math.isfinite(report.v_primal) and math.isfinite(report.v_dual),
    }
    unmet = [name for name, ok in preconds.items() if not ok]
    if unmet:
        report.notes.append("precondition not met: " + ", ".join(unmet))
        return report

    flags.systems_solved = tuple(_system_solved(q, tol) for q in sides)
    if abs(report.v_primal - report.v_dual) > tol:
        raise TheoremViolation(
            f"strict feasibility preconditions verified but gap {report.gap:.3e} exceeds {tol:.1e}",
            report=report,
        )
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _pairing_to_dict(p):
    if p.weights is None:
        return {"kind": "euclidean_dot"}
    return {"kind": "weighted_quadrature", "weights": p.weights.tolist()}


def _pairing_from_dict(d):
    d = {} if d is None else _as_object(d, "pairing")
    kind = d.get("kind", "euclidean_dot")
    weights = d.get("weights")
    # Older files tag the real-part pairing of complex data separately.
    if kind not in ("euclidean_dot", "complex_real_part", "weighted_quadrature"):
        raise ValueError(f"unknown pairing kind {kind!r}")
    if (kind == "weighted_quadrature") != (weights is not None):
        need = "requires weights" if weights is None else "does not take weights"
        raise ValueError(f"pairing kind {kind!r} {need}")
    return PairingSpec(weights=weights)


def problem_to_dict(pb):
    return {
        "type": "conic",
        "A": {"rows": pb.A.codomain_dim, "cols": pb.A.domain_dim, "data": pb.A.matrix.ravel().tolist()},
        "b": pb.b.tolist(),
        "c": pb.c.tolist(),
        "S": cone_to_dict(pb.S),
        "T": cone_to_dict(pb.T),
        "pairing_X": _pairing_to_dict(pb.A.pairing_domain),
        "pairing_Y": _pairing_to_dict(pb.A.pairing_codomain),
    }


def problem_from_dict(d):
    """Inverse of :func:`problem_to_dict`; the file's ``pairing_X`` and
    ``pairing_Y`` go on the operator."""
    a_doc = _as_object(d["A"], "A")
    rows, cols = _as_count(a_doc["rows"], "rows"), _as_count(a_doc["cols"], "cols")
    a = OperatorSpec(
        matrix=_as_array(a_doc["data"], "A.data", 1, rows * cols).reshape(rows, cols),
        pairing_domain=_pairing_from_dict(d.get("pairing_X")),
        pairing_codomain=_pairing_from_dict(d.get("pairing_Y")),
    )
    return ConicProblem(
        A=a,
        b=d["b"],
        c=d["c"],
        S=cone_from_dict(d["S"]),
        T=cone_from_dict(d["T"]),
    )


def report_to_dict(report):
    return {
        "v_primal": report.v_primal,
        "v_dual": report.v_dual,
        "x_star": None if report.x_star is None else report.x_star.tolist(),
        "y_star": None if report.y_star is None else report.y_star.tolist(),
        "gap": report.gap,
        "comp_residuals": None if report.comp_residuals is None else list(report.comp_residuals),
        "status_primal": report.status_primal,
        "status_dual": report.status_dual,
        "flags": {
            "primal_interior_opt": report.flags.primal_interior_opt,
            "dual_interior_opt": report.flags.dual_interior_opt,
            "strict_primal_nonempty": report.flags.strict_primal_nonempty,
            "strict_dual_nonempty": report.flags.strict_dual_nonempty,
            "systems_solved": list(report.flags.systems_solved),
        },
        "notes": list(report.notes),
    }
