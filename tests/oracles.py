"""Independent brute-force oracles and helpers shared by the test modules.

Everything here avoids the library's solution paths on purpose: grid
enumeration, polar scans, support enumeration, backward substitution and
the enumerated dual of a slice compute expected values from the problem
data alone.  The exceptions are the reference orders near the end, which
run the library's own steps in the order of an earlier design.  The
helpers at the end (sampling cone members, the variational inequality of a
residual minimizer, the argument condition of a complex matrix, Farkas
instances solvable or unsolvable by construction, and the classical
regularity checks of a continuous program) are used only by tests.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from conedual import cones, duality
from conedual.complex_lp import build_complex_lp
from conedual.cones import generated, generators, product
from conedual.continuous_lp import _grid, grid_points
from conedual.errors import SolverFailure, TheoremViolation
from conedual.farkas import verified_solution
from conedual.instances import random_farkas_instance
from conedual.linops import OperatorSpec, adjoint_matrix, pairing, pairing_norm
from conedual.residual import residual_minimize
from conedual.simplex import simplex_solve
from conedual.tolerances import STATIONARITY_TOL


def grid_residual_min(M, b, upper=3.0, step=1e-3):
    """Exact minimum of ||M u - b||^2 over the grid [0, upper]^2 of the
    two coefficients ``u``.

    The full enumeration collapses column-wise: for each u1 the objective
    is a convex parabola in u2, so its grid minimum sits at the clamped
    neighbors of the unconstrained vertex.  The result equals the full
    grid scan exactly.
    """
    u1 = np.arange(0.0, upper + step / 2, step)
    m0, m1 = M[:, 0], M[:, 1]
    a22 = float(m1 @ m1)
    base = np.outer(u1, m0) - b
    const = np.einsum("ij,ij->i", base, base)
    lin = base @ m1
    best = np.inf
    for i in range(u1.size):
        if a22 > 1e-300:
            vertex = -lin[i] / a22
            snapped = np.floor(vertex / step) * step
            cand = np.unique(np.clip([snapped, snapped + step, 0.0, upper], 0.0, upper))
        else:
            cand = np.array([0.0, upper])
        vals = const[i] + 2.0 * lin[i] * cand + a22 * cand**2
        best = min(best, float(vals.min()))
    return best


def same_bits(u, v):
    """Two arrays, or two Nones, agree in dtype, shape and every bit."""
    if u is None or v is None:
        return u is None and v is None
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def polar_brute_force(spec, r_max=3.0, r_step=1e-3, theta_step=1e-3, chunk=200):
    """Scan the scalar complex program over a polar grid.

    Minimizes Re(conj(c) z) over the wedge |arg z| <= alpha subject to
    A z - b landing in the dual wedge of half-angle pi/2 - beta.
    """
    if spec.m != 1 or spec.n != 1:
        raise ValueError("polar oracle is for scalar instances")
    alpha, beta = spec.alpha[0], spec.beta[0]
    a = complex(spec.A[0, 0])
    b = complex(spec.b[0])
    c = complex(spec.c[0])
    dual_half = math.pi / 2 - beta
    half = np.arange(0.0, alpha + theta_step / 2, theta_step)
    thetas = np.unique(np.concatenate([-half, half]))  # includes 0 exactly
    rs = np.arange(0.0, r_max + r_step / 2, r_step)
    best = np.inf
    for start in range(0, thetas.size, chunk):
        th = thetas[start : start + chunk]
        z = rs[np.newaxis, :] * np.exp(1j * th[:, np.newaxis])
        w = a * z - b
        feasible = np.abs(np.angle(w)) <= dual_half + 1e-12
        feasible |= np.abs(w) <= 1e-15
        obj = np.real(np.conj(c) * z)
        if np.any(feasible):
            best = min(best, float(obj[feasible].min()))
    return best


def clp_minimal_feasible(spec):
    """Backward substitution for scalar programs with B = 1 and a
    nonnegative kernel: the componentwise-minimal feasible point binds
    every constraint, and with positive costs it is the unique optimum.
    Returns (value, grid point)."""
    ts, h = grid_points(spec)
    n = spec.n_grid
    x = np.zeros(n)
    for k in reversed(range(n)):
        acc = 0.0
        for j in range(k + 1, n):
            acc += float(spec.sample_K(ts[k], ts[j])[0, 0]) * x[j]
        x[k] = float(spec.sample_b(ts[k])[0]) + h * acc
    value = h * sum(float(spec.sample_c(ts[k])[0]) * x[k] for k in range(n))
    return value, x


def dual(cone):
    """The dual cone as a cone of the library: a slice's dual enumerated as
    the generated cone ``cone(G_base*, N, -N)`` (the dual of its base plus
    the span of its normals), products factor by factor, and
    ``conedual.cones.dual`` otherwise."""
    if cone.kind == "slice":
        return generated(np.hstack([generators(dual(cone.base)), cone.normals, -cone.normals]))
    if cone.kind == "product":
        return product(*(dual(f) for f in cone.factors))
    return cones.dual(cone)


def slice_distance_by_supports(gens, normals, v):
    """Distance from ``v`` to ``{G u : u >= 0, N^T G u = 0}`` by exhaustive
    support enumeration, from the base generators ``G`` and the normals
    ``N`` alone.

    For every subset ``P`` of the columns of ``G``, the equality-constrained
    least-squares problem ``min ||G_P u - v||`` s.t. ``N^T G_P u = 0`` is
    solved on a basis of the null space of ``N^T G_P``; a subset whose
    solution is nonnegative gives a member of the cone, and the smallest of
    their residuals (and ``||v||``, for the origin) is returned.  The
    projection of ``v`` has a support with independent columns and positive
    coefficients, and on that support the constrained least-squares solution
    is the projection itself, so the minimum is the distance.
    """
    gens = np.asarray(gens, dtype=float)
    normals = np.asarray(normals, dtype=float).reshape(gens.shape[0], -1)
    best = float(np.linalg.norm(v))
    for size in range(1, gens.shape[1] + 1):
        for support in itertools.combinations(range(gens.shape[1]), size):
            g_p = gens[:, support]
            _, sv, vt = np.linalg.svd(normals.T @ g_p)
            null = vt[int(np.sum(sv > 1e-12 * max(1.0, sv.max(initial=0.0)))) :].T
            if null.shape[1] == 0:
                continue
            u = null @ np.linalg.lstsq(g_p @ null, v, rcond=None)[0]
            if u.min() >= -1e-12 * max(1.0, np.abs(u).max()):
                best = min(best, float(np.linalg.norm(g_p @ u - v)))
    return best


def slice_interior_by_base(cone, v, tol):
    """The interior test of a slice from its base and normals alone: the
    distance from ``v`` to ``ker N^T`` at most ``tol``, and the
    ``tol``-ball around ``v`` inside the base.  Where the relative interior
    of the slice meets the interior of its base, the relative interior of
    the slice is the interior of the base within ``ker N^T`` (Rockafellar,
    Convex Analysis, Thm 6.5), so away from the margin band this agrees
    with the probe in the span of the slice's rays."""
    n = cone.normals
    residual = float(np.linalg.norm(n @ np.linalg.lstsq(n, v, rcond=None)[0]))
    return residual <= tol and cones.interior_contains(cone.base, v, tol)


def reference_nnls(M, b, kkt_tol=STATIONARITY_TOL, max_iter=None):
    """The active-set NNLS with every passive subproblem solved by
    ``numpy.linalg.lstsq`` (an SVD of the passive columns) from scratch.

    Same entering rule (the eligible index with the largest dual value
    enters, the smallest such index on a tie), blocking step, rejection of
    the entering index of an outer iteration that does not lower the
    residual, and iteration cap as ``conedual.nnls.nnls``, which solves the
    subproblems from an updated QR factor instead.  The two dense attempts
    are made under the same conditions, on a system with ``2 < k <= m``
    and no index rejected: at the second iteration when every free dual
    value is above ``kkt_tol``, and at the fifth.  The ``lstsq`` solution
    ``z`` on all columns is returned (with the iteration count and a zero
    KKT residual) if they have full rank and it is positive.  At the fifth
    iteration a full-rank ``z`` that is not positive, but has more positive
    entries than there are passive columns, is a warm start: the columns
    with ``z_j > 0`` are taken in order of decreasing ``z_j``, each kept
    unless the refusal test below refuses it, then the nonpositive
    coefficients of the ``lstsq`` solution on the kept ones are dropped
    until every one is positive, and the smallest residual so far is reset
    to that of the point reached.  A column is refused, and rejected like
    an entering index that does not lower the residual, when it would make
    more than ``min(m, k)`` passive columns or when the passive columns
    followed by it fail the factor's dependence test: the smallest
    ``|diag R|`` of ``numpy.linalg.qr(M[:, idx], mode="r")`` at or below
    ``eps * max(m, k)`` times the largest.  Returns ``(u, iterations,
    kkt_residual)`` and raises ``SolverFailure`` where ``nnls`` would.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = M.shape
    if max_iter is None:
        max_iter = 100 * (k + m)

    def kkt(w, free):
        return max(float(np.max(w[free], initial=0.0)), 0.0)

    def dependent(cols):
        diag = np.abs(np.diagonal(np.linalg.qr(cols, mode="r")))
        return diag.min() <= np.finfo(float).eps * max(m, k) * diag.max()

    u = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    rejected = np.zeros(k, dtype=bool)
    w = M.T @ b
    best = b @ b
    iterations = 0
    while True:
        free = ~passive
        eligible = free & ~rejected & (w > kkt_tol)
        if not eligible.any():
            break
        iterations += 1
        if iterations > max_iter:
            raise SolverFailure("NNLS iteration cap exceeded", detail={"u": u, "kkt": kkt(w, free)})
        if not rejected.any() and 2 < k <= m and (iterations == 5 or iterations == 2 and np.all(w[free] > kkt_tol)):
            z, _, rank, _ = np.linalg.lstsq(M, b, rcond=None)
            if rank == k and np.all(z > 0):
                return z, iterations, 0.0
            if rank == k and iterations == 5 and np.count_nonzero(z > 0) > np.count_nonzero(passive):
                cols = []
                for j in np.argsort(-z, kind="stable")[: np.count_nonzero(z > 0)]:
                    if len(cols) < min(m, k) and not dependent(M[:, [*cols, j]]):
                        cols.append(j)
                while True:
                    u = np.zeros(k)
                    u[cols] = np.linalg.lstsq(M[:, cols], b, rcond=None)[0] if cols else []
                    if np.all(u[cols] > 0):
                        break
                    cols = [j for j in cols if u[j] > 0]
                passive = u > 0
                r = b - M @ u
                best = r @ r
                w = M.T @ r
                continue
        j = int(np.argmax(np.where(eligible, w, -np.inf)))
        idx = [*np.flatnonzero(passive), j]
        if len(idx) > min(m, k) or dependent(M[:, idx]):
            rejected[j] = True
            continue
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            z = np.zeros(k)
            z[idx] = np.linalg.lstsq(M[:, idx], b, rcond=None)[0]
            if np.all(z[idx] > 0):
                u = z
                break
            blocking = idx[z[idx] <= 0]
            gap = u[blocking] - z[blocking]
            ratios = np.divide(u[blocking], gap, out=np.zeros_like(gap), where=gap > 0)
            alpha = float(np.min(ratios))
            u = u + alpha * (z - u)
            u[blocking[ratios <= alpha + 1e-15]] = 0.0
            passive &= u > 0.0
        u[~passive] = 0.0
        r = b - M @ u
        if r @ r < best:
            best = r @ r
            rejected[:] = False
        else:
            rejected[j] = True
        w = M.T @ r
    return u, iterations, kkt(w, ~passive)


def equality_lp(c, A, b):
    """``simplex_solve`` on ``min c^T x, A x = b, x >= 0``, posed in the
    engine's inequality form as ``[A; -A] x >= [b; -b]``."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return simplex_solve(c, np.vstack([A, -A]), np.concatenate([b, -b]))


def margin_row_strict_lp(pb):
    """The strict-member margin LP with explicit margin rows.

    Variables ``[u(k), w1(kd), w2(kd), delta, r(k), cap]``: maximize
    ``delta`` s.t. ``A G u - G_{T*} w1 = b`` and ``A G u - G_{T*} w2 = 0``,
    ``u - delta - r = 0``, ``delta + cap = 1``
    and, for a slice ``S``, ``N^T G u = 0``.  ``G`` is the generator matrix
    of ``S``, or of its base for a slice, so the slice is described here by
    its base and normals, independently of the rays that
    :func:`conedual.cones.slice_cone` computes.  This is the formulation
    ``conedual.duality._strict_member`` used before it substituted
    ``u = r + delta``.  Returns ``(status, delta)``, with ``delta`` None
    unless the LP is optimal.
    """
    cone = pb.S
    g = generators(cone.base if cone.kind == "slice" else cone)
    g_dual = generators(dual(pb.T))
    m_img = pb.A.matrix @ g
    k = g.shape[1]
    kd = g_dual.shape[1]
    dim_img = m_img.shape[0]
    n_var = k + 2 * kd + 1 + k + 1
    rows = []
    rhs = []
    r1 = np.zeros((dim_img, n_var))
    r1[:, :k] = m_img
    r1[:, k : k + kd] = -g_dual
    rows.append(r1)
    rhs.append(pb.b)
    r2 = np.zeros((dim_img, n_var))
    r2[:, :k] = m_img
    r2[:, k + kd : k + 2 * kd] = -g_dual
    rows.append(r2)
    rhs.append(np.zeros(dim_img))
    r3 = np.zeros((k, n_var))
    r3[:, :k] = np.eye(k)
    r3[:, k + 2 * kd] = -1.0
    r3[:, k + 2 * kd + 1 : k + 2 * kd + 1 + k] = -np.eye(k)
    rows.append(r3)
    rhs.append(np.zeros(k))
    r4 = np.zeros((1, n_var))
    r4[0, k + 2 * kd] = 1.0
    r4[0, -1] = 1.0
    rows.append(r4)
    rhs.append(np.ones(1))
    if cone.kind == "slice":
        r5 = np.zeros((cone.normals.shape[1], n_var))
        r5[:, :k] = cone.normals.T @ g
        rows.append(r5)
        rhs.append(np.zeros(cone.normals.shape[1]))
    cost = np.zeros(n_var)
    cost[k + 2 * kd] = -1.0
    res = equality_lp(cost, np.vstack(rows), np.concatenate(rhs))
    if res.status != "optimal":
        return res.status, None
    return res.status, float(res.x[k + 2 * kd])


def ungated_strict_feasibility(pb, tol=1e-8):
    """``verify_strict_feasibility`` without its ``-b in T*``, ``c in S*``
    gate: both strict-member LPs run on every pair.  Returns the report or
    raises ``TheoremViolation`` where the ungated pipeline would."""
    report = duality.solve(pb)
    flags = report.flags
    flags.strict_primal_nonempty = duality._strict_member(pb) is not None
    flags.strict_dual_nonempty = duality._strict_member(pb.transpose()) is not None
    preconds = {
        "strict primal set": flags.strict_primal_nonempty,
        "strict dual set": flags.strict_dual_nonempty,
        "finite values": math.isfinite(report.v_primal) and math.isfinite(report.v_dual),
    }
    unmet = [name for name, ok in preconds.items() if not ok]
    if unmet:
        report.notes.append("precondition not met: " + ", ".join(unmet))
        return report
    flags.systems_solved = (duality._system_solved(pb, tol), duality._system_solved(pb.transpose(), tol))
    if abs(report.v_primal - report.v_dual) > tol:
        raise TheoremViolation(
            f"strict feasibility preconditions verified but gap {report.gap:.3e} exceeds {tol:.1e}",
            report=report,
        )
    return report


def rank_system_solved(pb, tol):
    """``duality._system_solved`` by its earlier test for a full-dimensional
    ``T``: the generators of ``T`` have rank ``dim T``."""
    if np.linalg.matrix_rank(generators(pb.T)) == pb.T.dim:
        return pairing_norm(pb.A.pairing_codomain, pb.b) <= 10 * tol
    return verified_solution(pb.A, pb.b, pb.S, tol=tol, witness=np.zeros(pb.S.dim)) is not None


def nnls_first_system_solvability(spec):
    """``(primal_system_solvable, dual_system_solvable)`` of
    ``classify_boundary_optima`` decided the NNLS-first way: one Farkas
    solve per equality system, before and without the optimizers."""
    pb = build_complex_lp(spec)
    op = pb.operator()
    return (
        verified_solution(op, pb.b, pb.S) is not None,
        verified_solution(adjoint_operator(op), pb.c, pb.T) is not None,
    )


def adjoint_operator(op):
    """The pairing adjoint ``A^T`` as an operator from ``Y`` to ``X``, with
    ``op.matrix`` installed as its adjoint: the orientation ``(A^T, c)`` in
    which the dual equality system was decided before it became the primal
    system of the transposed pair, ``(-A^T, -c)``."""
    return OperatorSpec(
        matrix=adjoint_matrix(op),
        pairing_domain=op.pairing_codomain,
        pairing_codomain=op.pairing_domain,
        adjoint_override=op.matrix,
    )


def reference_adjoint_identity_check(op, n_samples=100, tol=1e-10, seed=0):
    """``(max_residual, passed, largest |<A x, y>_Y|)`` of
    ``linops.adjoint_identity_check`` by its earlier loop: one ``x`` and one
    ``y`` drawn per sample, each side evaluated through ``pairing``."""
    p_X, p_Y = op.pairing_domain, op.pairing_codomain
    rng = np.random.default_rng(seed)
    at = adjoint_matrix(op)
    worst = scale = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.codomain_dim)
        lhs = pairing(p_Y, op.matrix @ x, y)
        rhs = pairing(p_X, x, at @ y)
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, abs(lhs))
    return worst, worst <= tol, scale


# ---------------------------------------------------------------------------
# Test-only helpers
# ---------------------------------------------------------------------------


def sample_members(cone, count, rng, scale=1.0):
    """Random members ``G u`` with exponential nonnegative coefficients."""
    g = generators(cone)
    coeffs = rng.exponential(scale=scale, size=(count, g.shape[1]))
    return coeffs @ g.T


def variational_check(gamma, b, samples, p=None, tol=1e-8):
    """Certify minimality of ``gamma`` over the sampled hull.

    ``gamma`` minimizes ``<x - b, x - b>`` over a convex set containing the
    samples if and only if ``<gamma - b, x - gamma> >= 0`` for every member
    ``x``; this checks the inequality at each sample with slack ``tol``.
    """
    gamma = np.asarray(gamma, dtype=float)
    b = np.asarray(b, dtype=float)
    direction = gamma - b
    for x in samples:
        if pairing(p, direction, np.asarray(x, dtype=float) - gamma) < -tol:
            return False
    return True


def check_arg_condition(A, lo, hi, tol=1e-12):
    """Whether every nonzero entry of the complex matrix ``A`` has its
    argument inside ``[lo, hi]``.  Zero entries pass."""
    a = np.atleast_2d(np.asarray(A, dtype=complex))
    for entry in a.ravel():
        if entry == 0:
            continue
        arg = float(np.angle(entry))
        if arg < lo - tol or arg > hi + tol:
            return False
    return True


def feasible_farkas_instance(rng):
    """``b := A x0`` with ``x0`` a random cone member, so the equality
    system is solvable by construction."""
    a, _, cone = random_farkas_instance(rng)
    g = generators(cone)
    x0 = g @ rng.uniform(0.2, 1.0, size=g.shape[1])
    return a, a.matrix @ x0, cone, x0


def infeasible_farkas_instance(rng):
    """Shift a feasible right-hand side out of the image cone along a
    verified separator direction of a base instance.

    Draws up to 200 base instances until one admits a separator (operators
    whose image cone covers the whole space admit none), then returns
    ``b := A x0 - 2 d`` with ``d`` the unit separator, which is provably
    outside the image cone.
    """
    for _ in range(200):
        a, b_probe, cone = random_farkas_instance(rng)
        res = residual_minimize(a, b_probe, cone)
        # Off the image cone, gamma - b_probe separates b_probe from it.
        if res.value <= 1e-8 * 1e-8:
            continue
        d = res.gamma - b_probe
        d = d / np.linalg.norm(d)
        g = generators(cone)
        x0 = g @ rng.uniform(0.2, 1.0, size=g.shape[1])
        b = a.matrix @ x0 - 2.0 * d
        # d separates: <d, A x> >= 0 on the cone while <d, b> <= -2.
        if pairing(None, d, b) <= -1.0:
            return a, b, cone, d
    raise RuntimeError("failed to construct an infeasible instance")


@dataclass
class ClassicalConditionsReport:
    """Pointwise regularity of the data.

    ``recession_trivial`` holds per grid node: ``{z >= 0 : B(t) z <= 0}``
    contains only the origin (checked by a box-bounded LP).
    ``signs_nonnegative`` is the joint nonnegativity of ``B``, ``K`` and
    ``c`` on all samples.
    """

    recession_trivial: list
    signs_nonnegative: bool
    failures: list


def check_classical_conditions(spec):
    tol = 1e-9
    grid = _grid(spec)
    failures = []
    recession = []
    for idx, b_mat in enumerate(grid.B):
        # max sum(z) s.t. B(t) z <= 0, 0 <= z <= 1  -- optimum 0 iff trivial.
        n = spec.n
        m = spec.m
        n_var = n + m + n  # z, slack for Bz<=0, slack for z<=1
        a_eq = np.zeros((m + n, n_var))
        a_eq[:m, :n] = b_mat
        a_eq[:m, n : n + m] = np.eye(m)
        a_eq[m:, :n] = np.eye(n)
        a_eq[m:, n + m :] = np.eye(n)
        rhs = np.concatenate([np.zeros(m), np.ones(n)])
        cost = np.zeros(n_var)
        cost[:n] = -1.0
        res = equality_lp(cost, a_eq, rhs)
        trivial = res.status == "optimal" and -res.objective <= tol
        recession.append(trivial)
        if not trivial:
            failures.append(f"node {idx}: nontrivial nonnegative solution of B(t) z <= 0")

    signs_ok = all(
        arr.min(initial=0.0) >= -tol for arr in (grid.B, grid.c, grid.kernel_support())
    )
    if not signs_ok:
        failures.append("negative entries in B, K, or c")
    return ClassicalConditionsReport(
        recession_trivial=recession, signs_nonnegative=signs_ok, failures=failures
    )
