"""Linear programs over complex argument cones, via realification.

A complex program

    min Re(c, z)   s.t.  A z - b in T*,  z in S

with argument cones ``S = {z : |arg z_i| <= alpha_i}`` and
``T = {w : |arg w_j| <= beta_j}`` becomes an ordinary conic pair over
``R^(2m)`` / ``R^(2n)``.  This module owns that realification: each
complex coordinate ``z_i`` becomes the pair ``(Re z_i, Im z_i)``, each
matrix entry ``p + qi`` the 2x2 rotation-scaling block ``[[p, -q], [q, p]]``,
the real-part pairing ``Re(z, w) = Re(sum conj(z_i) w_i)`` the Euclidean dot
product, and each argument cone a product of planar wedges.  Conjugate
transposition of the matrix corresponds to plain transposition of its
blocks, so the realified pair is exactly the real conic pair of
:mod:`conedual.duality`, and a real optimizer ``x`` lifts back to
``x[0::2] + 1j * x[1::2]``.

The optional ``game_slice`` adds the zero-imaginary-sum equality to both
cones, the extra structure carried by strategy cones of complex matrix
games.  Only the cone type is supported; game solution methods are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import slice_cone, wedge
from .duality import ConicProblem, verify_interior_optima
from .farkas import verified_solution
from .linops import OperatorSpec, _as_real
from .tolerances import INTERIOR_TOL, REAL_COORD_CUTOFF

__all__ = [
    "ComplexLPSpec",
    "build_complex_lp",
    "BoundaryAngleReport",
    "classify_boundary_optima",
    "complex_spec_to_dict",
    "complex_spec_from_dict",
]


@dataclass(frozen=True)
class ComplexLPSpec:
    """Data of a complex argument-cone program.

    ``alpha`` and ``beta`` hold the wedge half-angles of the primal and
    dual cones, one per complex coordinate, each strictly inside
    ``(0, pi/2)``.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    alpha: tuple
    beta: tuple
    game_slice: bool = False

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=complex))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        c = np.atleast_1d(np.asarray(self.c, dtype=complex))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        n, m = a.shape
        if n < 1 or m < 1:
            raise ValueError(f"A has shape {a.shape}, both complex dimensions must be at least 1")
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        if c.shape != (m,):
            raise ValueError(f"c has shape {c.shape}, expected ({m},)")
        for name, count in (("alpha", m), ("beta", n)):
            # An object array keeps each angle as given, so a bool or a string
            # is refused instead of converted.
            given = np.atleast_1d(np.asarray(getattr(self, name), dtype=object))
            angles = tuple(_as_real(x, name) for x in given)
            object.__setattr__(self, name, angles)
            if len(angles) != count:
                raise ValueError(f"{name} has {len(angles)} angles, expected {count}")
            for i, ang in enumerate(angles):
                if not (0.0 < ang < math.pi / 2):
                    raise ValueError(
                        f"half_angles[{i}] of {name}: {ang} outside the open interval (0, pi/2)"
                    )

    @property
    def m(self):
        return self.A.shape[1]

    @property
    def n(self):
        return self.A.shape[0]


def _imag_sum_normal(dim_complex):
    normal = np.zeros(2 * dim_complex)
    normal[1::2] = 1.0
    return normal


def _realify(a):
    """The real image of a complex vector or matrix: each coordinate
    ``z_i`` as the pair ``(Re z_i, Im z_i)``, each matrix entry ``p + qi``
    as the block ``[[p, -q], [q, p]]``."""
    if a.ndim == 1:
        return np.stack([a.real, a.imag], axis=1).ravel()
    out = np.empty((2 * a.shape[0], 2 * a.shape[1]))
    out[0::2, 0::2] = out[1::2, 1::2] = a.real
    out[0::2, 1::2] = -a.imag
    out[1::2, 0::2] = a.imag
    return out


def build_complex_lp(spec):
    """Realify a :class:`ComplexLPSpec` into a :class:`ConicProblem`."""
    s_cone = wedge(spec.alpha)
    t_cone = wedge(spec.beta)
    if spec.game_slice:
        s_cone = slice_cone(s_cone, _imag_sum_normal(spec.m))
        t_cone = slice_cone(t_cone, _imag_sum_normal(spec.n))
    return ConicProblem(
        A=OperatorSpec(matrix=_realify(spec.A)),
        b=_realify(spec.b),
        c=_realify(spec.c),
        S=s_cone,
        T=t_cone,
    )


@dataclass
class BoundaryAngleReport:
    """Solvability of the two equality systems and per-coordinate angle
    diagnostics of the returned optimizers.

    ``primal_angles`` / ``dual_angles`` hold ``(index, angle, half_angle,
    at_boundary)`` rows for every coordinate; ``at_boundary`` is None for a
    real coordinate (imaginary part below the cutoff).  The rows are
    diagnostics, not a claim of the theorem.
    """

    primal_system_solvable: bool
    dual_system_solvable: bool
    v_primal: float
    v_dual: float
    characterization_applies: bool
    primal_angles: list
    dual_angles: list
    note: str = ""


def _angle_rows(z, half_angles, tol):
    rows = []
    for i, (coord, ang_bound) in enumerate(zip(z, half_angles)):
        if abs(coord.imag) <= REAL_COORD_CUTOFF:
            rows.append((i, float(np.angle(coord)), ang_bound, None))
            continue
        angle = float(np.angle(coord))
        rows.append((i, angle, ang_bound, abs(abs(angle) - ang_bound) <= tol))
    return rows


def classify_boundary_optima(spec, tol=INTERIOR_TOL):
    """Locate the optimizers of an argument-cone pair on their wedges.

    When neither equality system (``A z = b`` over the primal cone,
    ``A* w = c`` over the dual cone) is solvable yet both optimal values
    are finite, no optimal solution lies in the interior of its cone: an
    interior dual optimum would make the primal system solvable, and
    symmetrically.  That is the contrapositive of the statement
    :func:`~conedual.duality.verify_interior_optima` checks, so the pair is
    run through it, and it alone raises :class:`TheoremViolation`.  The
    angle rows, within ``tol`` of the half-angle, only locate the
    optimizers on their wedges.

    When either system is solvable the characterization is vacuous and the
    report says so.  A system the interior pipeline has solved is reported
    solvable; otherwise the optimizer is tried as its solution first, and a
    Farkas solve is kept for proving the system unsolvable.
    """
    pb = build_complex_lp(spec)
    report = verify_interior_optima(pb)
    # The dual system is the primal system of the transposed pair.
    solvable, angles = [], []
    for q, solved, x, half_angles in zip(
        (pb, pb.transpose()), report.flags.systems_solved, (report.x_star, report.y_star), (spec.alpha, spec.beta)
    ):
        solvable.append(solved or verified_solution(q.A, q.b, q.S, witness=x) is not None)
        angles.append([] if x is None else _angle_rows(x[0::2] + 1j * x[1::2], half_angles, tol))

    applies = not any(solvable) and math.isfinite(report.v_primal) and math.isfinite(report.v_dual)
    result = BoundaryAngleReport(
        primal_system_solvable=solvable[0],
        dual_system_solvable=solvable[1],
        v_primal=report.v_primal,
        v_dual=report.v_dual,
        characterization_applies=applies,
        primal_angles=angles[0],
        dual_angles=angles[1],
    )
    if not applies:
        result.note = "systems solvable or values infinite, characterization vacuous"
    return result


# ---------------------------------------------------------------------------
# Serialization (complex entries as [re, im] pairs)
# ---------------------------------------------------------------------------


def _c2pair(z):
    return [float(z.real), float(z.imag)]


def _pairs2c(value, ndim, name):
    """``value``, an ``ndim``-dimensional array of ``[re, im]`` pairs, as a
    complex array."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError(f"{name} must be a {ndim}-dimensional array of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def complex_spec_to_dict(spec):
    return {
        "type": "complex_lp",
        "A": [[_c2pair(v) for v in row] for row in spec.A],
        "b": [_c2pair(v) for v in spec.b],
        "c": [_c2pair(v) for v in spec.c],
        "alpha": list(spec.alpha),
        "beta": list(spec.beta),
        "game_slice": spec.game_slice,
    }


def complex_spec_from_dict(d):
    return ComplexLPSpec(
        A=_pairs2c(d["A"], 2, "A"),
        b=_pairs2c(d["b"], 1, "b"),
        c=_pairs2c(d["c"], 1, "c"),
        alpha=d["alpha"],
        beta=d["beta"],
        game_slice=bool(d.get("game_slice", False)),
    )
