"""Finitely generated convex cones: membership, interiors, dual cones.

Supported families and their duals:

==========  =============================================  =======================
kind        set                                            dual
==========  =============================================  =======================
orthant     ``{v : v >= 0}``                               itself
wedge       product of planar sectors ``|arg z_i| <= a_i``  wedge with ``pi/2 - a_i``
generated   ``{G u : u >= 0}``                             ``{z : G^T z >= 0}``
product     cartesian product of factor cones              product of factor duals
slice       base cone intersected with ``N^T v = 0``       ``{z : G^T z >= 0}``
            generated by its own rays ``G``
==========  =============================================  =======================

Wedges live on consecutive coordinate pairs ``(x_i, y_i)`` of the ambient
space, matching the real embedding of complex vectors.  Every cone exposes a
generator matrix ``G`` with ``cone = {G u : u >= 0}``.  A slice stores its
own generators, computed once by :func:`slice_cone`, so every solver that
works on ``G`` stays inside the slice without further constraints.
Membership for the structured kinds uses exact closed-form distances, and a
nonnegative least-squares projection onto the generators for generated
cones and slices.  No cone needs an interior: :func:`interior_contains`
tests the relative interior (``generated([I, -I])``, the whole space with
dual ``{0}``, is as valid as any).  :func:`dual_distance` measures the
distance to the dual of any cone, on the cone's own generators where
:func:`dual` has no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import _as_array, _as_count, _as_object
from .nnls import nnls
from .tolerances import INTERIOR_TOL, MEMBERSHIP_TOL, PROBE_SLACK

__all__ = [
    "ConeSpec",
    "orthant",
    "wedge",
    "generated",
    "product",
    "slice_cone",
    "distance",
    "contains",
    "interior_contains",
    "dual",
    "dual_distance",
    "generators",
    "cone_to_dict",
    "cone_from_dict",
]

_KINDS = ("orthant", "wedge", "generated", "product", "slice")

# Largest orthant-distance entry whose square is summed unscaled.
_SCALED_NORM_FROM = 1e150

# Largest generator count of a slice.  Each normal can square the count (a
# pair per opposite-sign couple, redundant ones included), so a cone read
# from a file could otherwise exhaust memory while it is built.
_MAX_SLICE_RAYS = 4096


@dataclass(frozen=True)
class ConeSpec:
    """A finitely generated convex cone.  Immutable; all operations are pure."""

    kind: str
    dim: int
    half_angles: tuple = ()
    gens: np.ndarray | None = None
    factors: tuple = ()
    base: "ConeSpec | None" = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")


def orthant(n):
    """The nonnegative orthant in ``R^n``; ``n`` is an integer, or a float
    with an integral value."""
    n = _as_count(n, "orthant dimension")
    if n < 1:
        raise ValueError("orthant dimension must be positive")
    return ConeSpec(kind="orthant", dim=n)


def wedge(half_angles):
    """Product of planar sectors ``{(x, y) : |atan2(y, x)| <= a}``.

    ``half_angles`` is one angle per coordinate pair, each strictly inside
    ``(0, pi/2)``; the ambient dimension is twice the number of angles.
    """
    angles = np.atleast_1d(_as_array(half_angles, "half_angles"))
    if angles.ndim != 1 or not angles.size:
        raise ValueError(f"half_angles has shape {angles.shape}, expected one angle or a nonempty vector")
    angles = tuple(angles.tolist())
    for i, a in enumerate(angles):
        if not (0.0 < a < math.pi / 2):
            raise ValueError(f"half_angles[{i}] = {a} outside the open interval (0, pi/2)")
    return ConeSpec(kind="wedge", dim=2 * len(angles), half_angles=angles)


def generated(gens):
    """The cone ``{G u : u >= 0}`` for a matrix of generator columns."""
    g = _as_array(gens, "generator matrix", 2)
    if g.shape[1] == 0:
        raise ValueError("generator matrix must have at least one column")
    norms = np.linalg.norm(g, axis=0)
    if np.any(norms == 0):
        raise ValueError("generator columns must be nonzero")
    return ConeSpec(kind="generated", dim=g.shape[0], gens=g)


def product(*factors):
    """Cartesian product of cones; generators are the block-diagonal union."""
    if len(factors) < 2:
        raise ValueError("a product needs at least two factors")
    return ConeSpec(kind="product", dim=sum(f.dim for f in factors), factors=tuple(factors))


def _slice_rays(g, n):
    """Generators of ``cone(g) ∩ n^⊥`` for one normal ``n``: one step of
    the double-description method (Motzkin, Raiffa, Thompson & Thrall, 1953;
    Fukuda & Prodon, 1996).

    The generators with ``<n, g> = 0`` are kept, and each pair with
    ``<n, g_i> > 0 > <n, g_j>`` gives ``<n, g_i> g_j - <n, g_j> g_i``.  A
    product ``<n, g>`` or a combined column within the rounding error of
    its computation (``dim * eps`` times the norms involved) counts as
    zero, so a generator that lies in the slice up to roundoff is kept, and
    the cancelled columns of antiparallel generators are dropped.  More
    than ``_MAX_SLICE_RAYS`` columns raise ValueError.
    """
    eps = g.shape[0] * np.finfo(float).eps
    norms = np.linalg.norm(g, axis=0)
    d = n @ g
    d[np.abs(d) <= eps * np.linalg.norm(n) * norms] = 0.0
    pos, neg, keep = np.flatnonzero(d > 0), np.flatnonzero(d < 0), np.flatnonzero((d == 0) & (norms > 0))
    if keep.size + pos.size * neg.size > _MAX_SLICE_RAYS:
        raise ValueError(f"slice has more than {_MAX_SLICE_RAYS} generators")
    i, j = np.repeat(pos, neg.size), np.tile(neg, pos.size)
    pairs = d[i] * g[:, j] - d[j] * g[:, i]
    pairs = pairs[:, np.linalg.norm(pairs, axis=0) > eps * (d[i] * norms[j] - d[j] * norms[i])]
    return np.hstack([g[:, keep], pairs])


def slice_cone(base, normals):
    """``base`` intersected with the subspace ``{v : N^T v = 0}``.

    ``normals`` holds the constraint normals as columns of an
    ``ambient_dim x q`` matrix.  The slice's own generators are computed
    here, one normal at a time from the base generators, and stored in
    ``gens``; a slice of a slice is the one-step slice of the first base
    with all normals.  A slice that is ``{0}`` has no generators.  With
    two or more normals the generators can include redundant ones; a slice
    that would need more than ``_MAX_SLICE_RAYS`` of them raises
    ValueError.
    """
    n = _as_array(normals, "slice normals")
    if n.ndim == 1:
        n = n[:, np.newaxis]
    if n.ndim != 2 or n.shape[0] != base.dim:
        raise ValueError(f"slice normals have shape {n.shape}, expected ({base.dim}, q)")
    if np.any(np.linalg.norm(n, axis=0) == 0):
        raise ValueError("slice normals must be nonzero")
    if base.kind == "slice":
        return slice_cone(base.base, np.hstack([base.normals, n]))
    g = generators(base)
    for normal in n.T:
        g = _slice_rays(g, normal)
    return ConeSpec(kind="slice", dim=base.dim, gens=g, base=base, normals=n)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _block_diagonal(mats):
    """The block-diagonal matrix with the blocks ``mats``, in order."""
    g = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        g[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return g


def generators(cone):
    """Generator matrix ``G`` with ``cone = {G u : u >= 0}``.

    For slices these are the slice's own rays (possibly none), not the
    base generators.
    """
    if cone.kind == "orthant":
        return np.eye(cone.dim)
    if cone.kind == "wedge":
        return _block_diagonal(
            [np.array([[math.cos(a), math.cos(a)], [math.sin(a), -math.sin(a)]]) for a in cone.half_angles]
        )
    if cone.kind == "product":
        return _block_diagonal([generators(f) for f in cone.factors])
    return cone.gens.copy()


def _by_generators(cone, M, side="left"):
    """``G @ M`` (``side="left"``), ``G.T @ M`` (``"transpose"``) or ``M @
    G`` (``"right"``) for the generators ``G`` of ``cone``.  For an orthant
    ``G = I``, and ``M`` itself is returned, uncopied: the dense product
    would only turn ``-0.0`` into ``+0.0``."""
    if cone.kind == "orthant":
        return M
    g = generators(cone)
    if side == "right":
        return M @ g
    return (g.T if side == "transpose" else g) @ M


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def _wedge_block_distance(x, y, a):
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0
    theta = abs(math.atan2(y, x))
    if theta <= a:
        return 0.0
    excess = theta - a
    if excess >= math.pi / 2:
        return r
    return r * math.sin(excess)


def _blocks(cone, v):
    """``(factor, part of v)`` for each factor of the product ``cone``."""
    offset = 0
    for f in cone.factors:
        yield f, v[offset : offset + f.dim]
        offset += f.dim


def distance(cone, v):
    """Euclidean distance from ``v`` to the cone.

    Exact for orthants, wedges, and their products; for generated cones and
    slices it is the residual of the nonnegative least-squares projection
    onto the generators (a slice's own rays).
    """
    v = _as_array(v, "vector", 1, cone.dim)
    if cone.kind == "orthant":
        neg = np.minimum(v, 0.0)
        # Past _SCALED_NORM_FROM the sum of squares may overflow: scale by a
        # power of two, which changes no bit of a sum that does not.
        big = -neg[neg.argmin()]
        if big > _SCALED_NORM_FROM:
            scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
            return scale * float(np.linalg.norm(neg / scale))
        return float(np.linalg.norm(neg))
    # hypot, not the root of a sum of squares, which overflows on finite data.
    if cone.kind == "wedge":
        blocks = (_wedge_block_distance(v[2 * i], v[2 * i + 1], a) for i, a in enumerate(cone.half_angles))
        return math.hypot(*blocks)
    if cone.kind == "product":
        return math.hypot(*(distance(f, part) for f, part in _blocks(cone, v)))
    return nnls(cone.gens, v).residual_norm


def contains(cone, v, tol=MEMBERSHIP_TOL):
    """True iff the distance from ``v`` to the cone is at most ``tol``."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return distance(cone, v) <= tol


def _span_basis(g):
    """Orthonormal basis, by columns, of the span of the columns of ``g``:
    the unit vectors when ``g`` has full row rank.  The rank is numpy's
    ``matrix_rank``."""
    rank = np.linalg.matrix_rank(g)
    if rank == g.shape[0]:
        return np.eye(rank)
    return np.linalg.svd(g, full_matrices=False)[0][:, :rank]


def is_solid(cone):
    """Whether the cone has an interior in its ambient space: a slice has
    none, a product has one when all its factors do, and a generated cone
    when its generators span the space."""
    if cone.kind in ("orthant", "wedge"):
        return True
    if cone.kind == "product":
        return all(is_solid(f) for f in cone.factors)
    if cone.kind == "generated":
        return _span_basis(cone.gens).shape[1] == cone.dim
    return False


def interior_contains(cone, v, tol=INTERIOR_TOL):
    """Margin test for relative-interior membership.

    Orthant: every coordinate at least ``tol``.  Wedge: every block has
    radius at least ``tol`` and angular slack at least ``tol``.  Generated
    cones and slices (whose generators are their own rays) use a
    cross-polytope probe in the span of their generators ``G``: with
    ``q_1 .. q_r`` an orthonormal basis of ``span(G)`` (the unit vectors
    when ``G`` has full rank) and ``inner = PROBE_SLACK (1 + |v|)``, every
    ``v +- (tol + inner) sqrt(r) q_i`` must lie within ``inner`` of the
    cone.  Then so does the ``(tol + inner)``-ball around ``v`` in
    ``span(G)``, and its ``tol``-ball lies inside the cone: the test is
    never optimistic, at any scale.  With ``r = 0`` (the slice ``{0}``)
    it is plain membership.
    """
    v = _as_array(v, "vector", 1, cone.dim)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if cone.kind == "orthant":
        return bool(np.min(v) >= tol)
    if cone.kind == "wedge":
        for i, a in enumerate(cone.half_angles):
            x, y = v[2 * i], v[2 * i + 1]
            r = math.hypot(x, y)
            if r < tol:
                return False
            if abs(math.atan2(y, x)) > a - tol:
                return False
        return True
    if cone.kind == "product":
        return all(interior_contains(f, part, tol) for f, part in _blocks(cone, v))
    q = _span_basis(cone.gens)
    inner = PROBE_SLACK * (1.0 + float(np.linalg.norm(v)))
    if q.shape[1] == 0:
        return distance(cone, v) <= inner
    for e in ((tol + inner) * math.sqrt(q.shape[1]) * q).T:
        if distance(cone, v + e) > inner or distance(cone, v - e) > inner:
            return False
    return True


# ---------------------------------------------------------------------------
# Dual cones
# ---------------------------------------------------------------------------


def dual(cone):
    """The positive dual cone ``{u : <u, v> >= 0 for all v in cone}``.

    Computed in closed form per family; the dual of a wedge with
    half-angle ``a`` is the wedge with half-angle ``pi/2 - a``.  Generated
    cones and slices raise ValueError; see :func:`dual_distance`.
    """
    if cone.kind == "orthant":
        return cone
    if cone.kind == "wedge":
        return wedge(math.pi / 2 - np.array(cone.half_angles))
    if cone.kind == "product":
        return product(*(dual(f) for f in cone.factors))
    raise ValueError(f"dual cone of kind {cone.kind!r} has no closed form; use dual_distance")


def dual_distance(cone, v):
    """Euclidean distance from ``v`` to the dual cone of ``cone``.

    Closed-form for orthants and wedges, factor by factor for products.
    The dual of a generated cone or a slice with generators ``G`` is
    ``{z : G^T z >= 0}``, and by Moreau's decomposition (Moreau, 1962) the
    distance to it is ``||P(-v)||``, ``P`` the projection onto the cone:
    ``||G u||`` with ``u`` the nonnegative least-squares fit of ``-v``.
    """
    if cone.kind in ("orthant", "wedge"):
        return distance(dual(cone), v)
    v = _as_array(v, "vector", 1, cone.dim)
    if cone.kind == "product":
        return math.hypot(*(dual_distance(f, part) for f, part in _blocks(cone, v)))
    u = nnls(cone.gens, -v).u
    return float(np.linalg.norm(cone.gens @ u))


def _check_pairing_dual(cone, p, name):
    """Refuse a pairing ``p`` under which the Euclidean dual is not the dual
    of ``cone``.  Under weights ``w`` that dual is ``diag(w)^-1 cone*``: the
    Euclidean dual when ``w`` is uniform or ``cone`` is an orthant or a
    product of orthants."""
    w = p.weights
    if w is not None and np.any(w != w[0]):
        if not all(f.kind == "orthant" for f in (cone.factors if cone.kind == "product" else (cone,))):
            raise ValueError(f"non-uniform pairing weights on cone {name}, which is not a product of orthants")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cone_to_dict(cone):
    d = {"kind": cone.kind, "dim": cone.dim}
    if cone.kind == "wedge":
        d["half_angles"] = list(cone.half_angles)
    elif cone.kind == "generated":
        d["generators"] = cone.gens.T.tolist()
    elif cone.kind == "product":
        d["factors"] = [cone_to_dict(f) for f in cone.factors]
    elif cone.kind == "slice":
        d["base"] = cone_to_dict(cone.base)
        d["slice_normals"] = cone.normals.T.tolist()
    return d


def cone_from_dict(d):
    """Inverse of :func:`cone_to_dict`.  ``generators`` and
    ``slice_normals`` are lists of vectors."""
    kind = _as_object(d, "cone").get("kind")
    if kind == "orthant":
        return orthant(d["dim"])
    if kind == "wedge":
        c = wedge(d["half_angles"])
        if c.dim != d.get("dim", c.dim):
            raise ValueError("wedge dim inconsistent with half_angles")
        return c
    if kind == "generated":
        return generated(_as_array(d["generators"], "generators", 2).T)
    if kind == "product":
        if not isinstance(d["factors"], list):
            raise ValueError(f"factors must be a JSON array, got {type(d['factors']).__name__}")
        return product(*(cone_from_dict(f) for f in d["factors"]))
    if kind == "slice":
        return slice_cone(cone_from_dict(d["base"]), _as_array(d["slice_normals"], "slice_normals").T)
    raise ValueError(f"unknown cone kind {kind!r}")
