"""Dense linear operators and bilinear pairings.

Operators are plain dense matrices.  Each operator knows the pairing of its
domain and codomain so that ``adjoint_apply`` satisfies the identity
``<A x, y>_Y == <x, A^T y>_X`` exactly, including under weighted-quadrature
pairings where the adjoint matrix is ``W_X^-1 A^T W_Y`` rather than the bare
transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import ADJOINT_TOL

__all__ = [
    "PairingSpec",
    "EUCLIDEAN",
    "weighted_quadrature",
    "pairing",
    "pairing_norm",
    "OperatorSpec",
    "apply",
    "adjoint_apply",
    "adjoint_matrix",
    "transposed",
    "AdjointCheckReport",
    "adjoint_identity_check",
]

def _as_vector(v, dim=None, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or (dim is not None and arr.shape[0] != dim):
        expected = "one dimension" if dim is None else f"({dim},)"
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _is_number(value):
    """Whether ``value`` is an int or a float, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _as_count(value, name):
    """``value`` as an int: an int, or a float with an integral value."""
    if not (_is_number(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(value, name):
    """``value`` as a float: a finite int or float."""
    if not (_is_number(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_object(value, name):
    """``value``, which a problem file must give as a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class PairingSpec:
    """A bilinear symmetric pairing on a coordinate space.

    Without ``weights`` it is the plain dot product; on real embeddings of
    complex vectors that is ``Re <z, w>``.  With ``weights`` it is the
    quadrature ``<u, v> = sum_i w_i u_i v_i`` with strictly positive
    weights, the discrete stand-in for an integral pairing.
    """

    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("quadrature weights must be a finite positive vector")
            object.__setattr__(self, "weights", w)

    def weight_vector(self, dim):
        if self.weights is None:
            return np.ones(dim)
        if self.weights.shape[0] != dim:
            raise ValueError(f"pairing weights have dimension {self.weights.shape[0]}, expected {dim}")
        return self.weights


EUCLIDEAN = PairingSpec()


def weighted_quadrature(weights):
    return PairingSpec(weights=weights)


def pairing(p, u, v):
    """Evaluate ``<u, v>`` under pairing ``p``.

    The product ``u * v`` is formed before any weighting so the value is
    exactly symmetric in its arguments.
    """
    u = _as_vector(u, name="u")
    return _pairing(p, u, _as_vector(v, dim=u.shape[0], name="v"))


def _pairing(p, u, v):
    prod = u * v
    if p is None or p.weights is None:
        return float(prod.sum())
    return float((prod * p.weight_vector(u.shape[0])).sum())


def pairing_norm(p, u):
    """``sqrt(<u, u>)`` under pairing ``p``."""
    u = _as_vector(u, name="u")
    return math.sqrt(max(_pairing(p, u, u), 0.0))


@dataclass(frozen=True)
class OperatorSpec:
    """A dense linear map together with the pairings of its two spaces.

    The operator owns the pairings of its domain ``X`` and codomain ``Y``;
    a conic pair reads them from its ``A``.  Weights must match the
    dimension of their space.

    ``adjoint_override`` lets callers install an independently constructed
    adjoint matrix (for example one discretized from a separate formula);
    ``adjoint_identity_check`` then measures how far it is from the exact
    pairing adjoint.  When absent, the exact adjoint is used.
    """

    matrix: np.ndarray
    pairing_domain: PairingSpec = field(default_factory=PairingSpec)
    pairing_codomain: PairingSpec = field(default_factory=PairingSpec)
    adjoint_override: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"operator matrix must be two-dimensional, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix contains non-finite entries")
        object.__setattr__(self, "matrix", m)
        if self.adjoint_override is not None:
            a = np.asarray(self.adjoint_override, dtype=float)
            if a.shape != (m.shape[1], m.shape[0]):
                raise ValueError(
                    f"adjoint override has shape {a.shape}, expected {(m.shape[1], m.shape[0])}"
                )
            object.__setattr__(self, "adjoint_override", a)
        for p, dim in ((self.pairing_domain, m.shape[1]), (self.pairing_codomain, m.shape[0])):
            if p.weights is not None:
                p.weight_vector(dim)

    @property
    def codomain_dim(self):
        return self.matrix.shape[0]

    @property
    def domain_dim(self):
        return self.matrix.shape[1]


def apply(op, x):
    """``y = A x``."""
    x = _as_vector(x, dim=op.domain_dim, name="x")
    return op.matrix @ x


def adjoint_matrix(op):
    """The matrix of the pairing adjoint, ``W_X^-1 A^T W_Y``.

    For plain dot-product pairings this is the transpose.  The override, if
    installed, takes precedence.
    """
    if op.adjoint_override is not None:
        return op.adjoint_override
    at = op.matrix.T
    if op.pairing_domain.weights is None and op.pairing_codomain.weights is None:
        return at
    wx = op.pairing_domain.weight_vector(op.domain_dim)
    wy = op.pairing_codomain.weight_vector(op.codomain_dim)
    return (at * wy[np.newaxis, :]) / wx[:, np.newaxis]


def adjoint_apply(op, y):
    """``x = A^T y`` with the adjoint taken against the declared pairings."""
    y = _as_vector(y, dim=op.codomain_dim, name="y")
    return adjoint_matrix(op) @ y


def transposed(op):
    """The transposed operator ``-A^T`` from ``Y`` to ``X``: the operator
    of the transposed pair ``(-A^T, -c, -b, T, S)``.

    ``A^T`` is the pairing adjoint.  The pairings swap places and the
    adjoint of ``-A^T`` is installed as ``-A`` itself, so
    ``transposed(transposed(op))`` acts exactly as ``op`` does, bit for bit.
    """
    return OperatorSpec(
        matrix=-adjoint_matrix(op),
        pairing_domain=op.pairing_codomain,
        pairing_codomain=op.pairing_domain,
        adjoint_override=-op.matrix,
    )


# ---------------------------------------------------------------------------
# Adjoint identity diagnostics
# ---------------------------------------------------------------------------


@dataclass
class AdjointCheckReport:
    max_residual: float
    n_samples: int
    tol: float
    passed: bool


def adjoint_identity_check(op, n_samples=100, tol=ADJOINT_TOL, seed=0):
    """Sample ``|<A x, y>_Y - <x, A^T y>_X|`` in the operator's pairings and
    compare against ``tol``.

    With the exact pairing adjoint the residual is at machine-precision
    level; a discrepancy flags an inconsistent ``adjoint_override`` or a
    mismatched pairing.  Sample ``i`` is row ``i`` of one
    ``(n_samples, dim_X + dim_Y)`` standard normal draw, split as
    ``[x_i, y_i]``; both sides of every sample come from two matrix
    products.  Raises ``ValueError`` when an image is not finite.
    """
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, op.domain_dim + op.codomain_dim))
    xs, ys = samples[:, : op.domain_dim], samples[:, op.domain_dim :]
    images = xs @ op.matrix.T
    preimages = ys @ adjoint_matrix(op).T
    if not (np.isfinite(images).all() and np.isfinite(preimages).all()):
        raise ValueError("operator images contain non-finite entries")
    # Row sums of the products as ``pairing`` forms them; a unit weight is exact.
    lhs = (images * ys * op.pairing_codomain.weight_vector(op.codomain_dim)).sum(axis=1)
    rhs = (xs * preimages * op.pairing_domain.weight_vector(op.domain_dim)).sum(axis=1)
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    return AdjointCheckReport(max_residual=worst, n_samples=n_samples, tol=float(tol), passed=worst <= tol)
