"""Continuous linear programs on [0, T], discretized to conic pairs.

The continuous pair is

    primal:  min  int x(t) c(t) dt
             s.t. x(t) B(t) >= b(t) + (kernel term),  x(t) >= 0
    dual:    max  int y(t) b(t) dt
             s.t. B(t) y(t) <= c(t) + int_0^t K(s, t) y(s) ds,  y(t) >= 0

with an m x n matrix function ``B``, an m x n Volterra kernel ``K``
vanishing for ``s > t``, and bounded measurable data.  Functions are
sampled on the midpoint grid ``t_k = (k + 1/2) h`` with ``h = T/n_grid``;
kernel integrals use the rectangle rule over the later (primal side) or
earlier (dual side) nodes.

The primal operator is defined as the exact pairing transpose of the
discretized dual-side operator

    (A^T y)_k = B(t_k) y_k - h * sum_{l < k} K(t_l, t_k) y_l,

so the discrete adjoint identity holds to machine precision by
construction and the alternative/certificate machinery applies without an
O(h) adjoint mismatch.  (Discretizing the two integral formulas
independently breaks that identity; it is available for diagnostics via
``OperatorSpec.adjoint_override``.)  The primal rows come out as

    (A x)_j = B(t_j)^T x_j - h * sum_{k > j} K(t_j, t_k)^T x_k,

which samples the kernel only on its support ``s <= t``.

Each field is sampled onto the grid as one array, validated once (finite,
within ``bound``).  A constant is broadcast without a call.  A callable is
called once per node, and the kernel once per node pair with ``s <= t``,
with the nodes as Python floats (the values of the grid's ``np.float64``
entries).  Its samples are stacked by one ``np.asarray``, so they are read
after the last call: a callable must not hand back one buffer that it
overwrites.  Only a stack of another shape (a scalar for a ``(1, 1)``
field, or samples of different shapes) is broadcast sample by sample.  On
the ``clp_grid`` benchmark items this took the sampling of a callable item
from 3.2 to 2.3 ms, about 80 % of it now the 2,144 calls themselves, and
that of a constant item from 0.31 to 0.13 ms.  Discretization and the
sign-condition classification both read those arrays, and the samples of
the last spec are remembered: a chain of these calls on one spec object
samples it once.  A spec is taken as immutable, callables included.

This module makes no theorem claim of its own.  The strong-duality
statement driven by strict feasibility is checked on the discretization by
``verify_strict_feasibility(discretize_clp(spec))`` of
:mod:`conedual.duality`, which reports the solvability of the equality
systems rather than asserting it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cones import orthant
from .duality import ConicProblem
from .linops import OperatorSpec, _as_array, _as_count, _as_object, weighted_quadrature
from .tolerances import ZERO_SAMPLE_TOL

__all__ = [
    "ContinuousLPSpec",
    "grid_points",
    "discretize_clp",
    "kernel_sign_condition",
    "clp_spec_to_dict",
    "clp_spec_from_dict",
]


def _shaped(value, shape):
    """``value`` as a float array of ``shape``; constants broadcast."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape)
    return arr


@dataclass(frozen=True)
class ContinuousLPSpec:
    """Data of a continuous linear program.

    ``B``/``K``/``b``/``c`` are callables (``B(t)``, ``K(s, t)``,
    ``b(t)``, ``c(t)``) or constants.  Constant kernels are interpreted as
    constant *on the support* ``s <= t``; genuine callables must vanish for
    ``s > t`` themselves and are probed at construction.  ``bound`` caps
    the admissible magnitude of every sample; ``+inf`` sets no cap (``null``
    in a file).
    """

    m: int
    n: int
    horizon: float
    n_grid: int
    B: object
    K: object
    b: object
    c: object
    bound: float = 1e6

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("state dimensions must be positive")
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be finite and positive")
        if not self.bound > 0:
            raise ValueError("bound must be positive")
        if self.n_grid < 2:
            raise ValueError("n_grid must be at least 2")
        for name, shape in self._shapes().items():
            value = getattr(self, name)
            if not callable(value):
                _shaped(value, shape)  # raises on a shape mismatch
        if callable(self.K):
            self._probe_causality(self.K)

    def _shapes(self):
        return {"B": (self.m, self.n), "K": (self.m, self.n), "b": (self.n,), "c": (self.m,)}

    def _probe_causality(self, k_fn):
        rng = np.random.default_rng(12345)
        for _ in range(25):
            t = rng.uniform(0, self.horizon)
            s = rng.uniform(t, self.horizon)
            if s <= t:
                continue
            val = np.asarray(k_fn(s, t), dtype=float)
            if np.max(np.abs(val), initial=0.0) > ZERO_SAMPLE_TOL:
                raise ValueError(
                    f"kernel causality violated: K({s:.4f}, {t:.4f}) is nonzero for s > t"
                )

    def sample_B(self, t):
        return self._sample_nodes("B", [t])[0]

    def sample_K(self, s, t):
        if s > t:
            return np.zeros((self.m, self.n))
        return self._sample_nodes("K", [s], [t])[0]

    def sample_b(self, t):
        return self._sample_nodes("b", [t])[0]

    def sample_c(self, t):
        return self._sample_nodes("c", [t])[0]

    def _sample_nodes(self, name, *coords):
        """``name`` at the nodes ``zip(*coords)``, stacked and validated
        once; a constant is broadcast without a call."""
        value = getattr(self, name)
        shape = self._shapes()[name]
        size = (len(coords[0]),) + shape
        if not callable(value):
            return self._check(np.broadcast_to(_shaped(value, shape), size).copy(), name)
        samples = [value(*node) for node in zip(*(np.asarray(x, dtype=float).tolist() for x in coords))]
        try:
            arr = np.asarray(samples, dtype=float)
        except (TypeError, ValueError):  # ragged samples
            arr = None
        if arr is None or arr.shape != size:
            arr = np.empty(size)
            for i, sample in enumerate(samples):
                arr[i] = _shaped(sample, shape)
        return self._check(arr, name)

    def _check(self, arr, name):
        """``arr`` unchanged if all its entries are finite and within ``bound``."""
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} returned non-finite values")
        if np.max(np.abs(arr), initial=0.0) > self.bound:
            raise ValueError(f"{name} sample exceeds the declared bound {self.bound}")
        return arr


def grid_points(spec):
    """Midpoint nodes ``t_k = (k + 1/2) h`` with ``h = horizon / n_grid``."""
    h = spec.horizon / spec.n_grid
    return (np.arange(spec.n_grid) + 0.5) * h, h


class _GridSamples(NamedTuple):
    """The data of a :class:`ContinuousLPSpec` on its midpoint grid.

    ``B`` is ``(N, m, n)``, ``b`` is ``(N, n)`` and ``c`` is ``(N, m)``.
    ``K`` is ``(N, N, m, n)`` with ``K[j, k] = K(t_j, t_k)`` on the support
    ``j <= k`` and zero below it.
    """

    ts: np.ndarray
    h: float
    B: np.ndarray
    K: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def kernel_support(self):
        """The ``(N (N + 1) / 2, m, n)`` kernel samples with ``s <= t``."""
        return self.K[np.triu_indices(self.ts.size)]


def _sample_grid(spec):
    ts, h = grid_points(spec)
    j, k = np.triu_indices(spec.n_grid)
    # Fields are sampled and validated in the order B, K, b, c.
    big_b = spec._sample_nodes("B", ts)
    kernel = np.zeros((spec.n_grid, spec.n_grid, spec.m, spec.n))
    kernel[j, k] = spec._sample_nodes("K", ts[j], ts[k])
    return _GridSamples(ts=ts, h=h, B=big_b, K=kernel, b=spec._sample_nodes("b", ts), c=spec._sample_nodes("c", ts))


# ``(weakref to spec, its _GridSamples)`` of the last spec sampled, or None.
# It is replaced as a whole, so concurrent calls can miss it but never mix
# two entries.  Only the last spec is kept, and only by a weak reference.
_last_grid = None


def _grid(spec):
    """The samples of ``spec``, taken from the memo when it holds this spec
    object.  Callers only read them."""
    global _last_grid
    memo = _last_grid
    if memo is not None and memo[0]() is spec:
        return memo[1]
    grid = _sample_grid(spec)
    _last_grid = (weakref.ref(spec), grid)
    return grid


def discretize_clp(spec):
    """Assemble the discretized conic pair of a :class:`ContinuousLPSpec`.

    Both cones are nonnegative orthants on the grid, the pairings are
    uniform-weight quadratures, and the operator's adjoint is its exact
    pairing transpose.
    """
    grid = _grid(spec)
    n_nodes = spec.n_grid
    rows = spec.n * n_nodes
    cols = spec.m * n_nodes
    # Block (j, k) of the operator is a[j, :, k, :].
    a = np.zeros((n_nodes, spec.n, n_nodes, spec.m))
    diag = np.arange(n_nodes)
    a[diag, :, diag, :] = grid.B.transpose(0, 2, 1)
    j, k = np.triu_indices(n_nodes, 1)
    a[j, :, k, :] = -grid.h * grid.K[j, k].transpose(0, 2, 1)
    op = OperatorSpec(
        matrix=a.reshape(rows, cols),
        pairing_domain=weighted_quadrature(np.full(cols, grid.h)),
        pairing_codomain=weighted_quadrature(np.full(rows, grid.h)),
    )
    # Copies: the grid is shared with later calls on the same spec.
    return ConicProblem(
        A=op,
        b=grid.b.reshape(rows).copy(),
        c=grid.c.reshape(cols).copy(),
        S=orthant(cols),
        T=orthant(rows),
    )


# ---------------------------------------------------------------------------
# Sign conditions
# ---------------------------------------------------------------------------

def kernel_sign_condition(spec):
    """Classify the sign pattern of the sampled data.

    ``condition_i``:  ``B <= 0``, ``K >= 0`` on all samples and the
    discretized ``b`` lies in the dual cone (componentwise nonnegative).
    ``condition_ii``: ``B >= 0``, ``K <= 0`` and ``-c`` lies in the dual
    cone (``c`` componentwise nonpositive).  ``neither`` otherwise.  Every
    sign test allows ``ZERO_SAMPLE_TOL``.  A sign condition does not make
    both equality systems solvable: ``B = K = b = 0`` with ``c = 1`` meets
    ``condition_i``, and its dual system has no solution.

    This describes the sampled data only: no theorem check or pipeline
    reads it.  Its readers are the ``sign_condition`` field of ``conedual
    clp`` and the ``clp_grid`` benchmark workload.
    """
    grid = _grid(spec)
    kernel = grid.kernel_support()
    if grid.B.max() <= ZERO_SAMPLE_TOL and kernel.min() >= -ZERO_SAMPLE_TOL and grid.b.min(initial=0.0) >= -ZERO_SAMPLE_TOL:
        return "condition_i"
    if grid.B.min() >= -ZERO_SAMPLE_TOL and kernel.max() <= ZERO_SAMPLE_TOL and grid.c.max(initial=0.0) <= ZERO_SAMPLE_TOL:
        return "condition_ii"
    return "neither"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _field_to_dict(value):
    if callable(value):
        raise ValueError("callable data cannot be serialized; sample it onto a grid first")
    return {"kind": "constant", "data": np.asarray(value, dtype=float).tolist()}


def clp_spec_to_dict(spec):
    return {
        "type": "clp",
        "m": spec.m,
        "n": spec.n,
        "T": spec.horizon,
        "n_grid": spec.n_grid,
        "B": _field_to_dict(spec.B),
        "K": _field_to_dict(spec.K),
        "b": _field_to_dict(spec.b),
        "c": _field_to_dict(spec.c),
        # JSON has no infinity: null is "no cap".
        "bound": None if spec.bound == np.inf else spec.bound,
    }


def _field_from_dict(d, name, spec_dims):
    kind = _as_object(d, name).get("kind", "constant")
    data = _as_array(d.get("data"), name)
    if kind == "constant":
        return data
    if kind == "grid":
        if name != "K":
            raise ValueError(f"grid data is only supported for the kernel, not {name}")
        grid = data
        n_grid = spec_dims["n_grid"]
        if grid.shape[:2] != (n_grid, n_grid):
            raise ValueError(f"kernel grid must be {n_grid} x {n_grid} in its node indices")
        magnitude = np.abs(grid).max(axis=tuple(range(2, grid.ndim)), initial=0.0)
        lower = np.argwhere(np.tril(magnitude > ZERO_SAMPLE_TOL, -1))
        if lower.size:
            j, k = lower[0]
            raise ValueError(
                f"kernel causality violated: grid entry ({j}, {k}) is nonzero for s > t"
            )
        horizon = spec_dims["T"]
        h = horizon / n_grid

        def k_fn(s, t, _g=grid, _h=h):
            j = min(int(s / _h), n_grid - 1)
            k = min(int(t / _h), n_grid - 1)
            cell = np.atleast_2d(_g[j, k])
            # A diagonal cell also covers pairs s > t, where the kernel vanishes.
            return np.zeros_like(cell) if s > t else cell

        return k_fn
    raise ValueError(f"unknown data kind {kind!r} for {name}")


def clp_spec_from_dict(d):
    dims = {"n_grid": _as_count(d["n_grid"], "n_grid"), "T": _as_array(d["T"], "T", 0).item()}
    bound = d.get("bound", 1e6)
    return ContinuousLPSpec(
        m=_as_count(d["m"], "m"),
        n=_as_count(d["n"], "n"),
        horizon=dims["T"],
        n_grid=dims["n_grid"],
        B=_field_from_dict(d["B"], "B", dims),
        K=_field_from_dict(d["K"], "K", dims),
        b=_field_from_dict(d["b"], "b", dims),
        c=_field_from_dict(d["c"], "c", dims),
        bound=np.inf if bound is None else _as_array(bound, "bound", 0).item(),
    )
