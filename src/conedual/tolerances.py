"""Every numerical tolerance of the package, each named once.

The alternative and both duality theorems are exact statements; the
package decides them in floating point through the values below.  A value
is shared only by sites that test the same thing, so two names can hold
the same number.  Each name says what it bounds, in which units, and
whether it is absolute or relative.  This module imports nothing.
"""

DECISION_TOL = 1e-8
"""Default ``tol`` of every decision: bounds residuals and margins (absolute, in pairing norms) and duality gaps (interior pipeline: relative to ``1 + |v|``)."""

STRICT_TOL = 1e-7
"""Strict-feasibility checks (the ``-b in T*``/``c in S*`` gate, a strict member's images): absolute Euclidean distance to a dual cone."""

INTERIOR_TOL = 1e-6
"""Boundary margin: absolute depth inside a cone for a point to count as interior, in coordinates, and in radians for wedge angles."""

STRICT_MEMBER_MARGIN = 1e-9
"""Absolute interior margin a strict member must clear in ``S``, in coordinates."""

MEMBERSHIP_TOL = 1e-9
"""Default cone-membership tolerance: absolute Euclidean distance to the cone."""

REAL_COORD_CUTOFF = 1e-9
"""Absolute imaginary part at or below which a complex optimizer coordinate is real and gets no angle."""

STATIONARITY_TOL = 1e-12
"""NNLS stationarity: absolute bound on the dual vector ``M^T (b - M u)`` for an index to enter."""

BLOCKING_TIE_TOL = 1e-15
"""NNLS blocking step: absolute band on the step ratio, in ``[0, 1]``, within which every blocking index leaves."""

PIVOT_TOL = 1e-9
"""Simplex pivot entries relative to the largest entry of their sign in the pivot row or column, at least absolute."""

RATIO_TIE_TOL = 1e-12
"""Simplex ratio tests and ``mu`` steps: absolute band above the smallest ratio within which candidates tie, the smallest variable index taking the pivot."""

CLAMP_TOL = 1e-12
"""Absolute size below which a final basic value or row multiplier of the simplex is roundoff, read as 0."""

MU_TOL = 1e-9
"""Self-dual simplex: bound on the unitless perturbation ``mu`` at which a basis counts as optimal; ``mu`` moves ``b`` and ``c`` by ``mu`` times a power of two within a factor 2 above ``1 + max |b|`` and ``1 + max |c|``."""

PROBE_SLACK = 1e-12
"""Interior probe of generated cones: distance a probe point may lie from the cone, relative to ``1 + ||v||``."""

ZERO_SAMPLE_TOL = 1e-12
"""Absolute magnitude at or below which a sample of continuous-program data counts as zero, in causality and sign tests."""

ADJOINT_TOL = 1e-10
"""Default bound of the adjoint-identity check: absolute on ``|<A x, y> - <x, A^T y>|`` at standard normal samples."""
