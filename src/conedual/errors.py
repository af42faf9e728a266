"""Exception types shared across the library."""


class SolverFailure(RuntimeError):
    """An iterative solver hit its iteration cap or a numerical guard.

    The NNLS raises it only at its iteration cap: an outer iteration that
    does not lower the residual rejects its entering index instead.
    ``detail`` carries solver state useful for post-mortems (best iterate,
    basis indices, pivot magnitudes).
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail if detail is not None else {}


class TheoremViolation(RuntimeError):
    """A verified precondition held but the asserted conclusion failed.

    Raised only by the verification pipelines; carries the full report so
    the failing instance can be reproduced.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IndeterminateAlternative(RuntimeError):
    """Neither branch of the alternative verifies: the solution and the
    certificate built from the residual minimizer both fail their check."""

    def __init__(self, message, value=None, tol=None):
        super().__init__(message)
        self.value = value
        self.tol = tol
