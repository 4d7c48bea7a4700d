"""Exception types shared by the solver routes."""


class PpocpError(Exception):
    """Base class for all solver-suite errors."""


class MaxIterExceeded(PpocpError):
    """Iteration budget exhausted before the stopping contract was met.

    Carries the best iterate seen and its residual so callers can inspect
    how close the solver got.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class InternalInconsistency(PpocpError):
    """Two mathematically equivalent computations disagreed beyond tolerance."""


class PivotLimitExceeded(PpocpError):
    """Complementary pivoting hit the cycling safeguard."""


class InconsistentOutcome(PpocpError):
    """A recovered projection failed its own optimality certificate."""
