"""Exception types shared by the solver routes, one for each solver exit code."""


class PpocpError(Exception):
    """Base class for all solver-suite errors."""


class MaxIterExceeded(PpocpError):
    """A solver stopped before its stopping contract was met: the CLI exits 3.

    Raised when an iteration budget runs out, and when Lemke's pivot path
    revisits a basis or passes its pivot limit.  A first-order solver's
    raise carries the best iterate seen and its residual so callers can
    inspect how close the solver got.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class InternalInconsistency(PpocpError):
    """Two computations that must agree did not: the CLI exits 4.

    Raised when an answer fails its optimality residual, when a complementary
    solution fails verification or leaves no positive multiplier, and when
    weights or a pivot basis break their invariants.
    """
