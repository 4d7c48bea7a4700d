"""Exception types shared by the solver routes, one for each solver exit code.

Each solver error carries its message and nothing else.
"""


class PpocpError(Exception):
    """Base class for all solver-suite errors."""


class MaxIterExceeded(PpocpError):
    """A solver stopped before its stopping contract was met: the CLI exits 3.

    Raised when an iteration budget runs out, and when Lemke's pivot path
    revisits a basis or passes its pivot limit.
    """


class InternalInconsistency(PpocpError):
    """Two computations that must agree did not: the CLI exits 4.

    Raised when an answer fails its optimality residual, when a complementary
    solution fails verification or leaves no positive multiplier, and when
    weights or a pivot basis break their invariants.
    """
