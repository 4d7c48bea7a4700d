"""Minimum-norm convex combination of the vertices.

The projection is the point ``sum_i a_i z_i`` minimizing the quadratic form
``<a, B a>`` over the standard simplex, where ``B`` is the Gram matrix of the
vertices.  A weight vector is optimal exactly when every row satisfies
``(B a)_i >= <a, B a>``; the signed slack of that criterion, the gap
``<a, B a> - min_i (B a)_i``, is ``-vi_min`` of the answer's record.

The solver is Wolfe's minimum-norm-point algorithm
(``core.refine_simplex_minimizer``), run on the vertex rows in R^n with a
corral of at most n + 1 vertices.  Its linear oracle is the lowest-index
vertex minimizing ``<z_i, x>`` at the current point ``x = a @ Z``, and its
affine-hull solves close the gap to near machine precision so that
independently computed routes agree tightly.  ``iterations`` counts the
algorithm's minor cycles.  ``B`` itself is never formed: the gap evaluates
``B a = Z x`` at ``x = a @ Z`` in O(mn).
"""

from __future__ import annotations

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    ToleranceConfig,
    gram_matrix,  # unused here; kept as a module attribute for perfbench/tracing.py
    projection_result,
    refine_simplex_minimizer,
)
from .errors import MaxIterExceeded

__all__ = ["solve_wolfe"]


def solve_wolfe(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectionResult:
    """Minimize ``<a, B a>`` over the simplex; the wolfe route's answer.

    Runs ``refine_simplex_minimizer`` within ``cfg.max_iter`` major cycles,
    the call ``solve_maximin`` makes, and checks the gap of its weights.

    Parameters
    ----------
    P : Polyhedron
        Problem instance.
    cfg : ToleranceConfig
        ``opt_tol`` is the stopping contract on the optimality gap
        ``-vi_min``; ``zero_tol`` decides the answer's origin-membership vote
        (``core.projection_result``).

    Raises
    ------
    MaxIterExceeded
        If the gap contract cannot be met.  The kernel solves a power-of-two
        rescaling of ``Z``, but the contract is absolute on ``Z`` as given: far
        above unit scale rounding alone breaks it, and past
        ``max_i ||z_i|| = 2^511`` the gap overflows.
    InternalInconsistency
        If the kernel's bordered system is singular, which an affinely
        independent corral rules out in exact arithmetic.
    """
    alpha, iterations = refine_simplex_minimizer(P.vertices, cfg.max_iter)
    result = projection_result(P, alpha, iterations, cfg)
    gap = -result.vi_min
    if gap > cfg.opt_tol:
        raise MaxIterExceeded(
            f"optimality gap {gap:.3e} above {cfg.opt_tol:.1e} "
            f"after {iterations} iterations"
        )
    return result
