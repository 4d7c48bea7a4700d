"""Minimum-norm convex combination of the vertices.

The projection is the point ``sum_i a_i z_i`` minimizing the quadratic form
``<a, B a>`` over the standard simplex, where ``B`` is the Gram matrix of the
vertices.  A weight vector is optimal exactly when every row satisfies
``(B a)_i >= <a, B a>``; ``solve_wolfe`` reports the signed slack of that
criterion as ``SimplexSolution.gap``.

The solver is Wolfe's minimum-norm-point algorithm
(``core.refine_simplex_minimizer``), run on the vertex rows in R^n with a
corral of at most n + 1 vertices.  Its linear oracle is the lowest-index
vertex minimizing ``<z_i, x>`` at the current point ``x = a @ Z``, and its
affine-hull solves close the gap to near machine precision so that
independently computed routes agree tightly.  ``iterations`` counts the
algorithm's minor cycles.  ``B`` itself is never formed: the objective
``phi`` and the gap evaluate ``B a = Z x`` at ``x = a @ Z`` in O(mn).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ToleranceConfig,
    gram_matrix,  # unused here; kept as a module attribute for perfbench/tracing.py
    refine_simplex_minimizer,
)
from .errors import MaxIterExceeded

__all__ = ["SimplexSolution", "solve_wolfe"]


@dataclass(frozen=True)
class SimplexSolution:
    """Optimal convex weights and the point they combine to."""

    alpha: np.ndarray
    rho: np.ndarray
    phi: float
    gap: float
    iterations: int
    origin_inside: bool


def _phi_and_gap(Z, alpha) -> tuple[np.ndarray, float, float]:
    """The point ``x = alpha @ Z``, ``<alpha, B alpha> = ||x||^2`` and the gap."""
    x = alpha @ Z
    phi_val = float(x @ x)
    return x, phi_val, phi_val - float((Z @ x).min())


def solve_wolfe(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> SimplexSolution:
    """Minimize ``<a, B a>`` over the simplex and recover the projection.

    Runs ``refine_simplex_minimizer`` within ``cfg.max_iter`` major cycles,
    the call ``solve_maximin`` makes, and checks the gap of its weights.

    Parameters
    ----------
    P : Polyhedron
        Problem instance.
    cfg : ToleranceConfig
        ``opt_tol`` is the stopping contract on the optimality gap;
        ``zero_tol`` flags origin membership when ``||rho|| <= zero_tol``,
        the rule every route's answer votes by.

    Raises
    ------
    MaxIterExceeded
        If the gap contract cannot be met; carries the best iterate.
    """
    alpha, iterations = refine_simplex_minimizer(P.vertices, cfg.max_iter)
    x, phi_val, gap = _phi_and_gap(P.vertices, alpha)
    if gap > cfg.opt_tol:
        raise MaxIterExceeded(
            f"optimality gap {gap:.3e} above {cfg.opt_tol:.1e} "
            f"after {iterations} iterations",
            best=alpha,
            residual=gap,
            iterations=iterations,
        )
    return SimplexSolution(
        alpha=alpha,
        rho=x,
        phi=phi_val,
        gap=gap,
        iterations=iterations,
        origin_inside=float(np.linalg.norm(x)) <= cfg.zero_tol,
    )
