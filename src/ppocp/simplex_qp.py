"""Minimum-norm convex combination of the vertices.

The projection is the point ``sum_i a_i z_i`` minimizing the quadratic form
``<a, B a>`` over the standard simplex, where ``B`` is the Gram matrix of the
vertices.  A weight vector is optimal exactly when every row satisfies
``(B a)_i >= <a, B a>``; the signed slack of that criterion is the
``optimality_gap`` exposed here.

The solver is Wolfe's minimum-norm-point algorithm
(``core.refine_simplex_minimizer``), run on the vertex rows in R^n with a
corral of at most n + 1 vertices; ``B`` itself is only formed by ``phi``
and ``optimality_gap``.  Its linear oracle is the lowest-index vertex
minimizing ``<z_i, x>`` at the current point ``x = a @ Z``, and its
affine-hull solves close the gap to near machine precision so that
independently computed routes agree tightly.  ``iterations`` counts the
algorithm's minor cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ToleranceConfig,
    gram_matrix,
    refine_simplex_minimizer,
)
from .errors import MaxIterExceeded, SimplexViolation

__all__ = ["SimplexSolution", "phi", "optimality_gap", "solve_wolfe"]


@dataclass(frozen=True)
class SimplexSolution:
    """Optimal convex weights and the point they combine to."""

    alpha: np.ndarray
    rho: np.ndarray
    phi: float
    gap: float
    iterations: int
    origin_inside: bool
    trace: tuple[float, ...] | None = None


def _check_simplex(alpha, m: int, feas_tol: float) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (m,):
        raise SimplexViolation(f"weight vector must have length {m}")
    if alpha.min() < -feas_tol or abs(alpha.sum() - 1.0) > feas_tol:
        raise SimplexViolation(
            f"weights off the simplex: min {alpha.min():.3e}, "
            f"sum deviation {alpha.sum() - 1.0:.3e}"
        )
    return alpha


def phi(P: Polyhedron, alpha, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Quadratic form ``<alpha, B alpha>``, the squared norm of the combination."""
    alpha = _check_simplex(alpha, P.m, cfg.feas_tol)
    B = gram_matrix(P).B
    return float(alpha @ B @ alpha)


def optimality_gap(
    P: Polyhedron, alpha, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> float:
    """Signed slack ``<alpha, B alpha> - min_i (B alpha)_i``.

    Nonpositive values certify optimality of ``alpha``; callers typically
    assert the returned value is at most ``opt_tol``.
    """
    alpha = _check_simplex(alpha, P.m, cfg.feas_tol)
    B = gram_matrix(P).B
    w = B @ alpha
    return float(alpha @ w - w.min())


def solve_wolfe(
    P: Polyhedron,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    start=None,
    record_trace: bool = False,
) -> SimplexSolution:
    """Minimize ``<a, B a>`` over the simplex and recover the projection.

    Parameters
    ----------
    P : Polyhedron
        Problem instance.
    cfg : ToleranceConfig
        ``opt_tol`` is the stopping contract on the optimality gap;
        ``zero_tol`` flags origin membership when the optimum is ~0.
    start : array, optional
        Initial weights (defaults to uniform); the corral starts at the
        lowest-norm vertex of their support.  Exposed so tests can verify
        that the recovered point is start-independent even when the optimal
        weights are not unique.
    record_trace : bool
        Attach ``||x||^2`` at each major cycle as ``solution.trace``.

    Raises
    ------
    MaxIterExceeded
        If the gap contract cannot be met; carries the best iterate.
    """
    m = P.m
    if start is None:
        alpha = np.full(m, 1.0 / m)
    else:
        alpha = _check_simplex(start, m, cfg.feas_tol)

    trace: list[float] | None = [] if record_trace else None
    alpha, iterations = refine_simplex_minimizer(
        P.vertices, alpha, max_cycles=cfg.max_iter, trace=trace
    )
    x = alpha @ P.vertices
    phi_val = float(x @ x)
    gap = phi_val - float((P.vertices @ x).min())
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
        origin_inside=phi_val <= cfg.zero_tol,
        trace=tuple(trace) if record_trace else None,
    )
