"""Maximin route: the best separating direction over the unit ball.

The function ``t(c) = min_i <c, z_i>`` is the worst vertex inner product in
direction ``c``; maximizing it over the unit ball gives exactly the distance
from the origin to the hull, attained (when that distance is positive) at
the unit vector pointing toward the projection.  When the hull contains the
origin the optimal value is zero, reached already at ``c = 0``.

The maximizer is read off the hull's minimum-norm point ``w``: ``c = w/||w||``
with value ``t = ||w||`` (the distance identity).  ``w`` comes from
``core.refine_simplex_minimizer``, called as the wolfe route calls it, so
both routes get bit-identical weights.  The check is what is maximin here,
``maximin_from_weights``: ``t = min_i <c, z_i>`` must meet the distance
identity within ``||w|| (||w|| - t) <= opt_tol``.  That left side equals
``||w||^2 - min_i <z_i, w>``, the wolfe route's optimality gap, so the two
routes share one kernel and one gap inequality: their agreement confirms
neither.  The answer is the weights' point ``w`` itself, which lies in the
hull; ``t`` is the lower end of the distance bracket ``[t, ||w||]``.
``solve_maximin`` runs the kernel and then the check; ``certify.cross_check``
hands the check the weights of the wolfe route's answer when that answer
passed, and otherwise calls ``solve_maximin``.  Both return the route's
ProjectionResult, which ``core.projection_result`` builds from the weights.
``iterations`` counts the kernel's minor cycles.
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
    support_value,
)
from .errors import MaxIterExceeded

__all__ = ["solve_maximin", "maximin_from_weights"]


def solve_maximin(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectionResult:
    """Maximize ``min_i <c, z_i>`` over the unit ball; the maximin route's answer.

    Runs ``refine_simplex_minimizer`` within ``cfg.max_iter`` major cycles,
    the call ``solve_wolfe`` makes, and reads the answer off its weights with
    ``maximin_from_weights``, whose MaxIterExceeded it raises.  A singular
    bordered system in the kernel raises InternalInconsistency.
    """
    weights, iterations = refine_simplex_minimizer(P.vertices, cfg.max_iter)
    return maximin_from_weights(P, weights, iterations, cfg)


def maximin_from_weights(
    P: Polyhedron, weights, iterations: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectionResult:
    """The maximin answer read off the kernel's weights, once they pass its check.

    The answer is the record ``core.projection_result`` builds from the
    weights: ``rho = w = weights @ Z``, meant to be the hull's minimum-norm
    point.  The direction is ``c = w/||w||`` (``c = 0`` when ``w`` is exactly
    the origin) and ``t = min_i <c, z_i>``, a lower bound on the distance.
    ``iterations`` is the kernel's count, reported as the route's.

    Raises
    ------
    MaxIterExceeded
        If ``t`` misses the distance identity ``t = ||w||``, that is when
        ``||w|| (||w|| - t)``, the wolfe route's gap ``||w||^2 - min_i <z_i, w>``
        up to rounding, exceeds ``opt_tol``.  Like wolfe's, the check is
        absolute on ``Z`` as given, and past ``max_i ||z_i|| = 2^511`` its gap
        overflows.
    """
    result = projection_result(P, weights, iterations, cfg)
    w, w_norm = result.rho, result.distance
    c = w / w_norm if w_norm > 0.0 else w
    t, _ = support_value(P, c)
    gap = w_norm * (w_norm - t)
    if gap > cfg.opt_tol:
        raise MaxIterExceeded(
            f"maximin value {t:.17g} misses the distance identity "
            f"t = ||w|| = {w_norm:.17g}: gap {gap:.3e} above {cfg.opt_tol:.1e} "
            f"after {iterations} iterations"
        )
    return result
