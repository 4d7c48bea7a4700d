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
runs the kernel once, in the wolfe route, and hands its weights to the
check.  ``iterations`` counts the kernel's minor cycles.
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
    support_value,
)
from .errors import MaxIterExceeded

__all__ = [
    "MaximinSolution",
    "solve_maximin",
    "maximin_from_weights",
]


@dataclass(frozen=True)
class MaximinSolution:
    """Best direction found, its support value, the kernel's convex weights
    ``alpha`` and their point ``rho = alpha @ Z``, the projection."""

    c_hat: np.ndarray
    t_value: float
    rho: np.ndarray
    iterations: int
    origin_inside: bool
    alpha: np.ndarray


def solve_maximin(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MaximinSolution:
    """Maximize ``min_i <c, z_i>`` over the unit ball.

    Runs ``refine_simplex_minimizer`` within ``cfg.max_iter`` major cycles,
    the call ``solve_wolfe`` makes, and reads the answer off its weights with
    ``maximin_from_weights``, whose MaxIterExceeded it raises.
    """
    weights, iterations = refine_simplex_minimizer(P.vertices, cfg.max_iter)
    return maximin_from_weights(P, weights, iterations, cfg)


def maximin_from_weights(
    P: Polyhedron, weights, iterations: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MaximinSolution:
    """The maximin answer read off the kernel's weights, once they pass its check.

    The answer ``rho`` is ``w = weights @ Z``, meant to be the hull's
    minimum-norm point.  The direction is ``c_hat = w/||w||`` (``c_hat = 0``
    when ``w`` is exactly the origin) and ``t_value = min_i <c_hat, z_i>``,
    a lower bound on the distance.  ``origin_inside`` is ``||w|| <= zero_tol``,
    the rule every route's answer votes by.  ``iterations`` is the kernel's
    count, reported as the route's.

    Raises
    ------
    MaxIterExceeded
        If ``t_value`` misses the distance identity ``t = ||w||``, that is
        when ``||w|| (||w|| - t_value)``, the wolfe route's gap
        ``||w||^2 - min_i <z_i, w>`` up to rounding, exceeds ``opt_tol``;
        carries the weights.
    """
    w = weights @ P.vertices
    w_norm = float(np.linalg.norm(w))
    c_hat = w / w_norm if w_norm > 0.0 else w
    t_value, _ = support_value(P, c_hat)
    gap = w_norm * (w_norm - t_value)
    if gap > cfg.opt_tol:
        raise MaxIterExceeded(
            f"maximin value {t_value:.17g} misses the distance identity "
            f"t = ||w|| = {w_norm:.17g}: gap {gap:.3e} above {cfg.opt_tol:.1e} "
            f"after {iterations} iterations",
            best=weights,
            residual=gap,
            iterations=iterations,
        )
    return MaximinSolution(
        c_hat=c_hat,
        t_value=t_value,
        rho=w,
        iterations=iterations,
        origin_inside=w_norm <= cfg.zero_tol,
        alpha=weights,
    )
