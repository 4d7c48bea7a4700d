"""Maximin route: the best separating direction over the unit ball.

The function ``t(c) = min_i <c, z_i>`` is the worst vertex inner product in
direction ``c``; maximizing it over the unit ball gives exactly the distance
from the origin to the hull, attained (when that distance is positive) at
the unit vector pointing toward the projection.  The projection itself is
then ``c * t(c)``.  When the hull contains the origin the optimal value is
zero, reached already at ``c = 0``.

The solver runs projected supergradient ascent with a ``1/(G sqrt(k))``
schedule, tracking the best iterate, then polishes with Wolfe's
minimum-norm-point algorithm (``core.refine_simplex_minimizer``, shared
with the wolfe route) started from the best direction's active vertices,
so the reported value meets the distance identity to near machine
precision (the ascent phase alone converges far too slowly for that).
``iterations`` counts ascent steps plus the polish's minor cycles.
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

__all__ = ["MaximinSolution", "solve_maximin", "projection_from_maximin", "cone_nonempty"]

_ASCENT_BUDGET = 200


@dataclass(frozen=True)
class MaximinSolution:
    """Best direction found, its support value, and the recovered projection."""

    c_hat: np.ndarray
    t_value: float
    rho: np.ndarray
    iterations: int
    origin_inside: bool


def projection_from_maximin(
    c_hat, t_value: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Recover the projection from a maximin solution.

    A positive optimal value scales the direction; a zero value means the
    origin lies in the hull and projects onto itself.
    """
    c_hat = np.asarray(c_hat, dtype=float)
    if t_value > cfg.zero_tol:
        return c_hat * t_value
    return np.zeros_like(c_hat)


def solve_maximin(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MaximinSolution:
    """Maximize ``min_i <c, z_i>`` over the unit ball.

    Deterministic: ascent starts from the normalized vertex centroid, the
    supergradient is the lowest-index achieving vertex, and iterates leaving
    the ball are pulled back radially.
    """
    z = P.vertices
    norms = np.linalg.norm(z, axis=1)
    G = float(norms.max())
    if G == 0.0:
        # Every vertex sits at the origin; the hull is {0}.
        return MaximinSolution(
            c_hat=np.zeros(P.n),
            t_value=0.0,
            rho=np.zeros(P.n),
            iterations=0,
            origin_inside=True,
        )

    centroid = z.mean(axis=0)
    c_norm = float(np.linalg.norm(centroid))
    c = centroid / c_norm if c_norm > 0 else np.zeros(P.n)

    best_t = 0.0  # c = 0 is feasible with value 0
    best_c = np.zeros(P.n)
    iterations = 0
    for k in range(1, min(cfg.max_iter, _ASCENT_BUDGET) + 1):
        iterations += 1
        t_c, idx = support_value(P, c)
        if t_c > best_t:
            best_t, best_c = t_c, c.copy()
        step = 1.0 / (G * np.sqrt(k))
        c = c + step * z[idx]
        norm_c = float(np.linalg.norm(c))
        if norm_c > 1.0:
            c = c / norm_c

    # Minimum-norm-point polish seeded from the best direction's active
    # vertices: the optimality conditions tie the maximizer to the
    # minimum-norm point of the active set's hull, so the polish closes the
    # gap the ascent schedule cannot.  On an origin-inside hull best_c = 0
    # makes every vertex active; the corral still starts from one of them.
    values = z @ best_c
    cutoff = best_t + 1e-6 * (1.0 + abs(best_t))
    weights, polish_steps = refine_simplex_minimizer(z, values <= cutoff)
    iterations += polish_steps

    w = weights @ z
    w_norm = float(np.linalg.norm(w))
    if w_norm > cfg.zero_tol:
        c_hat = w / w_norm
        t_value, _ = support_value(P, c_hat)
        if t_value < best_t:
            # Keep the ascent iterate if the polish somehow did worse.
            c_hat, t_value = best_c, best_t
        return MaximinSolution(
            c_hat=c_hat,
            t_value=t_value,
            rho=projection_from_maximin(c_hat, t_value, cfg),
            iterations=iterations,
            origin_inside=t_value <= cfg.zero_tol,
        )
    return MaximinSolution(
        c_hat=np.zeros(P.n),
        t_value=0.0,
        rho=np.zeros(P.n),
        iterations=iterations,
        origin_inside=True,
    )


def cone_nonempty(P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Whether some direction has every vertex inner product strictly positive.

    The set of such directions is a cone; it is nonempty exactly when the
    origin lies outside the hull, which the maximin value decides.
    """
    return solve_maximin(P, cfg).t_value > cfg.zero_tol
