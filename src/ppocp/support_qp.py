"""Dual-side route: halfspace set, nonnegative-orthant QP, and recovery maps.

The projection can be recovered from the set ``D = {y : <z_i, y> >= 1}``:
its minimum-norm element ``y_bar`` satisfies ``rho = y_bar / ||y_bar||^2``.
Minimizing ``||y||^2`` over ``D`` has the dual program

    minimize  f(u) = 1/4 <u, C C^T u> - <e, u>   over  u >= 0,

whose solution gives ``y_bar = -1/2 C^T u*`` in closed form.  ``D`` is empty
exactly when the hull contains the origin, in which case ``f`` is unbounded
below; the solver reports that as a status rather than an error.

The solver is projected gradient descent with Barzilai-Borwein steps,
monotonized by step halving, followed by an active-set polish that solves
the stationarity system on the support to near machine precision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ConstraintSystem,
    Polyhedron,
    ToleranceConfig,
    constraint_matrix,
    gram_matrix,
)
from .errors import MaxIterExceeded, NegativeDualVariable, ZeroVector

__all__ = [
    "DualStatus",
    "DualOutcome",
    "invert_support_vector",
    "dual_objective",
    "dual_gradient",
    "solve_dual",
    "recover_primal",
    "rho_from_ybar",
]


class DualStatus(enum.Enum):
    SOLVED = "solved"
    UNBOUNDED_BELOW = "unbounded-below"


@dataclass(frozen=True)
class DualOutcome:
    """Dual solution and the primal data recovered from it.

    ``u_star``, ``y_bar``, ``rho`` and ``f_star`` are present only when
    ``status`` is SOLVED; unboundedness signals that the hull contains the
    origin.
    """

    status: DualStatus
    u_star: np.ndarray | None
    y_bar: np.ndarray | None
    rho: np.ndarray | None
    f_star: float | None
    iterations: int


def invert_support_vector(y, zero_tol: float = DEFAULT_TOLERANCES.zero_tol):
    """Map ``y`` to ``y / ||y||^2``.

    This involution exchanges the halfspace set ``D`` with the ball-defined
    set of support vectors, and in particular carries the minimum-norm point
    of ``D`` to the projection itself.
    """
    y = np.asarray(y, dtype=float)
    norm_sq = float(y @ y)
    if norm_sq <= zero_tol * zero_tol:
        raise ZeroVector("cannot invert a numerically zero vector")
    return y / norm_sq


def _check_nonnegative(u, m: int, feas_tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (m,):
        raise NegativeDualVariable(f"dual vector must have length {m}")
    if u.min() < -feas_tol:
        raise NegativeDualVariable(f"dual vector has entry {u.min():.3e} below zero")
    return u


def dual_objective(
    S: ConstraintSystem, u, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> float:
    """Evaluate ``f(u) = 1/4 <u, C C^T u> - <e, u>`` on the orthant."""
    u = _check_nonnegative(u, S.C.shape[0], cfg.feas_tol)
    g = S.C.T @ u
    return 0.25 * float(g @ g) - float(S.e @ u)


def dual_gradient(S: ConstraintSystem, u) -> np.ndarray:
    """Gradient ``1/2 C C^T u - e`` of the dual objective."""
    u = np.asarray(u, dtype=float)
    return 0.5 * (S.C @ (S.C.T @ u)) - S.e


def recover_primal(S: ConstraintSystem, u) -> np.ndarray:
    """Closed-form primal recovery ``y_bar = -1/2 C^T u``."""
    u = np.asarray(u, dtype=float)
    return -0.5 * (S.C.T @ u)


def rho_from_ybar(y_bar, zero_tol: float = DEFAULT_TOLERANCES.zero_tol):
    """Normalize the minimum-norm element of ``D`` into the projection."""
    return invert_support_vector(y_bar, zero_tol)


def _projected_gradient(u, g):
    pg = np.where(u > 0.0, g, np.minimum(g, 0.0))
    return pg


def _polish_orthant(B, u, tol):
    """Active-set refinement of a stationary point of f on the orthant.

    Solves ``1/2 B_SS x = e_S`` on the current support, dropping the most
    negative coordinate when the solve leaves the orthant and growing the
    support with the worst violated gradient coordinate.  Returns the
    refined vector, or None when no certified point was reached within the
    step budget.
    """
    m = B.shape[0]
    support = np.flatnonzero(u > 1e-12).tolist()
    if not support:
        support = [0]
    for _ in range(4 * m + 8):
        for _ in range(m + 1):
            sub = np.ix_(support, support)
            x, *_ = np.linalg.lstsq(0.5 * B[sub], np.ones(len(support)), rcond=None)
            if x.min() >= -1e-12:
                break
            worst = int(np.argmin(x))
            support.pop(worst)
            if not support:
                return None
        cand = np.zeros(m)
        cand[support] = np.maximum(x, 0.0)
        grad = 0.5 * (B @ cand) - 1.0
        mask = np.ones(m, dtype=bool)
        mask[support] = False
        if not mask.any() or float(grad[mask].min()) >= -tol:
            on_support = float(np.abs(grad[support]).max()) if support else 0.0
            if on_support <= tol:
                return cand
            return None
        j = int(np.flatnonzero(mask)[np.argmin(grad[mask])])
        support.append(j)
    return None


def solve_dual(P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> DualOutcome:
    """Minimize the dual objective over the nonnegative orthant.

    Returns a SOLVED outcome with the recovered ``y_bar`` and projection, or
    UNBOUNDED_BELOW when the iterates diverge while the objective keeps
    falling, which certifies (heuristically; the exact statement is cross
    checked elsewhere) that the hull contains the origin.

    Raises MaxIterExceeded when neither happens within the budget.
    """
    S = constraint_matrix(P)
    B = gram_matrix(P).B
    m = P.m
    scale = 1.0 + max(float(B.max()), -float(B.min()))

    u = np.zeros(m)
    f = 0.0
    g = -np.ones(m)
    prev_u = None
    prev_g = None
    decrease_run = 0
    iterations = 0

    def diverging(it: int) -> bool:
        # Heuristic by necessity: a run of monotone decreases while the
        # iterate norm passes the cap.  At norms where further decreases fall
        # below floating-point resolution the objective value itself (already
        # below -cap, i.e. an implied distance under 1/sqrt(cap)) stands in
        # for the run count.
        if float(np.linalg.norm(u)) <= cfg.unbounded_cap:
            return False
        return decrease_run >= min(100, it - 1) or f <= -cfg.unbounded_cap

    for iterations in range(1, cfg.max_iter + 1):
        pg = _projected_gradient(u, g)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= cfg.opt_tol:
            break
        if diverging(iterations):
            return DualOutcome(
                status=DualStatus.UNBOUNDED_BELOW,
                u_star=None,
                y_bar=None,
                rho=None,
                f_star=None,
                iterations=iterations,
            )

        if prev_u is None:
            d = -pg
            curv = float(d @ (B @ d))
            gamma = 2.0 * float(pg @ pg) / curv if curv > 0 else 1e6
        else:
            s = u - prev_u
            yd = g - prev_g
            # The radial direction is line-searched exactly below, so estimate
            # the Barzilai-Borwein curvature from the deflated differences;
            # mixing the near-flat ray into the estimate makes the steps
            # collapse once the iterate norm grows.
            norm_u = float(np.linalg.norm(u))
            if norm_u > 0.0:
                uh = u / norm_u
                s = s - float(s @ uh) * uh
                yd = yd - float(yd @ uh) * uh
            sy = float(s @ yd)
            gamma = float(s @ s) / sy if sy > 1e-300 else 1e12
        gamma = min(max(gamma, 1e-12), 1e15)

        prev_u, prev_g = u, g
        accepted = False
        for _ in range(80):
            u_new = np.maximum(u - gamma * pg, 0.0)
            gc = S.C.T @ u_new
            f_new = 0.25 * float(gc @ gc) - float(u_new.sum())
            if f_new <= f:
                accepted = True
                break
            gamma *= 0.5
        if not accepted or not np.any(u_new != u):
            if diverging(iterations):
                return DualOutcome(
                    status=DualStatus.UNBOUNDED_BELOW,
                    u_star=None,
                    y_bar=None,
                    rho=None,
                    f_star=None,
                    iterations=iterations,
                )
            break  # stalled; hand over to the polish phase

        # Exact radial descent: along the ray t * u the objective is a scalar
        # quadratic minimized at t = 2 sum(u) / <u, B u>.  On instances with
        # no minimizer the normalized iterate approaches a direction with
        # vanishing quadratic term, so this rescale blows the norm up
        # geometrically and the divergence guard fires quickly; on bounded
        # instances it is one more monotone descent step.
        quad = float(u_new @ (B @ u_new))
        lin = float(u_new.sum())
        if lin > 0.0 and quad > 0.0:
            t = min(2.0 * lin / quad, 100.0)
            if t > 1.0:
                cand = t * u_new
                f_cand = 0.25 * t * t * quad - t * lin
                if f_cand <= f_new:
                    u_new, f_new = cand, f_cand

        decrease_run = decrease_run + 1 if f_new < f else 0
        u, f = u_new, f_new
        g = 0.5 * (B @ u) - 1.0
    else:
        raise MaxIterExceeded(
            f"dual solver did not converge in {cfg.max_iter} iterations",
            best=u,
            residual=float(np.linalg.norm(_projected_gradient(u, g))),
            iterations=cfg.max_iter,
        )

    tol_polish = 1e-12 * scale * (1.0 + float(np.linalg.norm(u)))
    polished = _polish_orthant(B, u, tol_polish)
    if polished is not None:
        gp = 0.5 * (B @ polished) - 1.0
        if float(np.linalg.norm(_projected_gradient(polished, gp))) <= float(
            np.linalg.norm(_projected_gradient(u, g))
        ):
            u = polished
            g = gp

    pg_norm = float(np.linalg.norm(_projected_gradient(u, g)))
    if pg_norm > cfg.opt_tol:
        raise MaxIterExceeded(
            f"dual stationarity residual {pg_norm:.3e} above {cfg.opt_tol:.1e}",
            best=u,
            residual=pg_norm,
            iterations=iterations,
        )

    u = np.maximum(u, 0.0)
    y_bar = recover_primal(S, u)
    rho = rho_from_ybar(y_bar, cfg.zero_tol)
    f_star = dual_objective(S, u, cfg)
    return DualOutcome(
        status=DualStatus.SOLVED,
        u_star=u,
        y_bar=y_bar,
        rho=rho,
        f_star=f_star,
        iterations=iterations,
    )
