"""Dual-side route: halfspace set, nonnegative-orthant QP, and recovery maps.

The projection can be recovered from the set ``D = {y : <z_i, y> >= 1}``:
its minimum-norm element ``y_bar`` satisfies ``rho = y_bar / ||y_bar||^2``.
Minimizing ``||y||^2`` over ``D`` has the dual program

    minimize  f(u) = 1/4 <u, C C^T u> - <e, u>   over  u >= 0,

whose solution gives ``y_bar = -1/2 C^T u*`` in closed form.  ``D`` is empty
exactly when the hull contains the origin, in which case ``f`` is unbounded
below; the solver reports that as a status rather than an error.

The solver is the dual active-set method of Goldfarb and Idnani ("A
numerically stable dual method for solving strictly convex quadratic
programs", Math. Prog. 27, 1983) for ``min 1/2 ||y||^2`` subject to
``Z y >= 1``, run in R^n on at most n active vertex rows; the m x m Gram
matrix is never formed.  Its multipliers ``lam`` are ``u / 2``.  When the
hull contains the origin it returns convex weights ``alpha`` with
``alpha @ Z = 0``, an exact witness in place of a divergence test.
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
    gram_matrix,  # unused here; kept as a module attribute for perfbench/tracing.py
)
from .errors import MaxIterExceeded, NegativeDualVariable, ZeroVector

__all__ = [
    "DualStatus",
    "DualOutcome",
    "ENTER_TOL",
    "DEPENDENT_TOL",
    "invert_support_vector",
    "dual_objective",
    "solve_dual",
    "recover_primal",
]

# A vertex row enters the active set while <z_p, y> < 1 - ENTER_TOL
# max_i ||z_i|| ||y||.  Rounding in <z_p, y> is about eps sqrt(n) ||z_p|| ||y||,
# so a row already active is never taken as violated on rounding alone.
ENTER_TOL = 64.0 * np.finfo(float).eps
# The entering row z_p = N r + z, with z outside the span of the active rows
# N, counts as dependent on them when ||z|| <= DEPENDENT_TOL max_i ||z_i||
# (1 + sum_j |r_j|): moving each vertex by that fraction of max_i ||z_i||
# makes z_p = N r exact.  Only a dependent row can close a convex combination
# through the origin, and the witness (1, -r) / (1 + sum_j |r_j|) then has
# ||alpha @ Z|| <= DEPENDENT_TOL max_i ||z_i|| up to rounding.
DEPENDENT_TOL = 64.0 * np.finfo(float).eps


class DualStatus(enum.Enum):
    SOLVED = "solved"
    UNBOUNDED_BELOW = "unbounded-below"


@dataclass(frozen=True)
class DualOutcome:
    """Dual solution and the primal data recovered from it.

    ``u_star``, ``y_bar``, ``rho`` and ``f_star`` are present only when
    ``status`` is SOLVED; unboundedness signals that the hull contains the
    origin.  ``alpha`` is always present: convex weights over the vertices
    with ``alpha @ Z = rho`` when SOLVED (``u_star / sum(u_star)``), and with
    ``alpha @ Z = 0`` when UNBOUNDED_BELOW.  ``iterations`` counts the
    active-set steps, adds and drops together.
    """

    status: DualStatus
    u_star: np.ndarray | None
    y_bar: np.ndarray | None
    rho: np.ndarray | None
    f_star: float | None
    iterations: int
    alpha: np.ndarray


def invert_support_vector(y, zero_tol: float = DEFAULT_TOLERANCES.zero_tol):
    """Map ``y`` to ``y / ||y||^2``.

    This involution exchanges the halfspace set ``D`` with the ball-defined
    set of support vectors, and in particular carries the minimum-norm point
    of ``D`` to the projection itself.  Since ``||y|| = 1 / distance`` there,
    a ``y`` with ``||y|| <= zero_tol`` is refused with ZeroVector: it places
    the hull at least ``1 / zero_tol`` from the origin.
    """
    y = np.asarray(y, dtype=float)
    norm_sq = float(y @ y)
    if norm_sq <= zero_tol * zero_tol:
        raise ZeroVector(
            f"support vector has ||y|| = {np.sqrt(norm_sq):.3e} <= zero_tol "
            f"= {zero_tol:.3e}; as ||y|| = 1/distance, the hull lies at least "
            f"{1.0 / zero_tol:.3e} from the origin"
        )
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


def recover_primal(S: ConstraintSystem, u) -> np.ndarray:
    """Closed-form primal recovery ``y_bar = -1/2 C^T u``."""
    u = np.asarray(u, dtype=float)
    return -0.5 * (S.C.T @ u)


def solve_dual(P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> DualOutcome:
    """Minimize the dual objective over the nonnegative orthant.

    Goldfarb-Idnani on ``min 1/2 ||y||^2`` subject to ``Z y >= 1``, from
    ``y = 0`` and an empty active set.  Each pass scans ``s = Z y - 1`` for
    ``p = argmin s`` (lowest index on ties) and stops once ``s_p`` clears
    ``ENTER_TOL``.  Otherwise ``z_p`` is split, through a thin QR of the
    active rows ``N`` (refactored whenever they change), into ``N r`` in
    their span and a part in its null space.  A null-space part allows a
    primal step, which adds ``p`` once ``s_p`` reaches zero; a multiplier
    ``lam_j - t r_j`` reaching zero first drops ``j`` instead (a partial
    step), and ``p`` is tried again.  A row dependent on the active rows
    (``DEPENDENT_TOL``) takes only the partial step; with no ``r_j > 0`` it
    has none, and ``z_p - N r = 0`` is a convex combination through the
    origin: the outcome is UNBOUNDED_BELOW with its weights ``(1, -r)``
    normalised as ``alpha``.  After each add, ``y`` and ``lam`` are solved
    afresh from the factors.

    Both tolerances are relative to ``max_i ||z_i||``, so scaling the
    vertices leaves the status and the step path unchanged and scales
    ``rho`` alike.

    Raises MaxIterExceeded when the answer needs more than ``cfg.max_iter``
    steps (adds and drops together), with the dual vector ``u = 2 lam`` of
    the last step as ``best``, the entering row's multiplier included, and
    the largest violation ``-min s`` as ``residual``.
    """
    Z = P.vertices
    m = P.m
    zmax = float(np.sqrt(np.einsum("ij,ij->i", Z, Z).max()))
    enter_tol = ENTER_TOL * zmax
    dependent_tol = DEPENDENT_TOL * zmax

    y = np.zeros(P.n)
    active: list[int] = []
    lam = np.zeros(0)
    Q, R = np.linalg.qr(Z[active].T)
    steps = 0

    def weights(values, rows):
        out = np.zeros(m)
        out[rows] = values
        return out

    def give_up(message, violation, entering, lam_entering):
        best = weights(2.0 * lam, active)
        best[entering] += 2.0 * lam_entering
        return MaxIterExceeded(
            message, best=best, residual=violation, iterations=steps
        )

    while True:
        s = Z @ y - 1.0
        p = int(np.argmin(s))
        if s[p] >= -enter_tol * float(np.linalg.norm(y)):
            break
        if p in active:
            # Only rounding can make an active row the most violated one.
            raise give_up(
                f"dual active-set solver stalled at vertex {p}", float(-s[p]), p, 0.0
            )
        zp = Z[p]
        sp = float(s[p])
        lam_p = 0.0  # the entering row's multiplier, built up by partial steps
        while True:
            if steps == cfg.max_iter:
                raise give_up(
                    f"dual solver did not converge in {cfg.max_iter} active-set steps",
                    float(-s[p]),
                    p,
                    lam_p,
                )
            q = Q.T @ zp
            z = zp - Q @ q
            r = np.linalg.solve(R, q)
            positive = np.flatnonzero(r > 0.0)
            if positive.size:
                ratios = lam[positive] / r[positive]
                drop = int(positive[np.argmin(ratios)])
                t1 = float(ratios.min())
            else:
                t1 = np.inf
            spread = 1.0 + float(np.abs(r).sum())
            dependent = float(np.linalg.norm(z)) <= dependent_tol * spread
            if dependent and not positive.size:
                alpha = weights(-r, active)
                alpha[p] = 1.0
                return DualOutcome(
                    status=DualStatus.UNBOUNDED_BELOW,
                    u_star=None,
                    y_bar=None,
                    rho=None,
                    f_star=None,
                    iterations=steps,
                    alpha=alpha / alpha.sum(),
                )
            steps += 1
            curvature = float(z @ zp)
            t2 = np.inf if dependent else -sp / curvature
            t = min(t1, t2)
            lam = lam - t * r
            lam_p += t
            sp += t * curvature
            if t2 <= t1:
                active.append(p)
                break
            del active[drop]
            lam = np.delete(lam, drop)
            Q, R = np.linalg.qr(Z[active].T)
        # All active rows hold with equality: y is the minimum-norm solution
        # of N^T y = 1 and lam its multipliers, recomputed from the QR factors
        # so that rounding does not accumulate over the steps.
        Q, R = np.linalg.qr(Z[active].T)
        w = np.linalg.solve(R.T, np.ones(len(active)))
        y = Q @ w
        lam = np.maximum(np.linalg.solve(R, w), 0.0)  # clip rounding below zero

    u = weights(2.0 * lam, active)
    g = lam @ Z[active]  # -1/2 C^T u
    return DualOutcome(
        status=DualStatus.SOLVED,
        u_star=u,
        y_bar=y,
        rho=y / float(y @ y),
        f_star=float(g @ g) - float(u.sum()),
        iterations=steps,
        alpha=weights(lam / lam.sum(), active),
    )
