"""Dual-side route: halfspace set and nonnegative-orthant QP.

The projection can be recovered from the set ``D = {y : <z_i, y> >= 1}``:
its minimum-norm element ``y_bar`` satisfies ``rho = y_bar / ||y_bar||^2``.
With the halfspace rows ``C = -Z`` and ``e`` the all-ones vector, minimizing
``||y||^2`` over ``D`` has the dual program

    minimize  f(u) = 1/4 <u, C C^T u> - <e, u> = 1/4 ||Z^T u||^2 - sum u
    over  u >= 0,

whose solution gives ``y_bar = -1/2 C^T u*`` in closed form and the optimal
value ``f* = -||y_bar||^2``.  ``D`` is empty exactly when the hull contains
the origin, in which case ``f`` is unbounded below; the solver reports that
as a status rather than an error.

The solver is the dual active-set method of Goldfarb and Idnani ("A
numerically stable dual method for solving strictly convex quadratic
programs", Math. Prog. 27, 1983) for ``min 1/2 ||y||^2`` subject to
``Z y >= 1``, run in R^n on at most n active vertex rows; the m x m Gram
matrix is never formed.  Its multipliers ``lam`` are ``u / 2``.  It returns
the route's answer record, ``DualOutcome``: the convex weights
``alpha = u* / sum u*`` and their point ``rho = alpha @ Z``, which is the
projection because ``sum u* = 2 ||y_bar||^2``.  When the hull contains the
origin it returns instead convex weights ``alpha`` with ``alpha @ Z = 0``,
an exact witness in place of a divergence test.  Of the first-order routes'
records only this one keeps a ``status``; ``u*``, ``y_bar`` and ``f*`` follow
from ``alpha`` and ``rho`` as ``2 alpha / ||rho||^2``, ``rho / ||rho||^2`` and
``-1 / ||rho||^2``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ToleranceConfig,
    _readonly,
    gram_matrix,  # unused here; kept as a module attribute for perfbench/tracing.py
    kernel_rows,
)
from .errors import MaxIterExceeded

__all__ = [
    "DualStatus",
    "DualOutcome",
    "ENTER_TOL",
    "DEPENDENT_TOL",
    "dual_objective",
    "solve_dual",
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
    """The dual route's answer: convex weights ``alpha`` over the vertices and
    their point ``rho = alpha @ Z``.

    When ``status`` is SOLVED, ``alpha`` is ``u* / sum u*`` and ``rho`` the
    projection; UNBOUNDED_BELOW signals that the hull contains the origin,
    and ``alpha`` then combines the vertices to it.  ``iterations`` counts the
    active-set steps, adds and drops together.
    """

    status: DualStatus
    rho: np.ndarray
    iterations: int
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _readonly(self.rho))
        object.__setattr__(self, "alpha", _readonly(self.alpha))


def dual_objective(P: Polyhedron, u, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Evaluate ``f(u) = 1/4 ||Z^T u||^2 - sum u`` on the orthant.

    Raises ValueError unless ``u`` has length ``m`` and no entry below
    ``-feas_tol``.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (P.m,):
        raise ValueError(f"dual vector must have length {P.m}")
    if u.min() < -cfg.feas_tol:
        raise ValueError(f"dual vector has entry {u.min():.3e} below zero")
    g = P.vertices.T @ u
    return 0.25 * float(g @ g) - float(u.sum())


def solve_dual(P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> DualOutcome:
    """Minimize the dual objective over the nonnegative orthant.

    Goldfarb-Idnani on ``min 1/2 ||y||^2`` subject to ``Z y >= 1``, from
    ``y = 0`` and an empty active set.  Each pass scans ``s = Z y - 1`` for
    ``p = argmin s`` (lowest index on ties) and stops once ``s_p`` clears
    ``ENTER_TOL``.  Otherwise ``z_p`` is split, through a thin QR of the
    active rows ``N``, into ``N r`` in their span and a part in its null
    space.  A null-space part allows a primal step, which adds ``p`` once
    ``s_p`` reaches zero; a multiplier ``lam_j - t r_j`` reaching zero
    first drops ``j`` instead (a partial step), and ``p`` is tried again.
    A row dependent on the active rows (``DEPENDENT_TOL``) takes only the
    partial step; with no ``r_j > 0`` it has none, and ``z_p - N r = 0`` is
    a convex combination through the origin: the outcome is UNBOUNDED_BELOW
    with its weights ``(1, -r)`` normalised as ``alpha``.  The factors, kept
    as ``Q`` and the inverse of ``R``, are appended to on an add, after one
    pass of reorthogonalization, and refactored on a drop; after each add,
    ``y`` and ``lam`` are recomputed from them.  The answer, the SOLVED
    weights or the witness ``r``, is read off one fresh factorization of the
    final active rows, so rounding along the path does not reach its bits.

    The steps run on ``kernel_rows(Z) = 2^-k Z``, whose largest row norm
    is about 1, so ``y`` stays finite at any scale of the vertices; ``rho``
    is the weights' point of ``Z`` as given.  Both tolerances are relative
    to ``max_i ||z_i||``, so scaling the vertices by a power of two leaves
    the status, the step path and the weights unchanged and scales ``rho``
    alike.

    Raises MaxIterExceeded when the answer needs more than ``cfg.max_iter``
    steps (adds and drops together).
    """
    Z, sq, _ = kernel_rows(P.vertices)
    m = P.m
    zmax = float(np.sqrt(sq.max()))
    enter_tol = ENTER_TOL * zmax
    dependent_tol = DEPENDENT_TOL * zmax

    y = np.zeros(P.n)
    active: list[int] = []
    lam = np.zeros(0)
    # Q, the first k columns of Qbuf, is orthonormal and spans the k active
    # rows N = Q R; Rinv, the leading k x k block of Rbuf, is R's inverse.
    Qbuf = np.zeros((P.n, P.n))
    Rbuf = np.zeros((P.n, P.n))
    Q, Rinv = Qbuf[:, :0], Rbuf[:0, :0]
    steps = 0

    def weights(values, rows):
        out = np.zeros(m)
        out[rows] = values
        return out

    def outcome(status, alpha):
        return DualOutcome(status=status, rho=alpha @ P.vertices, iterations=steps, alpha=alpha)

    while True:
        s = Z @ y - 1.0
        p = int(np.argmin(s))
        if s[p] >= -enter_tol * float(np.linalg.norm(y)):
            break
        if p in active:
            # Only rounding can make an active row the most violated one.
            raise MaxIterExceeded(f"dual active-set solver stalled at vertex {p}")
        zp = Z[p]
        sp = float(s[p])
        while True:
            if steps == cfg.max_iter:
                raise MaxIterExceeded(
                    f"dual solver did not converge in {cfg.max_iter} active-set steps"
                )
            q = Q.T @ zp
            z = zp - Q @ q
            r = Rinv @ q
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
                # The witness is read off a fresh factorization, so that
                # rounding along the path does not reach it.  Its r has no
                # entry above zero up to that rounding; one just above is
                # clipped.
                Qf, R = np.linalg.qr(Z[active].T)
                r = np.linalg.solve(R, Qf.T @ zp)
                alpha = weights(np.where(r > 0.0, 0.0, -r), active)
                alpha[p] = 1.0
                return outcome(DualStatus.UNBOUNDED_BELOW, alpha / alpha.sum())
            steps += 1
            # <z, z_p> equals ||z||^2 in exact arithmetic, but when z_p lies
            # nearly in the active rows' span rounding decides its sign.
            curvature = float(z @ z)
            t2 = np.inf if dependent else -sp / curvature
            t = min(t1, t2)
            lam = lam - t * r
            sp += t * curvature
            if t2 <= t1:
                # z_p = Q q + z with z orthogonal to Q's columns, after one
                # pass of reorthogonalization (Daniel, Gragg, Kaufman and
                # Stewart, Math. Comp. 30, 1976).  Appending z / ||z|| to Q
                # appends the column (q, ||z||) to R, and the inverse of
                # [[R, q], [0, ||z||]] is [[Rinv, -Rinv q / ||z||], [0, 1 / ||z||]].
                c = Q.T @ z
                z -= Q @ c
                q += c
                norm = float(np.linalg.norm(z))
                k = len(active)
                Qbuf[:, k] = z / norm
                Rbuf[:k, k] = (Rinv @ q) / -norm
                Rbuf[k, :k] = 0.0
                Rbuf[k, k] = 1.0 / norm
                active.append(p)
                Q, Rinv = Qbuf[:, : k + 1], Rbuf[: k + 1, : k + 1]
                break
            del active[drop]
            lam = np.delete(lam, drop)
            k = len(active)
            Qf, R = np.linalg.qr(Z[active].T)
            Qbuf[:, :k] = Qf
            Rbuf[:k, :k] = np.linalg.inv(R)
            Q, Rinv = Qbuf[:, :k], Rbuf[:k, :k]
        # All active rows hold with equality: y is the minimum-norm solution
        # of N^T y = 1, Q Rinv^T 1, and lam its multipliers, Rinv Rinv^T 1,
        # from factors appended to on an add and refactored on a drop.
        w = Rinv.sum(axis=0)
        y = Q @ w
        lam = np.maximum(Rinv @ w, 0.0)  # clip rounding below zero

    # The answer is read off one fresh factorization of the final active
    # rows, so that rounding along the path does not reach its bits.
    Q, R = np.linalg.qr(Z[active].T)
    w = np.linalg.solve(R.T, np.ones(len(active)))
    lam = np.maximum(np.linalg.solve(R, w), 0.0)  # clip rounding below zero
    return outcome(DualStatus.SOLVED, weights(lam / lam.sum(), active))
