"""Linear-complementarity route: three constructions solved by Lemke pivoting.

A complementarity problem asks for ``w = M v + q`` with ``w, v >= 0`` and
``<w, v> = 0``.  Three instances recover the projection:

* ``primal-split`` (size ``2n + m``): the halfspace QP ``min ||y||^2`` over
  ``<z_i, y> >= 1`` rewritten with the split ``y = s - s'`` into nonnegative
  variables, then its stationarity conditions.  The quadratic-form matrix of
  the split problem is the block matrix ``H = [[I, -I], [-I, I]]``; the
  letter ``D`` is avoided for it here because this package uses ``D``-style
  naming for the halfspace set itself (see ``support_qp``).
* ``wolfe-kkt`` (size ``m + 2``): the simplex QP over convex weights, with
  the equality ``sum a = 1`` split into two inequalities.
* ``dual-orthant`` (size ``m``): the dual QP over the orthant, giving the
  smallest instance, ``M = B/2`` and ``q = -e``.

All three matrices have positive semidefinite quadratic part (the bilinear
blocks cancel), which is the class where Lemke's complementary pivoting
terminates finitely: either with a solution or along an unbounded ray.  Ray
termination certifies that the underlying feasible set is empty, which for
the primal-split and dual-orthant variants means the hull contains the
origin.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    Route,
    ToleranceConfig,
    constraint_matrix,
    gram_matrix,
    projection_result,
)
from .errors import InconsistentOutcome, InternalInconsistency, PivotLimitExceeded
from .support_qp import recover_primal, rho_from_ybar

__all__ = [
    "LcpVariant",
    "CanonicalQP",
    "LCPInstance",
    "LcpStatus",
    "LCPOutcome",
    "canonicalize_primal",
    "build_lcp",
    "lemke_solve",
    "extract_projection",
]


class LcpVariant(enum.Enum):
    PRIMAL_SPLIT = "primal-split"
    WOLFE_KKT = "wolfe-kkt"
    DUAL_ORTHANT = "dual-orthant"


@dataclass(frozen=True)
class CanonicalQP:
    """Variable-split form of the halfspace QP with nonnegative unknowns.

    The unknown is ``x = (s, s')`` with ``y = s - s'``; the objective is
    ``<x, H x>`` which equals ``||s - s'||^2`` exactly, subject to
    ``A x >= b`` and ``x >= 0``.
    """

    H: np.ndarray
    A: np.ndarray
    b: np.ndarray
    p: np.ndarray

    def reconstruct_y(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.H.shape[0] // 2
        return x[:n] - x[n : 2 * n]


@dataclass(frozen=True)
class LCPInstance:
    M: np.ndarray
    q: np.ndarray
    k: int
    variant: LcpVariant


class LcpStatus(enum.Enum):
    SOLUTION = "solution"
    RAY_TERMINATION = "ray-termination"


@dataclass(frozen=True)
class LCPOutcome:
    """``pivots`` counts the final escalation attempt; ``pivots_total`` every
    attempt, abandoned ones included (defaults to ``pivots``)."""

    status: LcpStatus
    w: np.ndarray | None
    v: np.ndarray | None
    pivots: int
    pivots_total: int | None = None

    def __post_init__(self):
        if self.pivots_total is None:
            object.__setattr__(self, "pivots_total", self.pivots)


def canonicalize_primal(P: Polyhedron) -> CanonicalQP:
    """Split ``y`` into nonnegative parts and rewrite the halfspace QP."""
    n = P.n
    E = np.eye(n)
    H = np.block([[E, -E], [-E, E]])
    C = constraint_matrix(P).C
    A = np.hstack([-C, C])
    return CanonicalQP(H=H, A=A, b=np.ones(P.m), p=np.zeros(2 * n))


def build_lcp(P: Polyhedron, variant: LcpVariant) -> LCPInstance:
    """Assemble the complementarity data for one of the three constructions."""
    m = P.m
    if variant is LcpVariant.PRIMAL_SPLIT:
        qp = canonicalize_primal(P)
        two_n = 2 * P.n
        k = two_n + m
        M = np.zeros((k, k))
        M[:two_n, :two_n] = 2.0 * qp.H
        M[:two_n, two_n:] = -qp.A.T
        M[two_n:, :two_n] = qp.A
        q = np.zeros(k)
        q[two_n:] = -qp.b
        return LCPInstance(M=M, q=q, k=k, variant=variant)
    if variant is LcpVariant.WOLFE_KKT:
        B = gram_matrix(P).B
        k = m + 2
        A_hat = np.vstack([np.ones(m), -np.ones(m)])
        M = np.zeros((k, k))
        M[:m, :m] = 2.0 * B
        M[:m, m:] = -A_hat.T
        M[m:, :m] = A_hat
        q = np.zeros(k)
        q[m] = -1.0
        q[m + 1] = 1.0
        return LCPInstance(M=M, q=q, k=k, variant=variant)
    if variant is LcpVariant.DUAL_ORTHANT:
        B = gram_matrix(P).B
        return LCPInstance(M=0.5 * B, q=-np.ones(m), k=m, variant=variant)
    raise ValueError(f"unknown variant {variant!r}")


def _variable_name(j: int, k: int) -> str:
    if j < k:
        return f"w{j + 1}"
    if j < 2 * k:
        return f"v{j - k + 1}"
    return "z0"


def _dump_tableau(basis, T, rhs, k, out=None):
    out = out if out is not None else sys.stderr
    for r in range(k):
        entries = " ".join(f"{x: .6g}" for x in T[r])
        print(f"{_variable_name(basis[r], k):>4s} = {rhs[r]: .6g} | {entries}", file=out)
    print("-" * 40, file=out)


def _check_complementary_basis(basis, k):
    z0_basic = 2 * k in basis
    missing = 0
    for i in range(k):
        w_basic = i in basis
        v_basic = (k + i) in basis
        if w_basic and v_basic:
            raise InternalInconsistency(
                f"complementary pair {i + 1} has both members basic"
            )
        if not w_basic and not v_basic:
            missing += 1
    expected = 1 if z0_basic else 0
    if missing != expected:
        raise InternalInconsistency(
            f"{missing} complementary pairs without a basic member "
            f"(expected {expected})"
        )


def _pivot_path(M, q, k, verbose):
    """Run the complementary pivot sequence on one right-hand side.

    Returns ``("solution", (basis, w, v), pivots)``, ``("ray", None,
    pivots)``, or ``("cycle", None, pivots)`` when a basis repeats
    (floating-point noise in tied ratio tests can defeat the lexicographic
    rule); raises PivotLimitExceeded past the ``50 k`` safeguard.
    """
    # Row-reduced system [I | -M | -d] x = q with x = (w, v, z0).
    original = np.hstack([np.eye(k), -M, -np.ones((k, 1))])
    T = original.copy()
    rhs = q.copy()
    basis = list(range(k))
    z0 = 2 * k
    eps = np.finfo(float).eps

    def pivot(row: int, col: int):
        piv = T[row, col]
        T[row] /= piv
        rhs[row] /= piv
        for i in range(k):
            if i != row and T[i, col] != 0.0:
                factor = T[i, col]
                T[i] -= factor * T[row]
                rhs[i] -= factor * rhs[row]
                T[i, col] = 0.0
        T[row, col] = 1.0

    def refactor() -> bool:
        # Rebuild the row-reduced form exactly from the basis; long pivot
        # sequences otherwise accumulate enough drift to steer the path into
        # numerically singular bases.  Returns False when the basis itself
        # is too ill-conditioned to continue.
        nonlocal T, rhs
        factor = original[:, basis]
        try:
            combined = np.linalg.solve(factor, np.column_stack([original, q]))
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(combined)):
            return False
        T = np.ascontiguousarray(combined[:, :-1])
        rhs = combined[:, -1].copy()
        return True

    # Initial pivot: bring the covering variable in where the right-hand side
    # is most negative (lexicographic tie-break), making every row feasible.
    keys = np.column_stack([rhs, T[:, :k]])
    order = np.lexsort(keys.T[::-1])
    row = int(order[0])
    leaving = basis[row]
    pivot(row, z0)
    basis[row] = z0
    entering = leaving + k  # complement of the evicted w variable
    pivots = 1
    _check_complementary_basis(basis, k)
    if verbose:
        _dump_tableau(basis, T, rhs, k)
    if rhs.min() < 0.0:
        # Can only stem from rounding; every ratio below would be tainted.
        return "cycle", None, pivots

    limit = 50 * k
    seen = {tuple(sorted(basis))}
    since_refactor = 0
    while pivots < limit:
        col = T[:, entering]
        tol = 64.0 * eps * max(1.0, float(np.abs(col).max()))
        cand = np.flatnonzero(col > tol)
        if cand.size == 0:
            return "ray", None, pivots
        ratios = np.column_stack([rhs[cand], T[np.ix_(cand, range(k))]]) / col[
            cand, None
        ]
        order = np.lexsort(ratios.T[::-1])
        row = int(cand[order[0]])
        leaving = basis[row]
        pivot(row, entering)
        basis[row] = entering
        pivots += 1
        since_refactor += 1
        if since_refactor >= 8:
            if not refactor():
                return "cycle", None, pivots
            since_refactor = 0
        _check_complementary_basis(basis, k)
        if verbose:
            _dump_tableau(basis, T, rhs, k)
        if leaving == z0:
            if not refactor():
                return "cycle", None, pivots
            values = np.zeros(2 * k + 1)
            values[basis] = rhs
            return "solution", (list(basis), values[:k], values[k : 2 * k]), pivots
        entering = leaving + k if leaving < k else leaving - k
        key = tuple(sorted(basis))
        if key in seen:
            return "cycle", None, pivots
        seen.add(key)

    raise PivotLimitExceeded(
        f"no complementary solution within {limit} pivots", pivots=pivots
    )


def _solve_on_basis(M, q, basis, k):
    """Solve the original system on a complementary basis and assemble w, v."""
    cols = np.empty((k, k))
    for j, var in enumerate(basis):
        cols[:, j] = np.eye(k)[:, var] if var < k else -M[:, var - k]
    try:
        values = np.linalg.solve(cols, q)
    except np.linalg.LinAlgError:
        values, *_ = np.linalg.lstsq(cols, q, rcond=None)
    solution = np.zeros(2 * k)
    for var, val in zip(basis, values):
        solution[var] = val
    return solution[:k], solution[k:]


def _ray_certificate(M, q, v_pert, cap):
    """Farkas-style infeasibility check from an exploding regularized run.

    A vector ``u >= 0`` with ``M^T u <= delta`` and ``<q, u> = -margin < 0``
    proves that any complementary solution must satisfy
    ``||v|| >= margin / delta``; when that bound exceeds the iterate-norm cap
    the problem is reported infeasible, the same convention the dual solver
    uses for divergence.  The candidate direction is the normalized
    regularized solution, sharpened by a least-squares solve on its support.
    """
    k = M.shape[0]
    total = float(v_pert.sum())
    if total <= 0.0:
        return False
    u = np.maximum(v_pert, 0.0) / total
    support = np.flatnonzero(u > 1e-3 / k)
    if support.size == 0:
        return False
    weight = 1e3 * (1.0 + float(np.abs(M).max()))
    A = np.vstack([M[support, :].T, weight * np.ones(support.size)])
    b = np.zeros(k + 1)
    b[-1] = weight
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    x = np.maximum(x, 0.0)
    if x.sum() <= 0.0:
        return False
    x /= x.sum()
    sharp = np.zeros(k)
    sharp[support] = x
    violation = float(np.linalg.norm(np.maximum(M.T @ sharp, 0.0)))
    margin = -float(q @ sharp)
    return margin > 0.0 and violation * cap <= margin


def _solve_on_support(M, q, w_pert, v_pert, eps_use):
    """Re-solve using only the clearly positive variables of a perturbed run.

    The perturbed path identifies which complementary variables carry the
    solution; a least-squares solve of ``M v + q = 0`` on the rows whose
    ``w`` vanishes then recovers the unperturbed values with conditioning
    governed by the problem data rather than by a possibly degenerate
    terminal basis, and ``w = M v + q`` holds by construction.
    """
    scale = 1.0 + max(float(np.abs(w_pert).max()), float(np.abs(v_pert).max()))
    tol_pos = np.sqrt(eps_use) * scale
    on_v = v_pert > tol_pos
    zero_rows = ~(w_pert > tol_pos)
    v = np.zeros_like(v_pert)
    if on_v.any() and zero_rows.any():
        sol, *_ = np.linalg.lstsq(M[np.ix_(zero_rows, on_v)], -q[zero_rows], rcond=None)
        v[on_v] = sol
    v = np.maximum(v, 0.0)
    return M @ v + q, v


def lemke_solve(
    L: LCPInstance,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    verbose: bool = False,
) -> LCPOutcome:
    """Complementary pivoting with the all-ones covering vector.

    The constructions here are heavily degenerate (blocks of exact zeros in
    ``q``, a rank-deficient split form), and floating-point noise in tied
    ratio tests can derail the pivot path into a spurious ray.  The solver
    therefore pivots on a deterministically perturbed right-hand side
    ``q + eps * delta`` with ``delta > 0`` and ``eps`` too small to flip any
    sign: a perturbed ray still certifies infeasibility of the original
    problem, and a perturbed solution hands back its complementary basis, on
    which the original system is re-solved directly and verified.  Failed
    verification escalates ``eps`` before giving up.
    """
    k = L.k
    q = np.asarray(L.q, dtype=float)
    M = np.asarray(L.M, dtype=float)
    if q.min() >= 0.0:
        return LCPOutcome(
            status=LcpStatus.SOLUTION, w=q.copy(), v=np.zeros(k), pivots=0
        )

    # Fixed-seed draw: deterministic, but generic enough that perturbed ratio
    # tests stay untied even against the structured rank-deficiency of the
    # Gram-based instances (a smooth progression is not).
    delta = 1.0 + np.random.default_rng(k).uniform(0.0, 1.0, size=k)
    scale_q = 1.0 + float(np.abs(q).max())
    scale_m = 1.0 + float(np.abs(M).max())
    bound = cfg.feas_tol * (1.0 + float(np.linalg.norm(q)))

    def verified(w, v):
        residual = float(np.linalg.norm(w - (M @ v + q)))
        negativity = -min(float(w.min()), float(v.min()), 0.0)
        return residual <= bound and negativity <= bound, (residual, negativity)

    # Attempts: right-hand-side perturbation alone first (it preserves the
    # ray/infeasibility semantics exactly), then with a positive-definite
    # shift of M.  A rank-deficient quadratic block forces the pivot path
    # through nearly singular bases where rounding derails it; the shifted
    # problem pivots cleanly and only the support of its solution is kept,
    # so the values returned are always re-solved and verified against the
    # unshifted data.
    attempts = (
        (1e-7, 0.0),
        (1e-5, 0.0),
        (1e-7, 1e-8),
        (1e-5, 1e-6),
        (1e-3, 1e-4),
    )
    last_diag = None
    last_error = None
    spent = 0  # pivots of abandoned attempts

    def outcome_of(status, w, v, pivots):
        return LCPOutcome(status, w, v, pivots, pivots_total=spent + pivots)

    for eps_rel, reg_rel in attempts:
        eps_use = min(eps_rel * scale_q, 0.25 * float(-q.min()))
        M_eff = M if reg_rel == 0.0 else M + (reg_rel * scale_m) * np.eye(k)
        try:
            outcome, payload, pivots = _pivot_path(
                M_eff, q + eps_use * delta, k, verbose
            )
        except PivotLimitExceeded as err:
            last_error = err
            spent += err.pivots
            continue
        if outcome == "ray":
            # Unreachable for a positive-definite shift, so this is always a
            # verdict on the original problem.
            return outcome_of(LcpStatus.RAY_TERMINATION, None, None, pivots)
        if outcome == "cycle":
            last_error = PivotLimitExceeded(
                f"pivot path revisited a basis after {pivots} pivots", pivots=pivots
            )
            spent += pivots
            continue
        basis, w_pert, v_pert = payload
        w, v = _solve_on_basis(M, q, basis, k)
        ok, diag = verified(w, v)
        if ok:
            return outcome_of(LcpStatus.SOLUTION, w, v, pivots)
        w, v = _solve_on_support(M, q, w_pert, v_pert, eps_use)
        ok, diag2 = verified(w, v)
        if ok:
            return outcome_of(LcpStatus.SOLUTION, w, v, pivots)
        if reg_rel > 0.0 and _ray_certificate(M, q, v_pert, cfg.unbounded_cap):
            # The shifted problem is always solvable, so its exploding
            # solution is what infeasibility of the original looks like.
            return outcome_of(LcpStatus.RAY_TERMINATION, None, None, pivots)
        last_diag = (diag, diag2)
        spent += pivots

    if last_diag is not None:
        raise InternalInconsistency(
            "complementary solution failed verification at every perturbation "
            f"level: basis solve {last_diag[0]}, support solve {last_diag[1]}"
        )
    raise last_error


_ROUTE_OF_VARIANT = {
    LcpVariant.PRIMAL_SPLIT: Route.LCP_PRIMAL,
    LcpVariant.WOLFE_KKT: Route.LCP_WOLFE,
    LcpVariant.DUAL_ORTHANT: Route.LCP_DUAL,
}


def extract_projection(
    P: Polyhedron,
    L: LCPInstance,
    O: LCPOutcome,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProjectionResult:
    """Read the projection out of a complementarity outcome.

    Ray termination on the primal-split and dual-orthant variants certifies
    an empty feasible set, hence the origin inside the hull; the
    simplex-constrained variant is always solvable, so a ray there is an
    inconsistency.  Extracted points are cross-checked against the
    variational inequality before being returned.
    """
    route = _ROUTE_OF_VARIANT[L.variant]
    if O.status is LcpStatus.RAY_TERMINATION:
        if L.variant is LcpVariant.WOLFE_KKT:
            raise InconsistentOutcome(
                "ray termination on the always-solvable simplex variant"
            )
        return projection_result(
            P, np.zeros(P.n), route, O.pivots, cfg, origin_inside=True
        )

    origin_inside = None
    if L.variant is LcpVariant.PRIMAL_SPLIT:
        qp = canonicalize_primal(P)
        y = qp.reconstruct_y(O.v[: 2 * P.n])
        rho = rho_from_ybar(y, cfg.zero_tol)
        origin_inside = False
    elif L.variant is LcpVariant.WOLFE_KKT:
        alpha = np.maximum(O.v[: P.m], 0.0)
        alpha /= alpha.sum()
        rho = alpha @ P.vertices
        origin_inside = float(rho @ rho) <= cfg.zero_tol
    else:
        S = constraint_matrix(P)
        y_bar = recover_primal(S, O.v)
        rho = rho_from_ybar(y_bar, cfg.zero_tol)
        origin_inside = False

    result = projection_result(P, rho, route, O.pivots, cfg, origin_inside)
    if result.vi_min < -10.0 * cfg.opt_tol:
        raise InconsistentOutcome(
            f"extracted point fails the optimality residual: {result.vi_min:.3e}"
        )
    return result
