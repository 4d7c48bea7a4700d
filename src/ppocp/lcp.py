"""Linear-complementarity route: three constructions solved by Lemke pivoting.

A complementarity problem asks for ``w = M v + q`` with ``w, v >= 0`` and
``<w, v> = 0``.  Three instances recover the projection:

* ``primal-split`` (size ``2n + m``): the halfspace QP ``min ||y||^2`` over
  ``<z_i, y> >= 1`` rewritten with the split ``y = s - s'`` into nonnegative
  variables, then its stationarity conditions.  The quadratic-form matrix of
  the split problem is the block matrix ``H = [[I, -I], [-I, I]]``; the
  letter ``D`` is avoided for it here because this package uses ``D``-style
  naming for the halfspace set itself.
* ``wolfe-kkt`` (size ``m + 2``): the simplex QP over convex weights, with
  the equality ``sum a = 1`` split into two inequalities.
* ``dual-orthant`` (size ``m``): the dual QP over the orthant, giving the
  smallest instance, ``M = B/2`` and ``q = -e``.

All three matrices have positive semidefinite quadratic part (the bilinear
blocks cancel), so they are copositive-plus: Lemke's method ends on a
solution or on a secondary ray, which proves the problem infeasible (Lemke
1965; Cottle, Pang & Stone, *The Linear Complementarity Problem*, ch. 4).
The ray's direction has ``dv >= 0``, ``dw = M dv >= 0``, ``dv^T M dv = 0``
and ``q^T dv < 0``.  For dual-orthant, ``u = dv`` and ``M = B/2`` give
``Z^T u = 0``.  For primal-split, ``dv = (ds, ds', u)``, and
``2 ||ds - ds'||^2 = dv^T M dv = 0`` leaves ``dw``'s first two blocks as
``-Z^T u >= 0`` and ``Z^T u >= 0``, so ``Z^T u = 0``.  In both ``sum u > 0``
by ``q^T dv < 0``, so ``u / sum u`` are convex weights combining the
vertices to the origin.

The engine pivots a dense ``k x (k+2)`` dictionary: the columns of the
tableau ``[I | -M | -d]`` that belong to the ``k + 1`` nonbasic variables,
then the right-hand side.  A basic column is a unit vector that no pivot
changes, so it is not stored (Cottle, Pang & Stone, ch. 4; the revised
simplex method rests on the same observation).  Each pivot is one rank-one
update, after which the entering variable's column is overwritten with the
leaving variable's.  The engine guards each pivot in ``O(1)`` (the leaving
variable is basic, the entering one is not) and checks the basis invariant
in full, in ``O(k)``, at every rebuild and at the end of the path.  It
breaks exact ratio ties lexicographically, and rebuilds the dictionary from
the data every 32 pivots (``_REBUILD_INTERVAL``): every measured unit-scale
path keeps the pivots and solutions it has at 8, for a quarter of the block
solves, each of which costs about four times the eight rank-one updates
before it.  The rebuild reduces only the nonbasic columns and ``q``, and
solves only the block of the basis that its basic ``w`` columns, which are
unit vectors, leave open; no rebuild runs once the path reaches a solution.
``lemke_solve`` runs one path on a slightly perturbed right-hand side.
Every outcome, solution or ray, answers with the point its weights
``u / sum u`` combine the vertices to, so the answer lies in the hull by
construction.
"""

from __future__ import annotations

import enum
import functools
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

# Pivots between two rebuilds of the dictionary.  Read at call time.
_REBUILD_INTERVAL = 32

__all__ = [
    "LcpVariant",
    "CanonicalQP",
    "LCPInstance",
    "LcpStatus",
    "LCPOutcome",
    "canonicalize_primal",
    "build_lcp",
    "lemke_solve",
    "vertex_weights",
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
    """A solution ``(w, v)``, or a ray's direction ``v`` (``w`` None), and
    the pivots of the one path that reached it."""

    status: LcpStatus
    w: np.ndarray | None
    v: np.ndarray | None
    pivots: int


def canonicalize_primal(P: Polyhedron) -> CanonicalQP:
    """Split ``y`` into nonnegative parts and rewrite the halfspace QP."""
    n = P.n
    E = np.eye(n)
    H = np.block([[E, -E], [-E, E]])
    C = constraint_matrix(P).C
    A = np.hstack([-C, C])
    return CanonicalQP(H=H, A=A, b=np.ones(P.m))


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
        B = gram_matrix(P)
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
        B = gram_matrix(P)
        return LCPInstance(M=0.5 * B, q=-np.ones(m), k=m, variant=variant)
    raise ValueError(f"unknown variant {variant!r}")


def _variable_name(j: int, k: int) -> str:
    if j < k:
        return f"w{j + 1}"
    if j < 2 * k:
        return f"v{j - k + 1}"
    return "z0"


def _dump_tableau(basis, T, rhs, k):
    for r in range(k):
        entries = " ".join(f"{x: .6g}" for x in T[r])
        print(f"{_variable_name(basis[r], k):>4s} = {rhs[r]: .6g} | {entries}", file=sys.stderr)
    print("-" * 40, file=sys.stderr)


def _check_complementary_basis(basis, k):
    """Raise unless each pair ``(w_i, v_i)`` has exactly one basic member,
    with one pair left out exactly when ``z0`` is basic.  Returns the basic
    membership array over ``(w, v, z0)``, which identifies the basis."""
    member = np.zeros(2 * k + 1, dtype=bool)
    member[basis] = True
    w_basic, v_basic = member[:k], member[k : 2 * k]
    both = np.flatnonzero(w_basic & v_basic)
    if both.size:
        raise InternalInconsistency(
            f"complementary pair {both[0] + 1} has both members basic"
        )
    missing = k - int(np.count_nonzero(w_basic | v_basic))
    expected = 1 if member[2 * k] else 0
    if missing != expected:
        raise InternalInconsistency(
            f"{missing} complementary pairs without a basic member "
            f"(expected {expected})"
        )
    return member


def _swap_members(member, leaving, entering, k):
    """Move ``leaving`` out of and ``entering`` into the basic membership
    ``member`` over ``(w, v, z0)``, in ``O(1)``.

    Raises unless ``leaving`` is basic and ``entering`` is not.  The pivot
    path enters ``z0`` first and then always the complement of the variable
    that left last, so with this guard every basis along it is complementary
    save the one pair ``z0`` holds open, by induction from the all-``w``
    start: the invariant ``_check_complementary_basis`` checks in full.
    """
    if not member[leaving]:
        raise InternalInconsistency(
            f"leaving variable {_variable_name(leaving, k)} is not basic"
        )
    if member[entering]:
        raise InternalInconsistency(
            f"entering variable {_variable_name(entering, k)} is already basic"
        )
    member[leaving] = False
    member[entering] = True


def _pivot(T, row, col):
    """Pivot the dictionary ``T = [D | rhs]`` on ``T[row, col]``, in place.

    ``D`` holds the tableau's nonbasic columns only, and the right-hand side
    rides along as the last column.  One row division and one rank-one update
    reduce every column, ``rhs`` included; the entering column ``col`` then
    takes the leaving variable's column: its unit column after the same
    update, ``-factor * (1 / piv)`` with ``1 / piv`` at the pivot row.  Every
    entry receives the same division or product-and-subtraction as row-by-row
    elimination of the full tableau, so the result matches it to the bit (up
    to the sign of zeros).
    """
    piv = T[row, col]
    T[row] /= piv
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    inv = 1.0 / piv
    np.multiply(factor, -inv, out=T[:, col])
    T[row, col] = inv


def _refactor(data, basis, cols, k):
    """Row-reduce the columns ``cols`` of ``data = [I | -M | -d | q]`` to the
    basis: ``B^-1 data[:, cols]``.

    A basic ``w_j`` column of ``B = data[:, basis]`` is the unit vector
    ``e_j``, so only the ``p x p`` block ``Y`` of the other basic columns
    (``v`` and ``z0``), on the rows that no basic ``w`` covers, needs a
    solve.  Those rows of the result are ``Z = Y^-1 data[rows, cols]``; the
    row of each basic ``w_j`` follows as
    ``data[j, cols] - data[j, others] @ Z``.  Returns None when ``Y`` is
    singular or the result is not finite.
    """
    basis = np.asarray(basis)
    on_w = basis < k
    rows_w = basis[on_w]
    others = basis[~on_w]
    rows = np.ones(k, dtype=bool)
    rows[rows_w] = False
    selected = data[:, cols]
    try:
        Z = np.linalg.solve(data[np.ix_(rows, others)], selected[rows])
    except np.linalg.LinAlgError:
        return None
    # C order, so that a pivot path adopts the result as its dictionary.
    out = np.empty(selected.shape)
    out[~on_w] = Z
    out[on_w] = selected[rows_w] - data[np.ix_(rows_w, others)] @ Z
    if not np.all(np.isfinite(out)):
        return None
    return out


def _full_tableau(D, nonbasic, basis, k):
    """The ``k x (2k+1)`` tableau: ``D``'s columns and a unit column per basic
    variable."""
    T = np.zeros((k, 2 * k + 1))
    T[:, nonbasic] = D
    T[np.arange(k), basis] = 1.0
    return T


def _pivot_path(M, q, k, verbose):
    """Run the complementary pivot sequence on one right-hand side.

    The path keeps a ``k x (k+2)`` dictionary ``T = [D | rhs]``: the
    tableau's columns of the ``k + 1`` nonbasic variables, ``nonbasic[c]``
    being the variable of column ``c`` and ``column[j]`` the column of a
    nonbasic variable ``j``, then the right-hand side.  A basic column is the
    unit vector of its row, which no pivot changes, so it is not stored.
    Each pivot is one rank-one update of ``T`` (``_pivot``), guarded in
    ``O(1)`` by ``_swap_members``, which keeps the basic membership ``member``
    up to date.  The leaving row is the lexicographic minimum ratio; the full
    key sort runs only over rows that tie exactly on ``rhs / col``.  Every
    ``_REBUILD_INTERVAL`` (32) pivots the dictionary is rebuilt exactly from
    the basis (``_refactor``) to shed accumulated drift, which with no rebuild
    ends a 799-pivot primal-split path of a 153x69 hull on a ray with no
    positive multiplier, and which 32 sheds as well as 8 on every measured
    unit-scale path.  ``_check_complementary_basis`` checks the basis in full
    at every rebuild and at the end of the path, and there ``member`` must
    equal the membership it computes from ``basis``.

    Returns ``(SOLUTION, basis, pivots)`` once ``z0`` leaves, with no
    rebuild there: the caller solves on the final basis itself.  Otherwise
    ``(RAY_TERMINATION, dv, pivots)`` with ``dv`` the ``v`` part of the ray's
    direction (1 on the entering variable, ``-T[:, column[entering]]`` on
    the basis).  Raises PivotLimitExceeded when a basis repeats
    (floating-point noise in tied ratio tests can defeat the lexicographic
    rule), when a rebuild fails, and past the ``50 k`` safeguard.
    """
    # System [I | -M | -d] x = q with x = (w, v, z0), stacked with q.  The
    # w variables start basic; the dictionary holds the v and z0 columns and
    # q, the columns a rebuild reduces.  The pivots update ``nonbasic``
    # through this view of ``cols``.
    data = np.hstack([np.eye(k), -M, -np.ones((k, 1)), q[:, None]])
    cols = np.arange(k, 2 * k + 2)
    nonbasic = cols[:-1]
    column = np.full(2 * k + 1, -1)
    column[k:] = np.arange(k + 1)
    T = data[:, k:].copy()
    rhs = T[:, -1]
    basis = np.arange(k)
    member = np.zeros(2 * k + 1, dtype=bool)
    member[:k] = True
    z0 = 2 * k
    eps = np.finfo(float).eps

    def checked_member():
        # The full O(k) check, which must also agree with ``member``.
        full = _check_complementary_basis(basis, k)
        if not np.array_equal(full, member):
            raise InternalInconsistency("basic membership drifted from the basis")

    # Initial pivot: bring the covering variable in where the right-hand side
    # is most negative, making every row feasible: each becomes q_i - min q,
    # which rounds to no negative number.  Among tied rows the last has the
    # lexicographically least key (rhs_i, e_i).
    row = int(np.flatnonzero(rhs == rhs.min())[-1])
    entering, c = z0, k
    pivots = 0
    limit = 50 * k
    seen = set()
    since_refactor = -1
    interval = _REBUILD_INTERVAL
    while True:
        leaving = int(basis[row])
        _swap_members(member, leaving, entering, k)
        _pivot(T, row, c)
        basis[row] = entering
        nonbasic[c] = leaving
        column[leaving] = c
        column[entering] = -1
        pivots += 1
        if verbose:
            _dump_tableau(basis, _full_tableau(T[:, :-1], nonbasic, basis, k), rhs, k)
        if leaving == z0:
            checked_member()
            return LcpStatus.SOLUTION, basis, pivots
        since_refactor += 1
        if since_refactor >= interval:
            # Long pivot sequences otherwise accumulate enough drift to steer
            # the path into numerically singular bases; at 32 pivots every
            # measured unit-scale path keeps its outcome at 8.
            checked_member()
            T = _refactor(data, basis, cols, k)
            if T is None:
                raise PivotLimitExceeded(
                    f"tableau rebuild failed after {pivots} pivots", pivots=pivots
                )
            rhs = T[:, -1]
            since_refactor = 0
        key = member.tobytes()
        if key in seen:
            raise PivotLimitExceeded(
                f"pivot path revisited a basis after {pivots} pivots", pivots=pivots
            )
        seen.add(key)
        if pivots >= limit:
            raise PivotLimitExceeded(
                f"no complementary solution within {limit} pivots", pivots=pivots
            )

        entering = leaving + k if leaving < k else leaving - k
        c = int(column[entering])
        col = T[:, c]
        tol = 64.0 * eps * max(1.0, float(np.abs(col).max()))
        cand = np.flatnonzero(col > tol)
        if cand.size == 0:
            checked_member()
            ray = np.zeros(2 * k + 1)
            ray[basis] = -col
            ray[entering] = 1.0
            return LcpStatus.RAY_TERMINATION, ray[k : 2 * k], pivots
        # Lexicographic minimum ratio.  The (k+1)-key sort only breaks exact
        # ties on the first key, so it runs on the tied rows alone (on every
        # row when a ratio is NaN, since the minimum is then NaN).  Its keys
        # are rhs and the w columns: from T for a nonbasic w, and the unit
        # vector of its row for a basic one.
        first = rhs[cand] / col[cand]
        tied = cand[~(first > first.min())]
        if tied.size > 1:
            keys = np.zeros((tied.size, k + 1))
            keys[:, 0] = rhs[tied]
            free_w = np.flatnonzero(nonbasic < k)
            keys[:, 1 + nonbasic[free_w]] = T[np.ix_(tied, free_w)]
            on_w = np.flatnonzero(basis[tied] < k)
            keys[on_w, 1 + basis[tied[on_w]]] = 1.0
            ratios = keys / col[tied, None]
            tied = tied[np.lexsort(ratios.T[::-1])]
        row = int(tied[0])


def _solve_on_basis(M, q, basis, k):
    """Solve ``w = M v + q`` on a complementary basis and assemble w, v."""
    basis = np.asarray(basis)
    on_w = basis < k
    cols = np.zeros((k, k))
    cols[basis[on_w], np.flatnonzero(on_w)] = 1.0
    cols[:, ~on_w] = -M[:, basis[~on_w] - k]
    try:
        values = np.linalg.solve(cols, q)
    except np.linalg.LinAlgError:
        values, *_ = np.linalg.lstsq(cols, q, rcond=None)
    solution = np.zeros(2 * k)
    solution[basis] = values
    return solution[:k], solution[k:]


@functools.lru_cache(maxsize=None)
def _covering_perturbation(k: int) -> np.ndarray:
    """The fixed ``delta`` of size ``k``, drawn once and read-only.

    Fixed-seed draw: deterministic, but generic enough that perturbed ratio
    tests stay untied even against the structured rank-deficiency of the
    Gram-based instances (a smooth progression is not).  It depends on ``k``
    alone, so every instance of that size pivots on the same ``delta``.
    """
    delta = 1.0 + np.random.default_rng(k).uniform(0.0, 1.0, size=k)
    delta.flags.writeable = False
    return delta


def lemke_solve(
    L: LCPInstance,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    verbose: bool = False,
) -> LCPOutcome:
    """Complementary pivoting with the all-ones covering vector, in one path.

    The constructions here are heavily degenerate (blocks of exact zeros in
    ``q``, a rank-deficient split form), so the path pivots on a perturbed
    right-hand side ``q + eps * delta``, with a fixed ``delta > 0`` and
    ``eps = min(1e-8 (1 + max|q|), -min q / 4)``.  That resolves degeneracy
    only while ``eps`` is small against the basis (Cottle, Pang & Stone,
    ch. 4): at ``1e-7`` some origin-inside Wolfe-KKT paths ended on bases
    feasible for the perturbed ``q`` alone.  A ray is returned as its
    direction; a solution's basis is re-solved against ``q`` and must meet
    the backward-error bound ``feas_tol (1 + ||q|| + max|M| ||v||)``, or
    InternalInconsistency is raised.  A cycle, a failed rebuild or the pivot
    limit raises PivotLimitExceeded.
    """
    k = L.k
    q = np.asarray(L.q, dtype=float)
    M = np.asarray(L.M, dtype=float)
    if q.min() >= 0.0:
        return LCPOutcome(
            status=LcpStatus.SOLUTION, w=q.copy(), v=np.zeros(k), pivots=0
        )

    delta = _covering_perturbation(k)
    eps_use = min(1e-8 * (1.0 + float(np.abs(q).max())), 0.25 * float(-q.min()))
    status, end, pivots = _pivot_path(M, q + eps_use * delta, k, verbose)
    if status is LcpStatus.RAY_TERMINATION:
        return LCPOutcome(status, None, end, pivots)

    w, v = _solve_on_basis(M, q, end, k)
    residual = float(np.linalg.norm(w - (M @ v + q)))
    negativity = max(0.0, -min(float(w.min()), float(v.min())))
    # Backward error: the multipliers of a near-degenerate hull grow like
    # 1/distance^2, and the residual with them.
    max_m = float(np.abs(M).max())
    q_norm = float(np.linalg.norm(q))
    bound = cfg.feas_tol * (1.0 + q_norm + max_m * float(np.linalg.norm(v)))
    if residual > bound or negativity > bound:
        raise InternalInconsistency(
            "complementary solution failed verification: basis solve residual "
            f"{residual:.3e}, negativity {negativity:.3e}"
        )
    return LCPOutcome(status, w, v, pivots)


_ROUTE_OF_VARIANT = {
    LcpVariant.PRIMAL_SPLIT: Route.LCP_PRIMAL,
    LcpVariant.WOLFE_KKT: Route.LCP_WOLFE,
    LcpVariant.DUAL_ORTHANT: Route.LCP_DUAL,
}


def vertex_weights(P: Polyhedron, L: LCPInstance, O: LCPOutcome) -> np.ndarray | None:
    """Convex weights ``u / sum u``, None when no multiplier in ``u`` is positive.

    ``u`` is ``O.v``'s last ``m`` entries for primal-split, its first ``m``
    for wolfe-kkt and all of it for dual-orthant, clipped at zero.  They
    combine the vertices to the origin on a ray and to ``rho`` on a solution.
    """
    start = L.k - P.m if L.variant is LcpVariant.PRIMAL_SPLIT else 0
    u = np.maximum(O.v[start : start + P.m], 0.0)
    total = float(u.sum())
    return u / total if total > 0.0 else None


def extract_projection(
    P: Polyhedron,
    L: LCPInstance,
    O: LCPOutcome,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProjectionResult:
    """Read the projection out of a complementarity outcome.

    Every outcome answers with its weights ``alpha`` (``vertex_weights``),
    whose point ``alpha @ Z`` is the projection at a solution, as each
    variant's stationarity gives ``rho = Z^T u / sum u``, and the origin, or
    at least a point of the hull, on a ray.  The answer
    votes by ``core.projection_result``'s rule like any other.  An outcome
    with no positive multiplier, or any ray of the always-solvable wolfe-kkt
    variant, is an inconsistency.  The point is returned unchecked;
    ``certify`` applies the variational-inequality check, which certifies it
    completely because it lies in the hull.
    """
    route = _ROUTE_OF_VARIANT[L.variant]
    if O.status is LcpStatus.RAY_TERMINATION and L.variant is LcpVariant.WOLFE_KKT:
        raise InconsistentOutcome(
            "ray termination on the always-solvable simplex variant"
        )
    alpha = vertex_weights(P, L, O)
    if alpha is None:
        raise InconsistentOutcome(
            f"{route.value} {O.status.value} with no positive multiplier"
        )
    return projection_result(P, alpha, route, O.pivots, cfg)
