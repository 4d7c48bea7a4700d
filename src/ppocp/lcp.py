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

The covering vector ``d`` is 1 on the rows whose right-hand side starts
negative and 0 on the others: all of dual-orthant's rows, wolfe-kkt's
``sum a >= 1`` row and primal-split's ``m`` constraint rows, never its
``2n`` split rows.
The engine pivots a dense ``k x (k+2)`` dictionary: the columns of the
tableau ``[I | -M | -d]`` that belong to the ``k + 1`` nonbasic variables,
then the right-hand side.  A basic column is a unit vector that no pivot
changes, so it is not stored (Cottle, Pang & Stone, ch. 4; the revised
simplex method rests on the same observation).  Each pivot is one rank-one
update, after which the entering variable's column is overwritten with the
leaving variable's.  The path starts from the all-``w`` basis, whose
dictionary is ``[-M | -d | q]`` itself, and pivots it to the end with no
rebuild from the data.  The engine guards each pivot in ``O(1)`` (the
leaving variable is basic, the entering one is not) and checks the basis
invariant in full, in ``O(k)``, at the end of the path; its errors name the
variables ``w1..wk``, ``v1..vk`` and ``z0``.  It breaks exact ratio ties
lexicographically, on keys indexed by variable.
``lemke_solve`` runs one path on a slightly perturbed right-hand side.  Its
fixed perturbation is NumPy's ``default_rng(k)`` uniform stream, computed in
plain integers so that a solving process never imports ``numpy.random``
(about 13 ms of a fresh process).
Every outcome, solution or ray, answers with the point its weights
``u / sum u`` combine the vertices to, so the answer lies in the hull by
construction.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    ToleranceConfig,
    gram_matrix,
    projection_result,
)
from .errors import InternalInconsistency, MaxIterExceeded

__all__ = [
    "LcpVariant",
    "LCPInstance",
    "LcpStatus",
    "LCPOutcome",
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
class LCPInstance:
    M: np.ndarray
    q: np.ndarray
    variant: LcpVariant

    @property
    def k(self) -> int:
        return len(self.q)


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


def build_lcp(P: Polyhedron, variant: LcpVariant) -> LCPInstance:
    """Assemble the complementarity data for one of the three constructions.

    ``lemke_solve``'s pivot thresholds assume an instance near unit scale,
    ``max_i ||z_i||`` about 1: the instance divided by its scale
    (``core.unit_scale``), which is what ``certify`` passes.
    """
    m = P.m
    if variant is LcpVariant.PRIMAL_SPLIT:
        # Unknowns (s, s', u): the quadratic form is H = [[I, -I], [-I, I]]
        # and the constraints A (s, s') >= 1 with A = [Z | -Z].
        n = P.n
        E = np.eye(n)
        A = np.hstack([P.vertices, -P.vertices])
        two_n = 2 * n
        k = two_n + m
        M = np.zeros((k, k))
        M[:two_n, :two_n] = 2.0 * np.block([[E, -E], [-E, E]])
        M[:two_n, two_n:] = -A.T
        M[two_n:, :two_n] = A
        q = np.zeros(k)
        q[two_n:] = -1.0
        return LCPInstance(M=M, q=q, variant=variant)
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
        return LCPInstance(M=M, q=q, variant=variant)
    if variant is LcpVariant.DUAL_ORTHANT:
        B = gram_matrix(P)
        return LCPInstance(M=0.5 * B, q=-np.ones(m), variant=variant)
    raise ValueError(f"unknown variant {variant!r}")


def _variable_name(j: int, k: int) -> str:
    if j < k:
        return f"w{j + 1}"
    if j < 2 * k:
        return f"v{j - k + 1}"
    return "z0"


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


def _pivot_path(M, q, k):
    """Run the complementary pivot sequence on one right-hand side.

    The path keeps a ``k x (k+2)`` dictionary ``T = [D | rhs]``: the
    tableau's columns of the ``k + 1`` nonbasic variables, ``column[j]``
    being the column of variable ``j`` (-1 when basic), then the right-hand
    side.  A basic column is the unit vector of its row, which no pivot
    changes, so it is not stored.  Each pivot is one rank-one update of
    ``T`` (``_pivot``), guarded in ``O(1)`` by ``_swap_members``, which keeps
    the basic membership ``member``, the cycle check's key, up to date.  The
    leaving row is the lexicographic minimum ratio, on keys indexed by
    variable; the full key sort runs only over rows that tie exactly on
    ``rhs / col``.  An entry of the entering column is a ratio candidate
    only above ``max(64, k) eps max(1, max|col|)``: at ``64 eps``, drift let
    entries of 2.5e-12 against ``max|col| = 113`` pass where the 781-pivot
    primal-split path of a 277x108 hull (``k = 493``) reaches its ray.

    The dictionary is pivoted from start to end and never rebuilt from the
    data: at this threshold no measured path needs a rebuild to shed drift.
    That 277x108 hull still ends on its 781-pivot ray, with a positive
    multiplier, and the 20 hulls of the 400x160 consensus sweep (seed 0),
    with primal-split paths of up to 1,146 pivots, end with no conflict.
    ``_check_complementary_basis`` checks the basis in full at the end of
    the path, where ``member`` must equal the membership it computes from
    ``basis``, and ``lemke_solve`` verifies a solution against the data.

    Returns ``(SOLUTION, basis, pivots)`` once ``z0`` leaves: the caller
    solves on the final basis itself.  Otherwise ``(RAY_TERMINATION, dv,
    pivots)`` with ``dv`` the ``v`` part of the ray's direction (1 on the
    entering variable, ``-T[:, column[entering]]`` on the basis).  Raises
    MaxIterExceeded when a basis repeats (floating-point noise in tied
    ratio tests can defeat the lexicographic rule) and past the ``50 k``
    safeguard.
    """
    # The system [I | -M | -d] x = q with x = (w, v, z0), where the covering
    # vector d is 1 on the rows that start infeasible.  The w variables start
    # basic, so the dictionary starts as the v and z0 columns and q.
    T = np.hstack([-M, -(q < 0.0).astype(float)[:, None], q[:, None]])
    rhs = T[:, -1]
    column = np.full(2 * k + 1, -1)
    column[k:] = np.arange(k + 1)
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
    # is most negative, making every row feasible: each covered row becomes
    # q_i - min q, which rounds to no negative number, and an uncovered row
    # keeps its q_i > 0.  Among tied rows the last has the lexicographically
    # least key (rhs_i, e_i).
    row = int(np.flatnonzero(rhs == rhs.min())[-1])
    entering, c = z0, k
    pivots = 0
    limit = 50 * k
    seen = set()
    while True:
        leaving = int(basis[row])
        _swap_members(member, leaving, entering, k)
        _pivot(T, row, c)
        basis[row] = entering
        column[leaving] = c
        column[entering] = -1
        pivots += 1
        if leaving == z0:
            checked_member()
            return LcpStatus.SOLUTION, basis, pivots
        key = member.tobytes()
        if key in seen:
            raise MaxIterExceeded(f"pivot path revisited a basis after {pivots} pivots")
        seen.add(key)
        if pivots >= limit:
            raise MaxIterExceeded(f"no complementary solution within {limit} pivots")

        entering = leaving + k if leaving < k else leaving - k
        c = int(column[entering])
        col = T[:, c]
        tol = max(64.0, k) * eps * max(1.0, float(np.abs(col).max()))
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
            free_w = np.flatnonzero(column[:k] >= 0)
            keys[:, 1 + free_w] = T[np.ix_(tied, column[free_w])]
            on_w = np.flatnonzero(basis[tied] < k)
            keys[on_w, 1 + basis[tied[on_w]]] = 1.0
            ratios = keys / col[tied, None]
            tied = tied[np.lexsort(ratios.T[::-1])]
        row = int(tied[0])


def _solve_on_basis(M, q, basis, k):
    """Solve ``w = M v + q`` on a complementary basis and assemble w, v.

    A pivot on a nonzero entry keeps the basis nonsingular, so a singular
    final basis means a pivot landed on rounding noise: the dual-orthant
    path of ``random_polyhedron(37, box=1e3)``, solved without unit scaling,
    ends with five ``v`` columns of a rank-2 ``M``.  No answer can be read
    off such a basis, and it raises InternalInconsistency.
    """
    basis = np.asarray(basis)
    on_w = basis < k
    cols = np.zeros((k, k))
    cols[basis[on_w], np.flatnonzero(on_w)] = 1.0
    cols[:, ~on_w] = -M[:, basis[~on_w] - k]
    try:
        values = np.linalg.solve(cols, q)
    except np.linalg.LinAlgError:
        raise InternalInconsistency("final basis is singular") from None
    solution = np.zeros(2 * k)
    solution[basis] = values
    return solution[:k], solution[k:]


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: int, mult: int) -> tuple[int, int]:
    """One hashmix step of NumPy's ``SeedSequence``: the word, the next constant."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _default_rng_uniform(seed: int, size: int) -> list[float]:
    """``np.random.default_rng(seed).uniform(0.0, 1.0, size)``, bit for bit.

    ``seed`` is one 32-bit word, ``0 <= seed < 2**32``, as an LCP size is.
    ``SeedSequence(seed)`` hashes the words ``(seed, 0, 0, 0)`` into a pool of
    four words and draws four 64-bit words from it (NumPy's
    ``bit_generator.pyx``): PCG64's 128-bit initial state and its stream.
    PCG64 steps a 128-bit LCG and emits the XSL-RR output of each new state
    (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
    Algorithms for Random Number Generation", 2014); a double is its top 53
    bits times ``2**-53``.
    """
    pool, const = [], 0x43B0D7E5
    for word in (seed, 0, 0, 0):
        word, const = _hashmix(word, const, 0x931E8875)
        pool.append(word)

    def mix(dst: int, word: int) -> None:
        nonlocal const
        word, const = _hashmix(word, const, 0x931E8875)
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * word) & _MASK32
        pool[dst] = x ^ (x >> 16)

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    words, const = [], 0x8B51F9DD
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, 0x58F38DED)
        words.append(word)
    s0, s1, i0, i1 = (words[j] | words[j + 1] << 32 for j in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
    out = []
    for _ in range(size):
        state = (state * _PCG64_MULT + inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 11) * 2.0**-53)
    return out


@functools.lru_cache(maxsize=None)
def _covering_perturbation(k: int) -> np.ndarray:
    """The fixed ``delta`` of size ``k``, drawn once and read-only.

    Fixed-seed draw: deterministic, but generic enough that perturbed ratio
    tests stay untied even against the structured rank-deficiency of the
    Gram-based instances (a smooth progression is not).  It depends on ``k``
    alone, so every instance of that size pivots on the same ``delta``.
    It is ``1 + np.random.default_rng(k).uniform(0, 1, k)``, computed by
    ``_default_rng_uniform`` without importing ``numpy.random``: that import
    costs a fresh process about 13 ms, and this draw 0.2 ms at ``k = 160``.
    """
    delta = 1.0 + np.array(_default_rng_uniform(k, k))
    delta.flags.writeable = False
    return delta


def lemke_solve(L: LCPInstance, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LCPOutcome:
    """Complementary pivoting in one path, covering only the rows that start
    infeasible.

    The constructions here are heavily degenerate (blocks of exact zeros in
    ``q``, a rank-deficient split form), so the path pivots on a perturbed
    right-hand side ``q~ = q + eps * delta``, with a fixed ``delta > 0`` and
    ``eps = min(1e-8 (1 + max|q|), -min q / 4)``.  That resolves degeneracy
    only while ``eps`` is small against the basis (Cottle, Pang & Stone,
    ch. 4): at ``1e-7`` some origin-inside Wolfe-KKT paths ended on bases
    feasible for the perturbed ``q`` alone.

    The covering vector ``d`` is 1 where ``q~_i < 0`` and 0 elsewhere, so
    every uncovered row has ``q~_i > 0``: the perturbation lifts each
    ``q_i = 0`` row to ``eps delta_i``.  A secondary ray
    ``(w, v, z0) + t (dw, dv, dz0)`` stays complementary for all ``t >= 0``,
    so ``dv^T dw = dv^T M dv + dz0 d^T dv = 0``, and with ``M`` positive
    semidefinite both terms vanish and ``(M + M^T) dv = 0``; its linear term
    then gives ``dz0 d^T v + q~^T dv + z0 d^T dv = 0``.  If ``dz0 > 0``, then
    ``d^T dv = 0`` and ``q~^T dv <= 0``; as ``dv >= 0`` vanishes on the
    covered rows and ``q~ > 0`` on the others, ``dv = 0``: the primary ray,
    which the path never returns to.  So ``dz0 = 0``, ``d^T dv > 0`` (else
    ``dv = 0`` by the same argument) and ``q~^T dv = -z0 d^T dv < 0``.  For
    primal-split, ``d^T dv`` is ``sum du``: in exact arithmetic its ray
    always carries a positive multiplier.  Covering every row instead let
    the split pairs ``s_j``, ``s'_j`` trade pivots with ``z0``: half again
    as many pivots on 20x40 to 100x30 hulls, and rays with ``du = 0``.

    A ray is returned as its direction; a solution's basis is re-solved
    against ``q`` and must meet the backward-error bound
    ``feas_tol (1 + ||q|| + max|M| ||v||)``, or InternalInconsistency is
    raised, as it is on a singular final basis.  A cycle or the pivot limit
    raises MaxIterExceeded.  The outcome reports the path's pivot count.

    The pivot thresholds, the floor 1 of the ratio test's ``max(1, max|col|)``
    and the ``1 + max|q|`` of ``eps``, assume an instance near unit scale:
    ``build_lcp`` on the instance divided by its scale (``core.unit_scale``),
    which is what ``certify`` passes.  Far from it the path can pivot on
    rounding noise and end on a singular basis; the dual-orthant form of a
    hull with coordinates up to 1e3 does.
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
    status, end, pivots = _pivot_path(M, q + eps_use * delta, k)
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
    variant, raises InternalInconsistency; its message names the variant,
    and the caller knows the route.  The point is returned unchecked;
    ``certify`` applies the variational-inequality check, which certifies it
    completely because it lies in the hull.
    """
    if O.status is LcpStatus.RAY_TERMINATION and L.variant is LcpVariant.WOLFE_KKT:
        raise InternalInconsistency(
            "ray termination on the always-solvable simplex variant"
        )
    alpha = vertex_weights(P, L, O)
    if alpha is None:
        raise InternalInconsistency(
            f"{L.variant.value} {O.status.value} with no positive multiplier"
        )
    return projection_result(P, alpha, O.pivots, cfg)
