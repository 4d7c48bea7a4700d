"""Instance representation and the shared computations every solver route uses.

A problem instance is a polytope given as the convex hull of finitely many
vertices ``z_1..z_m`` in R^n; the task everywhere in this package is the
Euclidean projection of the origin onto that hull.  This module owns the
vertex matrix ``Z``, the one statement of the instance that every route
reads, and the Gram matrix of vertex inner products, the
variational-inequality residuals used to certify every route's answer, the
one rule by which every answer votes on origin membership
(``projection_result``), and Wolfe's minimum-norm-point kernel
(``refine_simplex_minimizer``), which the wolfe and maximin routes share and
which works on the vertex rows in R^n without forming the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "Polyhedron",
    "ProjectionResult",
    "gram_matrix",
    "support_value",
    "vi_residuals",
    "translate",
    "unit_scale",
    "kernel_rows",
    "simplex_deviation",
    "projection_result",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by all routes.

    feas_tol bounds constraint violations, opt_tol bounds optimality
    residuals, and zero_tol decides when the origin is declared inside the
    hull.  The entry points in ``certify`` and the CLI apply them to ``Z / s``
    (``unit_scale``); solver functions called directly apply them to ``Z``
    as given.
    Every tolerance must be finite and positive: a NaN tolerance fails every
    comparison and an infinite one passes every check.  ``max_iter`` counts
    cycles, so it must also be an integer, and not a bool.
    """

    feas_tol: float = 1e-9
    opt_tol: float = 1e-8
    zero_tol: float = 1e-8
    max_iter: int = 100_000

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError("max_iter must be an integer")
        for name in ("feas_tol", "opt_tol", "zero_tol", "max_iter"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")


DEFAULT_TOLERANCES = ToleranceConfig()


def _readonly(a: np.ndarray) -> np.ndarray:
    if (
        isinstance(a, np.ndarray)
        and a.dtype == float
        and a.base is None
        and not a.flags.writeable
    ):
        return a  # a frozen buffer of its own: a copy would only cost memory
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Polyhedron:
    """Convex hull of ``m`` vertices in R^n, stored as an (m, n) row matrix.

    Vertex order is preserved: row index ``i`` is a stable identifier used in
    every weight vector, residual vector and diagnostic across the package.
    Duplicate vertices are legal and kept as given, with no warning: the
    hull, and so the projection, is the same without them.
    """

    vertices: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.vertices, dtype=float)
        if z.ndim != 2:
            raise ValueError(
                "vertices must be a 2-D array-like with one row per vertex"
            )
        if z.shape[0] < 1 or z.shape[1] < 1:
            raise ValueError("need at least one vertex of dimension at least one")
        if not np.all(np.isfinite(z)):
            raise ValueError("vertices must have finite coordinates")
        object.__setattr__(self, "vertices", _readonly(z))

    @property
    def m(self) -> int:
        return self.vertices.shape[0]

    @property
    def n(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class ProjectionResult:
    """A route's answer: the convex vertex weights ``alpha``, the point
    ``rho = alpha @ Z`` they combine to, its norm and certificate data.

    The record does not name its route: a caller knows which it ran, and
    ``certify.cross_check`` files each answer under its ``ROUTES`` key.
    """

    rho: np.ndarray
    distance: float
    iterations: int
    vi_min: float
    origin_inside: bool
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _readonly(self.rho))
        object.__setattr__(self, "alpha", _readonly(self.alpha))


def _vector(y, n: int, name: str = "y") -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"{name} must be a vector of dimension {n}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{name} must be finite")
    return y


def gram_matrix(P: Polyhedron) -> np.ndarray:
    """Gram matrix ``B[i, j] = <z_i, z_j>``, symmetric to the bit.

    NumPy computes ``Z @ Z.T`` on one buffer with a symmetric rank-k update
    (BLAS ``syrk``) and copies one triangle into the other, so ``B == B.T``
    holds exactly.  The array is read-only.
    """
    B = P.vertices @ P.vertices.T
    B.flags.writeable = False
    return B


def support_value(P: Polyhedron, c) -> tuple[float, int]:
    """Smallest vertex inner product ``min_i <c, z_i>`` and its vertex index.

    This is the support function of the hull in direction ``-c`` up to sign;
    the minimum over the whole hull is attained at a vertex, so scanning the
    vertex list is exact.  Ties resolve to the lowest index.
    """
    c = _vector(c, P.n, "c")
    values = P.vertices @ c
    idx = int(np.argmin(values))
    return float(values[idx]), idx


def vi_residuals(P: Polyhedron, y) -> np.ndarray:
    """Vertex residuals ``<z_i - y, y>`` of the variational inequality.

    ``y`` is the projection of the origin exactly when every entry is
    nonnegative; callers inspect the minimum entry.  The formula is applied
    literally per index so that the residual at ``y = z_j`` is an exact zero.
    """
    y = _vector(y, P.n)
    return (P.vertices - y) @ y


def translate(P: Polyhedron, p) -> Polyhedron:
    """Shift every vertex by ``-p``, keeping the rows' order and duplicates.

    Projecting an arbitrary point ``p`` onto the hull reduces to projecting
    the origin onto the shifted hull and adding ``p`` back.  Raises
    ValueError when a shifted coordinate overflows.
    """
    p = _vector(p, P.n, "p")
    with np.errstate(over="ignore"):
        return Polyhedron(P.vertices - p)


def unit_scale(P: Polyhedron) -> tuple[Polyhedron, float]:
    """``(Polyhedron(Z / s), s)`` with ``s = 2^round(log2 max_i ||z_i||)``.

    ``s`` is exact to divide by, so ``2^k P`` gives the same unit instance
    with ``s`` times ``2^k``.
    """
    k = _unit_exponent(P.vertices)
    return Polyhedron(np.ldexp(P.vertices, -k)), float(np.ldexp(1.0, k))


def _unit_exponent(z: np.ndarray) -> int:
    """``k = round(log2 max_i ||z_i||)``, from norms taken over the binary
    exponent of the largest entry, so that none overflows or underflows."""
    e = int(np.frexp(np.abs(z).max())[1])  # 0 when every vertex is the origin
    norm = float(np.linalg.norm(np.ldexp(z, -e), axis=1).max())
    return min(e + round(float(np.log2(norm))), 1023) if norm > 0.0 else 0


def kernel_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(2^-k Z, its squared row norms, k)`` with ``k = round(log2 max_i ||z_i||)``.

    The first-order kernels solve this rescaling of the rows they are given,
    so neither their squared norms nor their iterates overflow or underflow
    at any scale of ``Z``.  ``k`` comes from the squared norms of ``Z``
    itself unless those are not finite or not normal; then it is
    ``unit_scale``'s.  When ``k = 0``, as on ``unit_scale``'s instance,
    ``Z`` is returned as given.
    """
    sq = np.einsum("ij,ij->i", Z, Z)
    top = float(sq.max())
    if np.isfinite(top) and top >= np.finfo(float).tiny:
        k = round(0.5 * float(np.log2(top)))
    else:
        k = _unit_exponent(Z)
    if k == 0:
        return Z, sq, 0
    Z = np.ldexp(Z, -k)
    return Z, np.einsum("ij,ij->i", Z, Z), k


def simplex_deviation(alpha: np.ndarray) -> float:
    """How far weights are from the simplex: ``max(|sum - 1|, -min)``."""
    return max(abs(float(alpha.sum()) - 1.0), -float(alpha.min()), 0.0)


def projection_result(
    P: Polyhedron,
    alpha,
    iterations: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProjectionResult:
    """The answer ``rho = alpha @ Z`` of convex weights, with distance and VI residual.

    Every route's origin-membership vote is decided here, by one rule with
    no exception: ``distance <= zero_tol``.  Weights of the wrong shape, not
    finite or off the simplex by over ``feas_tol`` raise InternalInconsistency.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (P.m,):
        raise InternalInconsistency(f"{alpha.shape} weights for {P.m} vertices")
    deviation = simplex_deviation(alpha)
    if not deviation <= cfg.feas_tol:  # a NaN deviation fails too
        raise InternalInconsistency(f"weights are off the simplex by {deviation:.3e}")
    rho = alpha @ P.vertices
    distance = float(np.linalg.norm(rho))
    if not 2.0**-500 < distance < 2.0**500 and rho.any():
        # The norm's squares leave the double range past about 2**+-511.
        e = int(np.frexp(np.abs(rho).max())[1])
        distance = float(np.ldexp(np.linalg.norm(np.ldexp(rho, -e)), e))
    vi_min = float(vi_residuals(P, rho).min())
    return ProjectionResult(
        rho=rho,
        distance=distance,
        iterations=iterations,
        vi_min=vi_min,
        origin_inside=distance <= cfg.zero_tol,
        alpha=alpha,
    )


def refine_simplex_minimizer(Z: np.ndarray, max_cycles: int) -> tuple[np.ndarray, int]:
    """Minimize ``||a @ Z||^2`` over the simplex by Wolfe's minimum-norm point.

    P. Wolfe, "Finding the nearest point in a polytope" (Math. Prog. 11,
    1976), run on the vertex rows ``Z`` in R^n; the m x m Gram matrix is
    never formed.  The corral starts at the lowest-norm vertex (lowest
    index on ties), so the weights depend on ``Z`` and ``max_cycles`` alone
    and the two routes that make this call get the same answer.  Each major
    cycle scans ``j = argmin Z x`` and stops once ``||x||^2 - <z_j, x>`` is
    at most ``64 eps max_i ||z_i||^2`` or ``z_j`` is already in the corral;
    otherwise ``z_j`` joins it.  Each minor cycle solves the affine-hull
    problem on the corral as the square bordered linear system of Wolfe's
    paper, by LU with partial pivoting (``np.linalg.solve``), and, when
    that leaves the simplex, steps back to its boundary and drops the
    vertices whose weight reaches zero, save ``z_j`` in its first minor
    cycle unless it blocks the step itself: a short step leaves it a weight
    too small to tell from rounding, but it still has to stay.  The corral
    stays affinely independent, so it never holds more than n + 1 vertices,
    and ``||x||^2`` falls with every major cycle.  An exactly singular
    system would mean an affinely dependent corral; it raises
    InternalInconsistency.  All of this runs on
    ``kernel_rows(Z)``, the rows divided by ``2^round(log2 max_i ||z_i||)``,
    so no norm overflows or underflows, and scaling ``Z`` by a power of two
    leaves the weights unchanged to the bit.  Returns the weights over all
    m vertices and the number of minor cycles taken; at most
    ``max_cycles`` major cycles run.
    """
    Z, sq, _ = kernel_rows(np.asarray(Z, dtype=float))
    m = Z.shape[0]
    tol = 64.0 * np.finfo(float).eps * float(sq.max())
    corral = np.array([int(np.argmin(sq))])
    lam = np.ones(1)
    x = Z[corral[0]].copy()
    steps = 0
    for _ in range(max_cycles):
        xx = float(x @ x)
        w = Z @ x
        j = int(np.argmin(w))
        if xx - float(w[j]) <= tol or j in corral:
            break
        corral = np.append(corral, j)
        lam = np.append(lam, 0.0)
        entering = True
        while True:
            steps += 1
            Zs = Z[corral]
            k = len(corral)
            K = np.zeros((k + 1, k + 1))
            # The Gram block is divided by its largest diagonal entry so that
            # it and the unit border share one magnitude: the pivots that LU's
            # partial pivoting picks between Gram rows and the border row then
            # do not depend on the units of Z.
            G = Zs @ Zs.T
            K[:k, :k] = G / G.diagonal().max()
            K[:k, k] = -1.0
            K[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                mu = np.linalg.solve(K, rhs)[:k]
            except np.linalg.LinAlgError:
                raise InternalInconsistency(
                    f"Wolfe's bordered system is singular for a corral of {k} vertices"
                ) from None
            if mu.min() >= 0.0:
                lam = mu
                break
            neg = np.flatnonzero(mu < 0.0)
            ratios = lam[neg] / (lam[neg] - mu[neg])
            first = int(np.argmin(ratios))
            theta = min(max(float(ratios[first]), 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            lam[neg[first]] = 0.0
            keep = lam > 1e-14
            if entering:
                # z_j improves on x, so its affine weight mu_j is positive and
                # its weight theta mu_j is small only when the step is: z_j
                # stays through this first minor cycle unless it blocks.
                keep |= corral == j
                keep[neg[first]] = False
                entering = False
            corral, lam = corral[keep], lam[keep]
        keep = lam > 0.0
        corral, lam = corral[keep], lam[keep] / lam[keep].sum()
        x = lam @ Z[corral]
        if j not in corral:
            # z_j blocked its own first step (a negative affine weight, which
            # exact arithmetic rules out), or a later minor cycle left it no
            # weight: x made no progress towards it, so stop here and let the
            # caller's gap check judge x.
            break
    weights = np.zeros(m)
    weights[corral] = lam
    return weights, steps
