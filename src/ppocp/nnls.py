"""Nonnegative least squares route.

With ``C = -Z``, the vertex rows negated (``D = {y : C y <= -e}`` in
``support_qp``), design matrix ``A = C^T`` and a right-hand side satisfying
``A^T b = 2 e``, the problem ``min 1/4 ||A x - b||^2`` over ``x >= 0`` has
the same minimizer as the dual QP of ``support_qp`` (the objectives differ
by the constant ``||b||^2 / 4``).  Its solution ``x`` gives the projection's
convex weights ``x / sum x``: ``Z^T x / sum x`` is the dual's closed form
``y / ||y||^2`` at ``y = -1/2 C^T x``.  The ``1/4`` scaling is kept
throughout so that the converted quadratic form is ``Q = A^T A``,
``p = -1/2 A^T b`` with no stray factors.

Such a ``b`` exists only when ``C b = 2 e`` is consistent, which the
residual of the minimum-norm least-squares solution decides (``construct_b``);
nonsingular square ``C`` is always consistent.  Inconsistency is data, not
an error; the caller falls back to the other routes.

The solver is the Lawson-Hanson active-set method with lowest-index
tie-breaking on the entering coordinate.  Its inner solves on the passive
columns are plain minimum-norm least squares (``numpy.linalg.lstsq``); the
method needs some least-squares solution there, not a particular
factorization.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    ToleranceConfig,
    projection_result,
)
from .errors import MaxIterExceeded

__all__ = [
    "nnls_solve",
    "construct_b",
    "project_via_nnls",
]


def nnls_solve(A, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, int]:
    """Minimize ``1/4 ||A x - b||^2`` over the nonnegative orthant.

    At the returned ``x`` the gradient ``1/2 A^T (A x - b)`` vanishes (to
    ``opt_tol``) on the positive coordinates and is at least ``-opt_tol`` on
    the zero ones.  Returns ``x`` and the number of inner least-squares
    solves.  Raises ValueError unless ``A`` is a matrix and ``b`` a vector of
    its row count, both finite, and MaxIterExceeded past ``cfg.max_iter``
    inner solves.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("need a matrix A and a right-hand side of matching rows")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("entries must be finite")
    s = A.shape[1]
    x = np.zeros(s)
    passive = np.zeros(s, dtype=bool)
    w = A.T @ b
    # Under the 1/4 scaling the gradient is -w/2, so the dual-feasibility
    # threshold opt_tol on the gradient is 2 opt_tol on w.
    w_tol = 2.0 * cfg.opt_tol
    iterations = 0
    while not passive.all():
        masked = np.where(passive, -np.inf, w)
        j = int(np.argmax(masked))
        if masked[j] <= w_tol:
            break
        passive[j] = True
        while True:
            iterations += 1
            if iterations > cfg.max_iter:
                raise MaxIterExceeded("active-set iteration budget exhausted")
            z, *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            if z.size and z.min() <= 0.0:
                xs = x[passive]
                neg = z <= 0.0
                step = float(np.min(xs[neg] / (xs[neg] - z[neg])))
                xs = xs + step * (z - xs)
                xs[neg & (xs <= 1e-14)] = 0.0
                x[passive] = np.maximum(xs, 0.0)
                passive[x <= 0.0] = False
                x[~passive] = 0.0
            else:
                x[:] = 0.0
                x[passive] = z
                break
        w = A.T @ (b - A @ x)
    return x, iterations


def construct_b(P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray | None:
    """A right-hand side ``b`` with ``-Z b = 2 e``, or None when there is none.

    ``b`` is the minimum-norm least-squares solution (``numpy.linalg.lstsq``)
    on every shape, square or not; the reduction applies when its residual
    is at most ``feas_tol (1 + sqrt m)``, ``sqrt m`` being ``||e||``.
    """
    C = -P.vertices
    b, *_ = np.linalg.lstsq(C, np.full(P.m, 2.0), rcond=None)
    residual = float(np.linalg.norm(C @ b - 2.0))
    return b if residual <= cfg.feas_tol * (1.0 + np.sqrt(P.m)) else None


def project_via_nnls(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectionResult | None:
    """Full pipeline through the least-squares reduction.

    Returns None when no valid right-hand side exists (the reduction is
    inapplicable for this instance; callers fall back to other routes).
    The answer is the point of the weights ``x / sum x``.  It is returned
    unchecked; the nnls runner in ``certify`` applies the
    variational-inequality check.
    """
    b = construct_b(P, cfg)
    if b is None:
        return None
    x, iterations = nnls_solve(-P.vertices.T, b, cfg)
    return projection_result(P, x / x.sum(), iterations, cfg)
