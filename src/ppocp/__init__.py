"""Euclidean projection of the origin onto a convex hull of points.

Seven routes compute the same projection: a quadratic program over the
weight simplex (wolfe), a dual quadratic program over the nonnegative
orthant (dual), a maximin search for the best separating direction
(maximin), three linear-complementarity constructions solved by Lemke
pivoting (lcp-*), and a nonnegative-least-squares reduction (nnls).  A
route is named only by its key in ``certify.ROUTES``: the name ``project
--method`` takes and ``cross_check`` files the route's entry under.  The
seven are not independent solvers: wolfe and maximin share one kernel and
one gap inequality, and the three lcp routes share one pivoting engine.
Every answer is the point of its convex weights, so it lies in the hull, and
is certified against the variational-inequality criterion; the routes are
cross-checked against each other (and, on tiny instances, a brute-force
oracle).  The wolfe and maximin solvers return their route's
ProjectionResult; the dual's DualOutcome holds the same weights and point
and, alone among the first-order records, a status.
"""

from .certify import (
    Certificate,
    ConsensusReport,
    check_optimality,
    cross_check,
    reference_projection,
)
from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    ToleranceConfig,
    gram_matrix,
    support_value,
    translate,
    vi_residuals,
)
from .lcp import (
    LCPInstance,
    LCPOutcome,
    LcpStatus,
    LcpVariant,
    build_lcp,
    extract_projection,
    lemke_solve,
)
from .maximin import solve_maximin
from .nnls import construct_b, nnls_solve, project_via_nnls
from .simplex_qp import solve_wolfe
from .support_qp import (
    DualOutcome,
    DualStatus,
    dual_objective,
    solve_dual,
)

__version__ = "0.1.0"
