"""Euclidean projection of the origin onto a convex hull of points.

Seven routes compute the same projection: a quadratic program over the
weight simplex (wolfe), a dual quadratic program over the nonnegative
orthant (dual), a maximin search for the best separating direction
(maximin), three linear-complementarity constructions solved by Lemke
pivoting (lcp-*), and a nonnegative-least-squares reduction (nnls).  They
are not seven independent solvers: wolfe and maximin share one kernel and
one gap inequality, and the three lcp routes share one pivoting engine.
Every answer is the point of its convex weights, so it lies in the hull, and
is certified against the variational-inequality criterion; the routes are
cross-checked against each other (and, on tiny instances, a brute-force
oracle).
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
    ConstraintSystem,
    Polyhedron,
    ProjectionResult,
    Route,
    ToleranceConfig,
    constraint_matrix,
    gram_matrix,
    support_value,
    translate,
    vi_residuals,
)
from .lcp import (
    CanonicalQP,
    LCPInstance,
    LCPOutcome,
    LcpStatus,
    LcpVariant,
    build_lcp,
    canonicalize_primal,
    extract_projection,
    lemke_solve,
)
from .maximin import MaximinSolution, solve_maximin
from .nnls import NnlsProblem, ReductionData, construct_b, nnls_solve, project_via_nnls
from .simplex_qp import SimplexSolution, solve_wolfe
from .support_qp import (
    DualOutcome,
    DualStatus,
    dual_objective,
    solve_dual,
)

__version__ = "0.1.0"
