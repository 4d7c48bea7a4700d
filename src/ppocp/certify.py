"""Certificates, origin-membership consensus, and the brute-force oracle.

Every route's answer, and the oracle's, is one ProjectionResult built from
its convex weights ``alpha`` as the point ``rho = alpha @ Z``, which lies in
the hull.  It passes one check, once, on the unit instance before it is
reported: the smallest vertex residual ``<z_i - rho, rho>`` must be at least
``-opt_tol`` (``_checked``), or the answer becomes an InternalInconsistency
filed under the route's ``ROUTES`` key.  A point of the hull that meets the
variational inequality is the projection, so this check is complete.
``cross_check`` judges agreement on these unit-scale answers and only then
converts them to the caller's units.  ``check_optimality`` evaluates the
same criterion, and equivalently ``rho`` in the intersection of the balls
with diameters ``[0, z_i]``, as a certificate record, together with a hull
witness (convex weights reproducing ``rho``) when it is given one.  The two
forms are equivalent only in exact arithmetic: a vertex's ball excess is
``-<z_i - rho, rho> / (||rho - z_i/2|| + ||z_i||/2)``, first order in the
error of ``rho`` where the residual near the origin is second order, so the
ball form refuses answers the residual bound admits.

Four characterizations decide whether the hull contains the origin: the
votes of the wolfe, dual, maximin and lcp-primal routes among
``cross_check``'s.  They are equivalent theorems, so a split vote makes the
verdict ``conflict``, never resolved silently.  Each answer votes by
``core.projection_result``'s one rule, ``||rho|| <= zero_tol``.  The
reference oracle is deliberately low-tech so that it shares no machinery
with the routes it arbitrates: for up to four vertices it enumerates the
faces in floating point (``_project_enumerate``).  It is not exact, and on
hulls whose rows span many binary decades it is less accurate than the
routes.  Every entry point solves ``Z / s`` (``core.unit_scale``) and
reports in the caller's units.

The wolfe and maximin routes share Wolfe's minimum-norm-point kernel.
``cross_check`` runs it once per call when wolfe's entry is ``ok``: the
maximin route checks that answer's weights.  Otherwise maximin runs the
kernel itself, as ``run_route`` does, and the deterministic kernel gives it
the weights wolfe's run had.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    ToleranceConfig,
    projection_result,
    simplex_deviation,
    unit_scale,
    vi_residuals,
)
from .errors import InternalInconsistency, PpocpError
from .lcp import LcpVariant, build_lcp, extract_projection, lemke_solve
from .maximin import maximin_from_weights, solve_maximin
from .nnls import project_via_nnls
from .simplex_qp import solve_wolfe
from .support_qp import solve_dual

__all__ = [
    "CheckRecord",
    "Certificate",
    "RouteEntry",
    "ConsensusReport",
    "ROUTES",
    "reference_projection",
    "check_optimality",
    "run_route",
    "cross_check",
]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class Certificate:
    """Outcome of the optimality checks for one candidate projection."""

    vi_min: float
    zero_inside: bool
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


@dataclass(frozen=True)
class RouteEntry:
    status: str  # "ok", "not-applicable", or "error"
    result: ProjectionResult | None = None
    error: str | None = None


@dataclass(frozen=True)
class ConsensusReport:
    entries: dict[str, RouteEntry]
    pairwise_max_deviation: float
    votes: dict[str, bool]
    verdict: str  # "agree" or "conflict"

    @property
    def headline(self) -> ProjectionResult | None:
        """The first successful route's result, in route order."""
        return next((e.result for e in self.entries.values() if e.status == "ok"), None)

    @property
    def rho(self) -> np.ndarray | None:
        headline = self.headline
        return None if headline is None else headline.rho


def _project_enumerate(z):
    """Subset enumeration in floating point: project onto every face's affine hull.

    For each vertex subset, project the origin onto its affine hull with
    ``np.linalg.lstsq`` and keep the candidate when its barycentric weights
    are all at least ``-1e-12``.  The true projection lies on some face and
    is a nonnegative combination of an affinely independent subset, whose
    (then unique) weights the least-squares solve reproduces in exact
    arithmetic, so it is among the candidates.  In floating point the solve
    loses accuracy with the conditioning of the face: on hulls whose rows
    span many binary decades the oracle is less accurate than the routes it
    arbitrates.  Grid search at any fixed step cannot reach the residual
    tolerances the certificates demand.  Returns the nearest candidate's m
    weights and the number of candidates compared: every vertex, plus each
    larger face whose affine-hull projection passes the weight test.
    """
    m = z.shape[0]
    best = None
    best_norm = np.inf
    evaluations = 0
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            zs = z[list(subset)]
            if size == 1:
                bary = np.ones(1)
            else:
                base = zs[0]
                V = (zs[1:] - base).T
                s, *_ = np.linalg.lstsq(V, -base, rcond=None)
                bary = np.concatenate([[1.0 - s.sum()], s])
                if bary.min() < -1e-12:
                    continue
            evaluations += 1
            cand = bary @ zs
            norm_sq = float(cand @ cand)
            if norm_sq < best_norm:
                best_norm = norm_sq
                best = np.zeros(m)
                best[list(subset)] = bary
    return best, evaluations


def reference_projection(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectionResult:
    """Independent projection for up to four vertices by face enumeration.

    ``iterations`` counts the faces evaluated (see ``_project_enumerate``).
    No solver machinery is shared with the routes this oracle arbitrates.
    Raises ValueError on more than four vertices.
    """
    if P.m > 4:
        raise ValueError(f"oracle handles at most 4 vertices, got {P.m}")
    alpha, evaluations = _project_enumerate(P.vertices)
    return projection_result(P, alpha, evaluations, cfg)


def check_optimality(
    P: Polyhedron,
    rho,
    alpha=None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> Certificate:
    """Evaluate the optimality criterion at a candidate point.

    Judged on ``Z / s`` as the routes are: ``vi_min`` against ``opt_tol s^2``,
    the ball excess, witness and ``zero_inside`` against ``opt_tol``,
    ``feas_tol`` and ``zero_tol`` times ``s``; residuals in the caller's units.
    Failures are recorded in the certificate, never raised: callers decide
    what a failed check means in context.
    """
    U, s = unit_scale(P)
    r = np.asarray(rho, dtype=float) / s
    checks = []

    vi_min = float(vi_residuals(U, r).min())
    checks.append(CheckRecord("vi-min", vi_min >= -cfg.opt_tol, vi_min * s * s))

    # Ball form of the membership test for the set containing every valid
    # projection: excess over each ball's radius must be ~nonpositive.
    centers = U.vertices / 2.0
    radii = np.linalg.norm(U.vertices, axis=1) / 2.0
    excess = float((np.linalg.norm(r - centers, axis=1) - radii).max())
    checks.append(CheckRecord("omega-ball", excess <= cfg.opt_tol, excess * s))

    if alpha is not None:
        witness = np.asarray(alpha, dtype=float)
        simplex_dev = simplex_deviation(witness)
        combo_dev = float(np.linalg.norm(witness @ U.vertices - r))
        ok = (
            simplex_dev <= cfg.feas_tol
            and combo_dev <= cfg.feas_tol * (1.0 + float(np.linalg.norm(r)))
        )
        checks.append(CheckRecord("hull-witness", ok, max(simplex_dev, combo_dev) * s))

    return Certificate(
        vi_min=vi_min * s * s,
        zero_inside=float(np.linalg.norm(r)) <= cfg.zero_tol,
        checks=tuple(checks),
    )


# The route table: a route's name is its ``ROUTES`` key, and nothing else
# names it; ``cross_check`` files each entry under that key and adds
# ``"oracle"``.  Each runner takes ``(P, cfg)`` and returns the route's
# unchecked ProjectionResult on ``P``, built from its convex weights alone by
# ``core.projection_result``, or None when the route does not apply.
# The wolfe and maximin solvers return that record themselves; the dual's
# ``DualOutcome`` keeps a ``status`` besides its weights, so its runner builds
# the record from them.  Weights proving the origin inside (the dual's
# unbounded objective, a Lemke ray) answer with the point they combine to,
# as all weights do.  ``_checked`` runs a runner on the unit instance and
# checks its answer, once.
# Runners look the solvers up as module globals at call time, so replacing
# ``certify.solve_wolfe`` and its peers reaches every caller; in
# ``cross_check`` the maximin route calls ``certify.maximin_from_weights`` on
# wolfe's ``ok`` entry instead of ``certify.solve_maximin``.


def _run_wolfe(P, cfg):
    return solve_wolfe(P, cfg)


def _run_dual(P, cfg):
    out = solve_dual(P, cfg)
    return projection_result(P, out.alpha, out.iterations, cfg)


def _run_maximin(P, cfg):
    return solve_maximin(P, cfg)


def _run_lcp(variant):
    def runner(P, cfg):
        L = build_lcp(P, variant)
        return extract_projection(P, L, lemke_solve(L, cfg), cfg)

    return runner


def _run_nnls(P, cfg):
    return project_via_nnls(P, cfg)


def _run_oracle(P, cfg):
    return reference_projection(P, cfg)


ROUTES = {
    "wolfe": _run_wolfe,
    "dual": _run_dual,
    "maximin": _run_maximin,
    "lcp-primal": _run_lcp(LcpVariant.PRIMAL_SPLIT),
    "lcp-wolfe": _run_lcp(LcpVariant.WOLFE_KKT),
    "lcp-dual": _run_lcp(LcpVariant.DUAL_ORTHANT),
    "nnls": _run_nnls,
}


def _checked(runner, U, cfg) -> ProjectionResult | None:
    """``runner``'s answer on the unit instance ``U``, or None where it does not apply.

    The one optimality check every answer meets before it is reported:
    ``min_i <z_i - rho, rho> >= -opt_tol``, the bound ``check_optimality``
    prints as its ``vi-min`` check.  An answer below it raises
    InternalInconsistency.
    """
    result = runner(U, cfg)
    if result is not None and result.vi_min < -cfg.opt_tol:
        raise InternalInconsistency(
            f"answer fails the optimality residual: {result.vi_min:.3e}"
        )
    return result


def _in_units(r: ProjectionResult, s: float) -> ProjectionResult:
    """A checked unit-scale answer in units ``s`` times larger."""
    return replace(r, rho=r.rho * s, distance=r.distance * s, vi_min=r.vi_min * s * s)


def run_route(
    name: str, P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectionResult | None:
    """One ``ROUTES`` runner's checked answer on ``P``, solved at unit scale."""
    U, s = unit_scale(P)
    result = _checked(ROUTES[name], U, cfg)
    return None if result is None else _in_units(result, s)


def cross_check(
    P: Polyhedron, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ConsensusReport:
    """Run every applicable route and the oracle at unit scale and compare.

    Per-route errors, an answer failing the VI check included, are captured
    in the report rather than aborting the remaining routes.  The kernel the
    wolfe and maximin routes share runs once when wolfe's entry is ``ok``:
    maximin checks that answer's weights, and otherwise runs the kernel again.
    The verdict is judged on the unit-scale answers: ``agree`` only when all
    successful routes match pairwise within ``1e-6 (1 + max distance)`` and
    their origin-membership votes coincide.  Entries and the deviation are
    then reported in the caller's units.
    """
    U, s = unit_scale(P)
    entries: dict[str, RouteEntry] = {}

    def maximin(P, cfg):  # runs after wolfe's entry is filed, in ROUTES order
        wolfe = entries["wolfe"]
        if wolfe.status != "ok":
            return solve_maximin(P, cfg)
        return maximin_from_weights(P, wolfe.result.alpha, wolfe.result.iterations, cfg)

    runners = dict(ROUTES, maximin=maximin)
    if U.m <= 4:
        runners["oracle"] = _run_oracle
    for name, runner in runners.items():
        try:
            result = _checked(runner, U, cfg)
        except PpocpError as err:
            entries[name] = RouteEntry(status="error", error=str(err))
        else:
            entries[name] = RouteEntry("not-applicable" if result is None else "ok", result)

    good = {name: e.result for name, e in entries.items() if e.status == "ok"}
    pairs = combinations([r.rho for r in good.values()], 2)
    max_dev = max((float(np.linalg.norm(a - b)) for a, b in pairs), default=0.0)

    votes = {name: result.origin_inside for name, result in good.items()}
    max_distance = max((r.distance for r in good.values()), default=0.0)
    agree = (
        bool(good)
        and all(e.status != "error" for e in entries.values())
        and max_dev <= 1e-6 * (1.0 + max_distance)
        and len(set(votes.values())) <= 1
    )
    for name, result in good.items():
        entries[name] = RouteEntry(status="ok", result=_in_units(result, s))
    return ConsensusReport(
        entries=entries,
        pairwise_max_deviation=max_dev * s,
        votes=votes,
        verdict="agree" if agree else "conflict",
    )
