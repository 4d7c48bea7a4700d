"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
Shared sweeps (the 200-instance route comparison and the two 100-instance
origin cohorts) are computed once per session and reused by the criteria
that consume them.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest

from conftest import (
    dual_quantities,
    maximin_pair,
    origin_inside_polyhedron,
    separated_polyhedron,
)
from ppocp.certify import cross_check, reference_projection
from ppocp.core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    gram_matrix,
    projection_result,
    vi_residuals,
)
from ppocp.errors import PpocpError
from ppocp.lcp import LcpStatus, LcpVariant, build_lcp, extract_projection, lemke_solve
from ppocp.maximin import solve_maximin
from ppocp.nnls import nnls_solve, project_via_nnls
from ppocp.simplex_qp import solve_wolfe
from ppocp.support_qp import DualStatus, dual_objective, solve_dual

CFG = DEFAULT_TOLERANCES


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def sweep_instance(i):
    rng = np.random.default_rng(20_000 + i)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 13))
    return Polyhedron(rng.uniform(-5.0, 5.0, size=(m, n)))


@dataclass
class SweepRecord:
    P: Polyhedron
    results: dict = field(default_factory=dict)  # route name -> ProjectionResult
    dual_outcome: object = None
    lemke_runs: list = field(default_factory=list)  # (instance, outcome)
    errors: dict = field(default_factory=dict)


def _run_all_routes(P):
    rec = SweepRecord(P=P)

    rec.results["wolfe"] = solve_wolfe(P, CFG)

    dual = solve_dual(P, CFG)
    rec.dual_outcome = dual
    rec.results["dual"] = projection_result(P, dual.alpha, dual.iterations, CFG)

    rec.results["maximin"] = solve_maximin(P, CFG)

    for variant, name in (
        (LcpVariant.PRIMAL_SPLIT, "lcp-primal"),
        (LcpVariant.WOLFE_KKT, "lcp-wolfe"),
        (LcpVariant.DUAL_ORTHANT, "lcp-dual"),
    ):
        instance = build_lcp(P, variant)
        outcome = lemke_solve(instance, CFG)
        rec.lemke_runs.append((instance, outcome))
        rec.results[name] = extract_projection(P, instance, outcome, CFG)

    try:
        nnls_result = project_via_nnls(P, CFG)
        if nnls_result is not None:
            rec.results["nnls"] = nnls_result
    except PpocpError as err:
        rec.errors["nnls"] = str(err)

    if P.m <= 4:
        rec.results["oracle"] = reference_projection(P, CFG)
    return rec


@pytest.fixture(scope="module")
def route_sweep():
    start = time.perf_counter()
    records = [_run_all_routes(sweep_instance(i)) for i in range(200)]
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def membership_sweep():
    start = time.perf_counter()
    inside_reports = []
    outside_reports = []
    extra_results = []
    for i in range(100):
        P = origin_inside_polyhedron(30_000 + i)
        inside_reports.append(cross_check(P, CFG))
        extra_results.append((P, solve_wolfe(P, CFG).rho))
        extra_results.append((P, solve_maximin(P, CFG).rho))
    for i in range(100):
        P = separated_polyhedron(40_000 + i)
        outside_reports.append(cross_check(P, CFG))
        extra_results.append((P, solve_wolfe(P, CFG).rho))
        extra_results.append((P, solve_dual(P, CFG).rho))
    return inside_reports, outside_reports, extra_results, time.perf_counter() - start


def test_criterion_1_worked_fixtures():
    with criterion(1, "hand-worked fixtures"):
        start = time.perf_counter()

        B1 = gram_matrix(Polyhedron(np.array([[1.0, 0.0], [2.0, 0.0]])))
        assert np.array_equal(B1, [[1.0, 2.0], [2.0, 4.0]])
        assert abs(np.linalg.det(B1)) <= 1e-12

        B2 = gram_matrix(Polyhedron(np.array([[-1.0, 0.0], [1.0, 0.0]])))
        assert np.array_equal(B2, [[1.0, -1.0], [-1.0, 1.0]])
        assert abs(np.linalg.det(B2)) <= 1e-12

        C3 = -Polyhedron(np.array([[-1.0], [1.0], [5.0]])).vertices
        CCt = C3 @ C3.T
        assert CCt.shape == (3, 3)
        assert abs(np.linalg.det(CCt)) <= 1e-12

        # The split form's quadratic part, the top block of primal-split's M.
        split = build_lcp(Polyhedron(np.array([[1.0, 1.0]])), LcpVariant.PRIMAL_SPLIT)
        H = split.M[:4, :4] / 2.0
        expected = np.array(
            [
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, -1.0],
                [-1.0, 0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(H, expected)

        A61 = np.array([[1.0, -1.0], [0.0, 1.0]])
        b61 = np.array([2.0, 4.0])
        assert np.array_equal(A61.T @ b61, [2.0, 2.0])

        A62 = np.diag([-10.0, 5.0])
        b62 = np.array([-0.2, 0.4])
        assert np.array_equal(A62.T @ b62, [2.0, 2.0])

        x62, _ = nnls_solve(A62, b62, CFG)
        assert np.max(np.abs(x62 - [0.02, 0.08])) <= 1e-10

        assert time.perf_counter() - start < 1.0


def test_criterion_2_route_agreement(route_sweep):
    records, elapsed = route_sweep
    with criterion(2, "route agreement on 200 seeded instances"):
        for rec in records:
            names = list(rec.results)
            max_distance = max(rec.results[n].distance for n in names)
            tol = 1e-6 * (1.0 + max_distance)
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    a, b = rec.results[names[i]], rec.results[names[j]]
                    dev = float(np.linalg.norm(a.rho - b.rho))
                    assert dev <= tol, (names[i], names[j], dev, rec.P.vertices)
            if "oracle" in rec.results:
                oracle_rho = rec.results["oracle"].rho
                for name in names:
                    if name == "oracle":
                        continue
                    dev = float(np.linalg.norm(rec.results[name].rho - oracle_rho))
                    assert dev <= 1e-5, (name, dev)
        assert elapsed < 30.0, f"route sweep took {elapsed:.1f}s"


def test_criterion_3_membership_consensus(membership_sweep):
    inside_reports, outside_reports, _, elapsed = membership_sweep
    with criterion(3, "origin-membership consensus on 100+100 instances"):
        assert len(inside_reports) == 100 and len(outside_reports) == 100
        for report in inside_reports:
            assert report.verdict == "agree" and all(report.votes.values())
        for report in outside_reports:
            assert report.verdict == "agree" and not any(report.votes.values())
        assert elapsed < 30.0, f"membership sweep took {elapsed:.1f}s"


def test_criterion_4_optimality_certificates(route_sweep, membership_sweep):
    records, _ = route_sweep
    _, _, extra_results, _ = membership_sweep
    with criterion(4, "certificates on every returned projection"):
        failures = 0
        checked = 0
        for rec in records:
            for result in rec.results.values():
                checked += 1
                if result.vi_min < -1e-8:
                    failures += 1
                centers = rec.P.vertices / 2.0
                radii = np.linalg.norm(rec.P.vertices, axis=1) / 2.0
                excess = float(
                    (np.linalg.norm(result.rho - centers, axis=1) - radii).max()
                )
                if excess > 1e-8:
                    failures += 1
        for P, rho in extra_results:
            checked += 1
            if float(vi_residuals(P, rho).min()) < -1e-8:
                failures += 1
            centers = P.vertices / 2.0
            radii = np.linalg.norm(P.vertices, axis=1) / 2.0
            if float((np.linalg.norm(rho - centers, axis=1) - radii).max()) > 1e-8:
                failures += 1
        assert checked > 1200
        assert failures == 0, f"{failures} certificate failures out of {checked}"


def test_criterion_5_duality_identities(route_sweep):
    records, _ = route_sweep
    with criterion(5, "duality and distance identities"):
        solved = 0
        for rec in records:
            if rec.dual_outcome.status is not DualStatus.SOLVED:
                continue
            solved += 1
            # Each route's values are read off its own answer and compared
            # with the wolfe route's distance d: f* = -||y_bar||^2 = -1/d^2
            # and t = d.
            distance = rec.results["wolfe"].distance
            u_star, _ = dual_quantities(rec.dual_outcome)
            f_star = dual_objective(rec.P, u_star)
            norm_sq = 1.0 / distance**2
            assert abs(f_star + norm_sq) <= 1e-7 * (1.0 + norm_sq)
            _, t = maximin_pair(rec.P, rec.results["maximin"])
            assert abs(t - distance) <= 1e-5
        assert solved > 50  # the uniform sweep contains plenty of both kinds


def test_criterion_6_lcp_structure(route_sweep, membership_sweep):
    records, _ = route_sweep
    inside_reports, outside_reports, _, _ = membership_sweep
    with criterion(6, "complementarity structure"):
        rng = np.random.default_rng(0)
        for rec in records[:40]:
            for variant in LcpVariant:
                L = build_lcp(rec.P, variant)
                for _ in range(100):
                    v = rng.normal(size=L.k)
                    assert float(v @ L.M @ v) >= -1e-10 * float(v @ v)
        for rec in records:
            for L, outcome in rec.lemke_runs:
                if outcome.status is not LcpStatus.SOLUTION:
                    continue
                w, v = outcome.w, outcome.v
                assert np.linalg.norm(w - (L.M @ v + L.q)) <= 1e-9 * (
                    1.0 + np.linalg.norm(L.q)
                )
                assert w.min() >= -1e-9 and v.min() >= -1e-9
                comp = abs(float(w @ v))
                assert comp <= 1e-8 * (1.0 + np.linalg.norm(w)) * (
                    1.0 + np.linalg.norm(v)
                )
        # ray termination exactly on the origin-inside cohort
        assert all(report.votes["lcp-primal"] for report in inside_reports)
        assert not any(report.votes["lcp-primal"] for report in outside_reports)


def test_criterion_7_derived_chain_fixture():
    with criterion(7, "hand-verified triangle chain"):
        P = Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]))
        tol = 1e-7

        wolfe = solve_wolfe(P, CFG)
        assert np.max(np.abs(wolfe.rho - [1.0, 1.0])) <= tol
        assert np.max(np.abs(wolfe.alpha - [0.5, 0.5, 0.0])) <= tol

        u_star, y_bar = dual_quantities(solve_dual(P, CFG))
        assert np.max(np.abs(u_star - [0.5, 0.5, 0.0])) <= tol
        assert np.max(np.abs(y_bar - [0.5, 0.5])) <= tol
        assert abs(dual_objective(P, u_star) - (-0.5)) <= tol

        c_hat, t = maximin_pair(P, solve_maximin(P, CFG))
        root_half = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(c_hat - [root_half, root_half])) <= tol
        assert abs(t - np.sqrt(2.0)) <= tol

        L = build_lcp(P, LcpVariant.DUAL_ORTHANT)
        out = lemke_solve(L, CFG)
        assert out.status is LcpStatus.SOLUTION
        assert np.max(np.abs(out.v - [0.5, 0.5, 0.0])) <= tol
        assert np.max(np.abs(out.w - [0.0, 0.0, 1.0])) <= tol
