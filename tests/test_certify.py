import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    LINE_POINTS,
    SEGMENT_THROUGH_ORIGIN,
    SINGLE_POINT,
    TRIANGLE,
    consensus_sweep,
    far_vertex_kernel,
    origin_inside_polyhedron,
    random_polyhedron,
    separated_polyhedron,
)
from ppocp import certify, maximin, simplex_qp
from ppocp.certify import (
    ROUTES,
    check_optimality,
    cross_check,
    reference_projection,
)
from ppocp.core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ToleranceConfig,
    projection_result,
    unit_scale,
)
from ppocp.errors import MaxIterExceeded
from ppocp.simplex_qp import solve_wolfe


class TestReferenceProjection:
    def test_single_point(self):
        res = reference_projection(Polyhedron(np.array(SINGLE_POINT)))
        assert_allclose(res.rho, [3.0, 4.0])

    def test_segment_through_origin(self):
        res = reference_projection(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert_allclose(res.rho, [0.0, 0.0])
        assert res.origin_inside

    def test_triangle_edge_projection(self):
        res = reference_projection(Polyhedron(np.array(TRIANGLE)))
        assert_allclose(res.rho, [1.0, 1.0], atol=1e-12)

    def test_interior_affine_case(self):
        # Triangle whose affine-hull projection is already feasible.
        P = Polyhedron(np.array([[1.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
        res = reference_projection(P)
        assert np.all(np.abs(res.rho - [1.0, 0.0, 0.0]) <= 1e-10)

    def test_four_vertices(self):
        P = Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [3.0, 1.0]]))
        res = reference_projection(P)
        assert_allclose(res.rho, [1.0, 1.0], atol=1e-12)

    def test_four_vertices_against_plain_grid(self):
        # Coarse grid scan of the weight simplex as an independent sanity
        # bound on the enumeration result.
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = rng.uniform(-5.0, 5.0, size=(4, 3))
            res = reference_projection(Polyhedron(z))
            ticks = np.linspace(0.0, 1.0, 41)
            a1, a2, a3 = np.meshgrid(ticks, ticks, ticks, indexing="ij")
            pts = np.column_stack([a1.ravel(), a2.ravel(), a3.ravel()])
            pts = pts[pts.sum(axis=1) <= 1.0 + 1e-12]
            weights = np.column_stack([pts, 1.0 - pts.sum(axis=1)])
            grid_best = float(np.min(np.sum((weights @ z) ** 2, axis=1)))
            assert res.distance**2 <= grid_best + 1e-12

    def test_scale_limit(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            reference_projection(Polyhedron(rng.uniform(-1, 1, size=(5, 2))))

    def test_matches_routes_on_small_instances(self):
        for seed in range(30):
            P = random_polyhedron(seed, max_m=4, max_n=5)
            res = reference_projection(P)
            rho_w = solve_wolfe(P).rho
            assert np.linalg.norm(res.rho - rho_w) <= 1e-5

    def test_certificate_always_passes(self):
        for seed in range(20):
            P = random_polyhedron(seed, max_m=4, max_n=4)
            res = reference_projection(P)
            cert = check_optimality(P, res.rho)
            assert cert.passed, [c for c in cert.checks if not c.passed]


class TestCheckOptimality:
    def test_triangle_with_witness(self):
        P = Polyhedron(np.array(TRIANGLE))
        cert = check_optimality(P, np.array([1.0, 1.0]), alpha=np.array([0.5, 0.5, 0.0]))
        assert cert.passed
        assert cert.vi_min == pytest.approx(0.0, abs=1e-14)
        assert not cert.zero_inside

    def test_non_optimal_point_fails(self):
        P = Polyhedron(np.array(TRIANGLE))
        cert = check_optimality(P, np.array([2.0, 2.0]))
        assert not cert.passed
        assert cert.vi_min == pytest.approx(-4.0)

    def test_origin_inside_case(self):
        P = Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN))
        cert = check_optimality(P, np.zeros(2))
        assert cert.passed
        assert cert.zero_inside

    def test_judged_at_the_instance_scale(self):
        # The hull times 2^20 gets the same verdicts as the hull itself, with
        # residuals in its own units, and the certificate of each route's
        # answer reports the vi_min that route was checked with.
        P = separated_polyhedron(3)
        big = Polyhedron(P.vertices * 2.0**20)
        report = cross_check(big)
        assert report.verdict == "agree"
        for entry in report.entries.values():
            if entry.status != "ok":
                continue
            rho = entry.result.rho
            cert = check_optimality(big, rho)
            base = check_optimality(P, rho / 2.0**20)
            assert cert.passed and base.passed
            assert cert.vi_min == entry.result.vi_min == base.vi_min * 2.0**40
            assert cert.zero_inside is base.zero_inside is False
            vi, ball = cert.checks
            assert vi.residual == base.checks[0].residual * 2.0**40
            assert ball.residual == base.checks[1].residual * 2.0**20

    def test_hull_witness_residual_in_caller_units(self):
        P = Polyhedron(np.array(TRIANGLE) * 2.0**20)
        alpha = np.array([0.5, 0.5, 0.0])
        cert = check_optimality(P, alpha @ P.vertices + [2.0**-20, 0.0], alpha=alpha)
        witness = cert.checks[-1]
        assert witness.name == "hull-witness" and witness.passed
        assert witness.residual == pytest.approx(2.0**-20)

    def test_ball_form_refuses_what_vi_admits(self):
        # The projection is the origin, and rho lies 1e-5 from it.  Near the
        # origin the VI residual is second order in that error and the ball
        # excess first order, so the checks part: -1.1e-10 against 1e-5.
        P = Polyhedron(np.array([[-1e-6, 0.0], [1.0, 0.0]]))
        vi, ball = check_optimality(P, [1e-5, 0.0]).checks
        assert vi.name == "vi-min" and vi.passed
        assert vi.residual == pytest.approx(-1.1e-10)
        assert ball.name == "omega-ball" and not ball.passed
        assert ball.residual == pytest.approx(1e-5)

    def test_bad_witness_recorded_not_raised(self):
        P = Polyhedron(np.array(TRIANGLE))
        cert = check_optimality(P, np.array([1.0, 1.0]), alpha=np.array([1.0, 0.0, 0.0]))
        names = {c.name: c.passed for c in cert.checks}
        assert not names["hull-witness"]
        assert not cert.passed


@pytest.mark.parametrize(
    "call",
    [
        lambda P: cross_check(P),
        lambda P: check_optimality(P, [3.0, 3.0]),
        lambda P: certify.run_route("lcp-dual", P),
    ],
    ids=["cross_check", "check_optimality", "run_route"],
)
def test_one_unit_instance_per_call(call, monkeypatch):
    # s = 2^round(log2(6 sqrt 2)) = 8 for the triangle times 3.
    P = Polyhedron(np.array(TRIANGLE) * 3.0)
    built = []
    init = Polyhedron.__post_init__

    def counted(self):
        init(self)
        built.append(self.vertices)

    monkeypatch.setattr(Polyhedron, "__post_init__", counted)
    call(P)
    assert len(built) == 1
    assert_array_equal(built[0], P.vertices / 8.0)


class TestUnitScale:
    def test_power_of_two_nearest_the_largest_norm(self):
        U, s = unit_scale(Polyhedron(np.array([[3.0, 4.0], [1.0, 0.0]])))
        assert s == 4.0  # log2 5 = 2.32
        assert_array_equal(U.vertices, [[0.75, 1.0], [0.25, 0.0]])

    def test_origin_only(self):
        U, s = unit_scale(Polyhedron(np.zeros((1, 3))))
        assert s == 1.0
        assert_array_equal(U.vertices, np.zeros((1, 3)))

    @pytest.mark.parametrize("k", [-1074, -1000, -500, 500, 1000])
    def test_extreme_scales_stay_finite(self, k):
        # Norms would underflow or overflow if taken on the raw coordinates.
        Z = np.ldexp(np.array([[1.0, 1.0], [0.5, 0.0]]), k)
        U, s = unit_scale(Polyhedron(Z))
        assert 0.5 <= np.linalg.norm(U.vertices, axis=1).max() <= 2.0
        assert_array_equal(U.vertices * s, Z)

    def test_exact_tie_gives_one_unit_instance(self):
        # max ||z|| = 2^2.5 * 2^j lies exactly halfway between two powers of
        # two; whichever way the tie goes, it goes the same way at every j.
        Z = np.array([[4.0, 4.0], [1.0, 2.0], [3.0, -1.0]])
        base, s = unit_scale(Polyhedron(Z))
        for j in range(-3, 5):
            U, t = unit_scale(Polyhedron(np.ldexp(Z, j)))
            assert_array_equal(U.vertices, base.vertices)
            assert t == np.ldexp(s, j)

    def test_scaled_instance_is_the_same_unit_instance(self):
        P = random_polyhedron(5)
        U, s = unit_scale(P)
        V, t = unit_scale(Polyhedron(P.vertices * 2.0**-37))
        assert_array_equal(U.vertices, V.vertices)
        assert t == s * 2.0**-37


class TestDetectZeroMembership:
    """Origin membership, as cross_check's votes tally it."""

    @staticmethod
    def _votes(P):
        report = cross_check(P)
        assert report.verdict == "agree"
        return set(report.votes.values())

    def test_segment_votes_inside(self):
        assert self._votes(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN))) == {True}

    def test_line_points_vote_inside(self):
        assert self._votes(Polyhedron(np.array(LINE_POINTS))) == {True}

    def test_triangle_votes_outside(self):
        assert self._votes(Polyhedron(np.array(TRIANGLE))) == {False}

    def test_cohorts_vote_correctly(self):
        for seed in range(10):
            assert self._votes(origin_inside_polyhedron(seed)) == {True}, seed
            assert self._votes(separated_polyhedron(seed)) == {False}, seed

    @pytest.mark.parametrize("gap", [1e-12, 1e-9, 5e-9])
    def test_hull_within_zero_tol_votes_inside(self, gap):
        # The segment misses the origin by gap <= zero_tol: the dual solves
        # it exactly, and its vote still follows zero_tol like the others.
        report = cross_check(Polyhedron(np.array([[1.0, gap], [-1.0, gap]])))
        assert report.entries["nnls"].status == "ok"
        assert report.verdict == "agree"
        assert set(report.votes.values()) == {True}

    def test_dual_vote_follows_zero_tol(self):
        P = Polyhedron(np.array([[1.0, 1e-9], [-1.0, 1e-9]]))
        assert certify.ROUTES["dual"](P, ToleranceConfig()).origin_inside
        tight = ToleranceConfig(zero_tol=1e-10)
        assert not certify.ROUTES["dual"](P, tight).origin_inside


class TestCrossCheck:
    def test_triangle_report(self):
        report = cross_check(Polyhedron(np.array(TRIANGLE)))
        assert report.verdict == "agree"
        assert report.entries["nnls"].status == "not-applicable"
        assert report.entries["oracle"].status == "ok"
        assert_allclose(report.rho, [1.0, 1.0], atol=1e-8)
        ok = [e for e in report.entries.values() if e.status == "ok"]
        assert len(ok) == 7  # six routes plus the oracle

    def test_axis_pair_includes_nnls(self):
        report = cross_check(Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0]])))
        assert report.verdict == "agree"
        assert report.entries["nnls"].status == "ok"
        assert_allclose(report.entries["nnls"].result.rho, [1.0, 1.0], atol=1e-10)

    def test_single_point(self):
        report = cross_check(Polyhedron(np.array(SINGLE_POINT)))
        assert report.verdict == "agree"
        assert_allclose(report.rho, [3.0, 4.0], atol=1e-9)
        assert report.entries["oracle"].result.distance == pytest.approx(5.0)

    def test_origin_inside_consensus(self):
        report = cross_check(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert report.verdict == "agree"
        assert all(report.votes.values())

    def test_segment_off_origin_by_rounding_agrees(self):
        # The segment passes 2.5e-10 from the origin; the dual's add step
        # divided by a curvature <z, z_p> of exactly 0 here.
        report = cross_check(Polyhedron(np.array([[-1e-9, 3.0], [0.0, -1.0]])))
        assert list(report.entries) == [*ROUTES, "oracle"]
        assert all(e.status == "ok" for e in report.entries.values())
        assert report.verdict == "agree"
        assert all(report.votes.values())

    def test_entries_are_the_route_keys_past_the_oracle_scale(self):
        # Five vertices are past the oracle's four, so the entries are the
        # route table's keys alone, in its order.
        P = Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [3.0, 1.0], [1.0, 3.0]]))
        report = cross_check(P)
        assert list(report.entries) == list(ROUTES)
        assert report.verdict == "agree"
        assert_allclose(report.rho, [1.0, 1.0], atol=1e-9)

    def test_hull_within_zero_tol_agrees(self):
        report = cross_check(Polyhedron(np.array([[1.0, 1e-9], [-1.0, 1e-9]])))
        assert report.entries["nnls"].status == "ok"
        assert report.verdict == "agree"
        assert all(report.votes.values())

    def test_split_vote_alone_is_a_conflict(self, monkeypatch):
        # The oracle's answer is the true one, but its vote is flipped to
        # inside: every entry is ok and the answers coincide, so the split
        # vote is all that makes the verdict a conflict.
        real = certify.reference_projection
        monkeypatch.setattr(
            certify,
            "reference_projection",
            lambda P, cfg: dataclasses.replace(real(P, cfg), origin_inside=True),
        )
        report = cross_check(Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0]])))
        assert all(e.status == "ok" for e in report.entries.values())
        assert report.pairwise_max_deviation <= 1e-6
        assert set(report.votes.values()) == {True, False}
        assert report.verdict == "conflict"

    def test_random_instances_agree(self):
        for seed in range(25):
            P = random_polyhedron(seed)
            report = cross_check(P)
            assert report.verdict == "agree", {
                k: (v.status, v.error) for k, v in report.entries.items()
            }
            U, s = unit_scale(P)
            ok = {k: e.result for k, e in report.entries.items() if e.status == "ok"}
            for name, result in ok.items():
                # Every answer is its weights' point, computed at unit scale.
                alpha = result.alpha
                assert alpha.shape == (P.m,) and alpha.min() >= -1e-12, name
                assert abs(alpha.sum() - 1.0) <= 1e-12, name
                assert result.rho.tobytes() == ((alpha @ U.vertices) * s).tobytes(), name
                checks = check_optimality(P, result.rho, alpha).checks
                assert [c.passed for c in checks if c.name == "hull-witness"] == [True], name
            assert ok["maximin"].rho.tobytes() == ok["wolfe"].rho.tobytes()

    def test_oracle_answer_failing_vi_check_is_error(self, monkeypatch):
        # Weights on the far vertex [2, 2] give an answer with vi_min = -4,
        # -0.25 on the unit triangle: below -opt_tol at opt_tol = 0.05 too,
        # where the gate refuses it as the printed vi-min check does.
        P = Polyhedron(np.array(TRIANGLE))
        monkeypatch.setattr(
            certify,
            "reference_projection",
            lambda P, cfg: projection_result(P, [0.0, 0.0, 1.0], 1, cfg),
        )
        for cfg in (DEFAULT_TOLERANCES, ToleranceConfig(opt_tol=0.05)):
            report = cross_check(P, cfg)
            errors = {k: e.error for k, e in report.entries.items() if e.status == "error"}
            assert list(errors) == ["oracle"]
            assert errors["oracle"] == "answer fails the optimality residual: -2.500e-01"
            assert report.verdict == "conflict"

    def test_duplicate_vertices_are_first_class(self):
        cases = [
            ([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [0.0, 2.0]], [1.0, 1.0]),
            ([[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0]),
            ([[3.0, 4.0], [3.0, 4.0]], [3.0, 4.0]),
        ]
        for vertices, expected in cases:
            report = cross_check(Polyhedron(np.array(vertices)))
            assert report.verdict == "agree"
            assert np.allclose(report.rho, expected, atol=1e-8)

    def test_hull_just_outside_zero_tol_votes_outside(self):
        # Distance 1e-5: above zero_tol, below sqrt(zero_tol).  Every route
        # votes by the distance itself, so none calls the origin inside.
        P = Polyhedron(np.array([[1.0, 1e-5], [-1.0, 1e-5]]))
        report = cross_check(P)
        assert report.verdict == "agree"
        assert all(e.status == "ok" for e in report.entries.values())
        assert not any(e.result.origin_inside for e in report.entries.values())
        assert not solve_wolfe(P).origin_inside

    @pytest.mark.parametrize("d", [5e-9, 2e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_sliver_never_votes_wrong(self, d):
        # The segment lies d from the origin: inside by zero_tol only at
        # 5e-9.  Near-degenerate LCPs have multipliers like 1/d^2, and a
        # Lemke ray votes through the point its weights combine to.
        report = cross_check(Polyhedron(np.array([[1.0, d], [-1.0, d]])))
        assert set(report.votes.values()) == {d <= 1e-8}
        assert report.pairwise_max_deviation <= 1e-6
        errors = {k: e.error for k, e in report.entries.items() if e.status == "error"}
        assert errors == {}
        assert report.verdict == "agree"

    def test_one_dimensional_sliver_agrees(self):
        # The 1-D twin of the d = 1e-7 sliver.  Covering every row of
        # primal-split, the pivot path ended on a ray that moved the split
        # pair s, s' alone and carried no positive multiplier.
        report = cross_check(Polyhedron(np.array([[0.7499998807907104], [1.1920928955078125e-07]])))
        assert {k: e.status for k, e in report.entries.items() if e.status != "ok"} == {
            "nnls": "not-applicable"
        }
        assert report.verdict == "agree"
        assert_allclose(report.rho, [1.1920928955078125e-07], rtol=1e-12)

    def test_no_empty_primal_split_ray_on_hunted_hulls(self):
        # The first 500 hulls of scripts/consensus_sweep.py's hunt family:
        # small hulls with exact integer structure, rows 24 binary decades
        # apart and noise 2 to 40 bits below the integers.  These are the
        # inputs where lcp-primal's pivot path ended on rays with no positive
        # multiplier, 12 of these 500 when every row was covered.  A
        # secondary ray of a path that covers only the rows starting
        # infeasible always moves a multiplier (lcp.lemke_solve), so none may
        # remain.
        empty = []
        for P in consensus_sweep.hunt_instances(0, 500):
            entry = cross_check(P).entries["lcp-primal"]
            if entry.status == "error" and "no positive multiplier" in entry.error:
                empty.append(P.vertices.tolist())
        assert empty == []

    @pytest.mark.parametrize(
        "vertices",
        [[[1e-300, 0.0]], [[3e-155]], [[1e-160, 0.0], [0.0, 1e-160]]],
    )
    def test_non_finite_projection_is_route_error(self, vertices, monkeypatch):
        # At unit scale these tiny hulls solve like any other, nnls included.
        # A solver answering NaN becomes an error entry under its route's
        # key instead of an uncaught exception.
        P = Polyhedron(np.array(vertices))
        report = cross_check(P)
        assert report.verdict == "agree"
        assert report.entries["nnls"].status == "ok"
        monkeypatch.setattr(certify, "project_via_nnls", _nan_answer)
        report = cross_check(P)
        errors = {k: e.error for k, e in report.entries.items() if e.status == "error"}
        assert errors == {"nnls": "weights are off the simplex by nan"}
        assert report.verdict == "conflict"


def _entry_as_run_route(name, P):
    """What ``run_route`` gives for ``name`` on ``P``, as a consensus entry."""
    try:
        result = certify.run_route(name, P)
    except MaxIterExceeded as err:
        return certify.RouteEntry(status="error", error=str(err))
    if result is None:
        return certify.RouteEntry(status="not-applicable")
    return certify.RouteEntry(status="ok", result=result)


def _assert_same_entry(a, b):
    assert (a.status, a.error) == (b.status, b.error)
    if a.result is not None:
        assert a.result.rho.tobytes() == b.result.rho.tobytes()
        assert (a.result.distance, a.result.iterations, a.result.vi_min) == (
            b.result.distance,
            b.result.iterations,
            b.result.vi_min,
        )
        assert a.result.origin_inside == b.result.origin_inside
        if a.result.alpha is None:
            assert b.result.alpha is None
        else:
            assert a.result.alpha.tobytes() == b.result.alpha.tobytes()


def _miss_wolfes_gap(monkeypatch):
    # wolfe's kernel still runs, and then hands over the far vertex [2, 2],
    # whose weights miss the gap contract after 5 iterations.
    kernel = simplex_qp.refine_simplex_minimizer

    def far(Z, max_cycles):
        kernel(Z, max_cycles)
        return far_vertex_kernel(Z, max_cycles)[0], 5

    monkeypatch.setattr(simplex_qp, "refine_simplex_minimizer", far)


def _fail_wolfes_vi(monkeypatch):
    # wolfe answers the far vertex [2, 2], which fails the VI check.
    real = certify.solve_wolfe

    def far_weights(P, cfg):
        answer = real(P, cfg)
        far = far_vertex_kernel(P.vertices, 1)[0]
        return projection_result(P, far, answer.iterations, cfg)

    monkeypatch.setattr(certify, "solve_wolfe", far_weights)


class TestOneKernel:
    """cross_check runs the wolfe/maximin kernel once."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        for module in (simplex_qp, maximin):
            kernel = module.refine_simplex_minimizer

            def counted(*args, _kernel=kernel, _owner=module.__name__, **kwargs):
                calls.append(_owner)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(module, "refine_simplex_minimizer", counted)
        return calls

    @pytest.mark.parametrize(
        "call, owners",
        [
            (cross_check, ["ppocp.simplex_qp"]),
            (lambda P: certify.run_route("wolfe", P), ["ppocp.simplex_qp"]),
            (lambda P: certify.run_route("maximin", P), ["ppocp.maximin"]),
        ],
        ids=["cross_check", "run_route-wolfe", "run_route-maximin"],
    )
    def test_one_kernel_run_per_call(self, kernel_calls, call, owners):
        hulls = (TRIANGLE, separated_polyhedron(3).vertices, origin_inside_polyhedron(3).vertices)
        for vertices in hulls:
            P = Polyhedron(np.array(vertices))
            kernel_calls.clear()
            call(P)
            assert kernel_calls == owners

    def test_entries_match_run_route_to_the_bit(self):
        for seed in range(8):
            for P in (
                separated_polyhedron(seed),
                origin_inside_polyhedron(seed),
                separated_polyhedron(seed, max_m=40, max_n=12),
                origin_inside_polyhedron(seed, max_m=40, max_n=12),
            ):
                report = cross_check(P)
                assert report.verdict == "agree"
                for name in certify.ROUTES:
                    _assert_same_entry(report.entries[name], _entry_as_run_route(name, P))

    @pytest.mark.parametrize(
        "patch, message",
        [(_miss_wolfes_gap, "optimality gap"), (_fail_wolfes_vi, "fails the optimality residual")],
        ids=["gap-miss", "vi-failure"],
    )
    def test_wolfe_error_leaves_maximin_its_own_kernel_run(
        self, monkeypatch, kernel_calls, patch, message
    ):
        # wolfe's entry is an error, so maximin runs its own kernel, as
        # run_route does, and answers what run_route answers.
        P = Polyhedron(np.array(TRIANGLE))
        patch(monkeypatch)
        report = cross_check(P)
        assert sorted(kernel_calls) == ["ppocp.maximin", "ppocp.simplex_qp"]
        assert report.entries["wolfe"].status == "error"
        assert message in report.entries["wolfe"].error
        assert report.entries["maximin"].status == "ok"
        _assert_same_entry(report.entries["maximin"], _entry_as_run_route("maximin", P))

    def test_maximin_checks_the_weights_of_wolfes_answer(self, monkeypatch):
        handed = []

        def spy(P, weights, iterations, cfg):
            handed.append((weights.tobytes(), iterations))
            return maximin.maximin_from_weights(P, weights, iterations, cfg)

        monkeypatch.setattr(certify, "maximin_from_weights", spy)
        for vertices in (TRIANGLE, separated_polyhedron(3).vertices, origin_inside_polyhedron(3).vertices):
            handed.clear()
            wolfe = cross_check(Polyhedron(np.array(vertices))).entries["wolfe"]
            assert wolfe.status == "ok"
            assert handed == [(wolfe.result.alpha.tobytes(), wolfe.result.iterations)]

    def test_wolfe_weights_off_the_simplex_fail_both_routes(self, monkeypatch):
        # solve_wolfe raises on weights off the simplex before it can hand
        # them over; maximin's own kernel run then meets the same weights.
        # Off by 4e-9, above feas_tol, they still meet both gap contracts.
        # One kernel gives one failure: both entries carry the same text.
        def off_simplex(Z, max_cycles):
            return np.array([1.0 + 4e-9]), 1

        for module in (simplex_qp, maximin):
            monkeypatch.setattr(module, "refine_simplex_minimizer", off_simplex)
        report = cross_check(Polyhedron(np.array(SINGLE_POINT)))
        for name in ("wolfe", "maximin"):
            assert report.entries[name].status == "error"
            assert report.entries[name].error.startswith("weights are off the simplex by ")
        assert report.entries["wolfe"].error == report.entries["maximin"].error


def _nan_answer(P, cfg):
    return projection_result(P, np.full(P.m, np.nan), 1, cfg)
