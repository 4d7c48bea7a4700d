import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    SEGMENT_THROUGH_ORIGIN,
    SINGLE_POINT,
    TRIANGLE,
    origin_inside_polyhedron,
    random_polyhedron,
    separated_polyhedron,
)
from ppocp.core import Polyhedron, Route, constraint_matrix
from ppocp.errors import InconsistentOutcome
from ppocp.lcp import (
    CanonicalQP,
    LCPInstance,
    LcpStatus,
    LcpVariant,
    build_lcp,
    canonicalize_primal,
    extract_projection,
    lemke_solve,
)
from ppocp.support_qp import dual_objective, solve_dual

ALL_VARIANTS = (LcpVariant.PRIMAL_SPLIT, LcpVariant.WOLFE_KKT, LcpVariant.DUAL_ORTHANT)


class TestCanonicalizePrimal:
    def test_block_matrix_for_plane(self):
        qp = canonicalize_primal(Polyhedron(np.array(TRIANGLE)))
        expected_H = [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
        assert_array_equal(qp.H, expected_H)

    def test_triangle_constraints(self):
        qp = canonicalize_primal(Polyhedron(np.array(TRIANGLE)))
        assert_array_equal(
            qp.A,
            [[2.0, 0.0, -2.0, 0.0], [0.0, 2.0, 0.0, -2.0], [2.0, 2.0, -2.0, -2.0]],
        )
        assert_array_equal(qp.b, [1.0, 1.0, 1.0])
        assert_array_equal(qp.p, np.zeros(4))

    def test_equal_split_annihilates_the_form(self):
        qp = canonicalize_primal(Polyhedron(np.array(TRIANGLE)))
        x = np.ones(4)
        assert float(x @ qp.H @ x) == 0.0

    def test_form_equals_split_difference(self):
        rng = np.random.default_rng(1)
        P = random_polyhedron(9)
        qp = canonicalize_primal(P)
        for _ in range(20):
            x = rng.normal(size=2 * P.n)
            value = float(x @ qp.H @ x)
            diff = x[: P.n] - x[P.n :]
            assert value == pytest.approx(float(diff @ diff), rel=1e-12, abs=1e-12)
            assert_allclose(qp.reconstruct_y(x), diff)


class TestBuildLcp:
    def test_dual_orthant_triangle(self):
        L = build_lcp(Polyhedron(np.array(TRIANGLE)), LcpVariant.DUAL_ORTHANT)
        assert_array_equal(L.M, [[2.0, 0.0, 2.0], [0.0, 2.0, 2.0], [2.0, 2.0, 4.0]])
        assert_array_equal(L.q, [-1.0, -1.0, -1.0])
        assert L.k == 3

    def test_sizes(self):
        P = Polyhedron(np.array(SINGLE_POINT))
        assert build_lcp(P, LcpVariant.PRIMAL_SPLIT).k == 2 * 2 + 1
        assert build_lcp(P, LcpVariant.WOLFE_KKT).k == 1 + 2

    def test_zero_blocks_are_exact(self):
        P = random_polyhedron(21)
        L = build_lcp(P, LcpVariant.PRIMAL_SPLIT)
        two_n = 2 * P.n
        assert np.all(L.M[two_n:, two_n:] == 0.0)
        assert np.all(L.q[:two_n] == 0.0)
        W = build_lcp(P, LcpVariant.WOLFE_KKT)
        assert np.all(W.M[P.m :, P.m :] == 0.0)
        assert_array_equal(W.q[P.m :], [-1.0, 1.0])

    def test_skew_blocks_cancel(self):
        P = random_polyhedron(4)
        L = build_lcp(P, LcpVariant.PRIMAL_SPLIT)
        two_n = 2 * P.n
        assert_array_equal(L.M[:two_n, two_n:], -L.M[two_n:, :two_n].T)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_quadratic_part_psd(self, variant):
        rng = np.random.default_rng(99)
        for seed in range(6):
            P = random_polyhedron(seed)
            L = build_lcp(P, variant)
            for _ in range(100):
                v = rng.normal(size=L.k)
                assert float(v @ L.M @ v) >= -1e-10 * float(v @ v)


class TestLemkeSolve:
    def test_nonnegative_q_is_immediate(self):
        L = LCPInstance(
            M=np.eye(2), q=np.array([1.0, 2.0]), k=2, variant=LcpVariant.DUAL_ORTHANT
        )
        out = lemke_solve(L)
        assert out.status is LcpStatus.SOLUTION
        assert out.pivots == 0
        assert_array_equal(out.w, [1.0, 2.0])
        assert_array_equal(out.v, [0.0, 0.0])

    def test_pivots_total_counts_abandoned_attempts(self):
        # The unregularised attempts cycle on this rank-deficient instance
        # before a shifted one succeeds; pivots counts only that last one.
        P = Polyhedron(np.random.default_rng(0).uniform(-5, 5, (200, 50)))
        out = lemke_solve(build_lcp(P, LcpVariant.DUAL_ORTHANT))
        assert out.pivots > 0
        assert out.pivots_total > out.pivots

    def test_pivots_total_equals_pivots_on_first_attempt(self):
        L = build_lcp(Polyhedron(np.array(TRIANGLE)), LcpVariant.DUAL_ORTHANT)
        out = lemke_solve(L)
        assert out.pivots_total == out.pivots

    def test_dual_orthant_triangle(self):
        L = build_lcp(Polyhedron(np.array(TRIANGLE)), LcpVariant.DUAL_ORTHANT)
        out = lemke_solve(L)
        assert out.status is LcpStatus.SOLUTION
        assert_allclose(out.v, [0.5, 0.5, 0.0], atol=1e-12)
        assert_allclose(out.w, [0.0, 0.0, 1.0], atol=1e-12)
        assert float(out.w @ out.v) == pytest.approx(0.0, abs=1e-14)

    def test_dual_orthant_single_point(self):
        L = build_lcp(Polyhedron(np.array(SINGLE_POINT)), LcpVariant.DUAL_ORTHANT)
        out = lemke_solve(L)
        assert_allclose(out.v, [2.0 / 25.0], atol=1e-14)
        assert_allclose(out.w, [0.0], atol=1e-14)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_solution_identities_on_separated_instances(self, variant):
        for seed in range(10):
            P = separated_polyhedron(seed)
            L = build_lcp(P, variant)
            out = lemke_solve(L)
            assert out.status is LcpStatus.SOLUTION
            scale_q = 1.0 + float(np.linalg.norm(L.q))
            assert np.linalg.norm(out.w - (L.M @ out.v + L.q)) <= 1e-9 * scale_q
            assert out.w.min() >= -1e-9
            assert out.v.min() >= -1e-9
            comp_scale = (1.0 + np.linalg.norm(out.w)) * (1.0 + np.linalg.norm(out.v))
            assert abs(float(out.w @ out.v)) <= 1e-8 * comp_scale

    @pytest.mark.parametrize(
        "variant", (LcpVariant.PRIMAL_SPLIT, LcpVariant.DUAL_ORTHANT)
    )
    def test_ray_termination_on_origin_inside(self, variant):
        for seed in range(10):
            P = origin_inside_polyhedron(seed)
            out = lemke_solve(build_lcp(P, variant))
            assert out.status is LcpStatus.RAY_TERMINATION

    def test_wolfe_variant_always_solves(self):
        for seed in range(10):
            P = origin_inside_polyhedron(seed)
            out = lemke_solve(build_lcp(P, LcpVariant.WOLFE_KKT))
            assert out.status is LcpStatus.SOLUTION

    def test_matches_dual_solver_objective(self):
        for seed in range(10):
            P = separated_polyhedron(seed)
            S = constraint_matrix(P)
            lemke_u = lemke_solve(build_lcp(P, LcpVariant.DUAL_ORTHANT)).v
            dual_u = solve_dual(P).u_star
            f_lemke = dual_objective(S, np.maximum(lemke_u, 0.0))
            f_dual = dual_objective(S, dual_u)
            assert abs(f_lemke - f_dual) <= 1e-7 * (1.0 + abs(f_dual))

    def test_verbose_dumps_tableau(self, capsys):
        L = build_lcp(Polyhedron(np.array(TRIANGLE)), LcpVariant.DUAL_ORTHANT)
        lemke_solve(L, verbose=True)
        err = capsys.readouterr().err
        assert "z0" in err and "v1" in err


class TestExtractProjection:
    def test_triangle_all_variants_agree(self):
        P = Polyhedron(np.array(TRIANGLE))
        for variant in ALL_VARIANTS:
            L = build_lcp(P, variant)
            res = extract_projection(P, L, lemke_solve(L))
            assert_allclose(res.rho, [1.0, 1.0], atol=1e-9)
            assert res.vi_min >= -1e-8
            assert not res.origin_inside

    def test_routes_are_tagged(self):
        P = Polyhedron(np.array(TRIANGLE))
        tags = {
            LcpVariant.PRIMAL_SPLIT: Route.LCP_PRIMAL,
            LcpVariant.WOLFE_KKT: Route.LCP_WOLFE,
            LcpVariant.DUAL_ORTHANT: Route.LCP_DUAL,
        }
        for variant, route in tags.items():
            L = build_lcp(P, variant)
            assert extract_projection(P, L, lemke_solve(L)).route is route

    def test_segment_primal_ray_maps_to_origin(self):
        P = Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN))
        L = build_lcp(P, LcpVariant.PRIMAL_SPLIT)
        out = lemke_solve(L)
        assert out.status is LcpStatus.RAY_TERMINATION
        res = extract_projection(P, L, out)
        assert_allclose(res.rho, [0.0, 0.0])
        assert res.origin_inside

    def test_wolfe_variant_ray_is_error(self):
        P = Polyhedron(np.array(TRIANGLE))
        L = build_lcp(P, LcpVariant.WOLFE_KKT)
        fake = lemke_solve(L)
        broken = type(fake)(
            status=LcpStatus.RAY_TERMINATION, w=None, v=None, pivots=3
        )
        with pytest.raises(InconsistentOutcome):
            extract_projection(P, L, broken)

    def test_pairwise_agreement_on_separated_instances(self):
        for seed in range(10):
            P = separated_polyhedron(seed)
            rhos = []
            for variant in ALL_VARIANTS:
                L = build_lcp(P, variant)
                rhos.append(extract_projection(P, L, lemke_solve(L)).rho)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert np.linalg.norm(rhos[i] - rhos[j]) <= 1e-6
