import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import (
    SEGMENT_THROUGH_ORIGIN,
    SINGLE_POINT,
    TRIANGLE,
    far_vertex_kernel,
    origin_inside_polyhedron,
    random_polyhedron,
    separated_polyhedron,
)
from ppocp import maximin
from ppocp.core import Polyhedron, support_value, vi_residuals
from ppocp.errors import MaxIterExceeded
from ppocp.maximin import maximin_from_weights, solve_maximin
from ppocp.simplex_qp import solve_wolfe


class TestSolveMaximin:
    def test_triangle(self):
        sol = solve_maximin(Polyhedron(np.array(TRIANGLE)))
        assert_allclose(sol.c_hat, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-9)
        assert sol.t_value == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert_allclose(sol.rho, [1.0, 1.0], atol=1e-9)
        assert np.all(vi_residuals(Polyhedron(np.array(TRIANGLE)), sol.rho) >= -1e-9)
        assert not sol.origin_inside

    def test_segment_through_origin(self):
        sol = solve_maximin(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert sol.t_value == 0.0
        assert_allclose(sol.rho, [0.0, 0.0])
        assert sol.origin_inside

    def test_single_point(self):
        sol = solve_maximin(Polyhedron(np.array(SINGLE_POINT)))
        assert_allclose(sol.c_hat, [0.6, 0.8], atol=1e-10)
        assert sol.t_value == pytest.approx(5.0, abs=1e-10)
        assert_allclose(sol.rho, [3.0, 4.0], atol=1e-9)

    def test_optimizer_on_sphere_when_separated(self):
        for seed in range(12):
            sol = solve_maximin(separated_polyhedron(seed))
            assert sol.t_value > 1e-8
            assert abs(np.linalg.norm(sol.c_hat) - 1.0) <= 1e-9

    def test_ray_invariance_of_returned_direction(self):
        for seed in range(6):
            P = separated_polyhedron(seed)
            sol = solve_maximin(P)
            for lam in (1.0, 0.5, 0.125, 0.01):
                scaled, _ = support_value(P, lam * sol.c_hat)
                assert abs(scaled - lam * sol.t_value) <= 1e-10 * max(
                    1.0, abs(sol.t_value)
                )

    def test_distance_identity_against_simplex_route(self):
        for seed in range(12):
            P = separated_polyhedron(seed)
            sol = solve_maximin(P)
            rho_w = solve_wolfe(P).rho
            assert abs(sol.t_value - np.linalg.norm(rho_w)) <= 1e-5
            assert np.linalg.norm(sol.c_hat * sol.t_value - rho_w) <= 1e-5

    def test_origin_inside_cohort(self):
        for seed in range(10):
            sol = solve_maximin(origin_inside_polyhedron(seed))
            assert sol.t_value <= 1e-8
            assert sol.origin_inside
            assert_allclose(sol.rho, np.zeros(len(sol.rho)), atol=1e-8)

    def test_all_vertices_at_origin(self):
        with pytest.warns(UserWarning):
            P = Polyhedron(np.zeros((3, 2)))
        sol = solve_maximin(P)
        assert sol.origin_inside
        assert sol.t_value == 0.0


class TestSupportConcavity:
    @given(st.integers(0, 30), st.floats(0.0, 1.0))
    def test_t_concave_in_direction(self, seed, lam):
        P = random_polyhedron(seed)
        rng = np.random.default_rng(seed + 7)
        c1 = rng.normal(size=P.n)
        c2 = rng.normal(size=P.n)
        t1, _ = support_value(P, c1)
        t2, _ = support_value(P, c2)
        mixed, _ = support_value(P, lam * c1 + (1 - lam) * c2)
        assert mixed >= lam * t1 + (1 - lam) * t2 - 1e-10


class TestSharedKernel:
    def test_weights_match_wolfe_route_to_the_bit(self):
        # So cross_check may check wolfe's weights instead of running the
        # kernel again: from them maximin_from_weights gives solve_maximin.
        for seed in range(12):
            for P in (separated_polyhedron(seed), origin_inside_polyhedron(seed)):
                wolfe = solve_wolfe(P)
                own = solve_maximin(P)
                assert np.array_equal(own.alpha, wolfe.alpha)
                given = maximin_from_weights(P, wolfe.alpha, wolfe.iterations)
                for field in ("c_hat", "rho", "alpha"):
                    assert getattr(given, field).tobytes() == getattr(own, field).tobytes()
                assert (given.t_value, given.iterations, given.origin_inside) == (
                    own.t_value,
                    own.iterations,
                    own.origin_inside,
                )

    def test_distance_identity_is_wolfe_gap(self):
        # ||w|| (||w|| - t) with t = min_i <z_i, w> / ||w|| is the wolfe gap
        # ||w||^2 - min_i <z_i, w>: maximin's check is wolfe's, rounded anew.
        eps = np.finfo(float).eps
        for seed in range(12):
            for P in (separated_polyhedron(seed), origin_inside_polyhedron(seed)):
                wolfe = solve_wolfe(P)
                mm = solve_maximin(P)
                w_norm = float(np.linalg.norm(mm.alpha @ P.vertices))
                scale = float((P.vertices**2).sum(axis=1).max())
                assert abs(w_norm * (w_norm - mm.t_value) - wolfe.gap) <= 64 * eps * scale

    def test_distance_identity_miss_raises(self, monkeypatch):
        # A kernel answer at the far vertex [2, 2] gives t = sqrt(2) < ||w||.
        monkeypatch.setattr(maximin, "refine_simplex_minimizer", far_vertex_kernel)
        with pytest.raises(MaxIterExceeded) as info:
            solve_maximin(Polyhedron(np.array(TRIANGLE)))
        assert info.value.residual == pytest.approx(4.0)
