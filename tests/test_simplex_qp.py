import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    SEGMENT_THROUGH_ORIGIN,
    SINGLE_POINT,
    TRIANGLE,
    origin_inside_polyhedron,
    random_polyhedron,
)
from ppocp.core import Polyhedron, ToleranceConfig, refine_simplex_minimizer
from ppocp.errors import MaxIterExceeded
from ppocp.simplex_qp import solve_wolfe


def brute_force_simplex_min(vertices, step=1e-3):
    """Grid scan of ||sum a_i z_i||^2 over the simplex; independent oracle."""
    z = np.asarray(vertices, dtype=float)
    assert z.shape[0] == 3
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    a1, a2 = np.meshgrid(ticks, ticks, indexing="ij")
    a1, a2 = a1.ravel(), a2.ravel()
    keep = a1 + a2 <= 1.0 + 1e-12
    a1, a2 = a1[keep], a2[keep]
    a3 = 1.0 - a1 - a2
    pts = a1[:, None] * z[0] + a2[:, None] * z[1] + a3[:, None] * z[2]
    vals = np.sum(pts * pts, axis=1)
    best = int(np.argmin(vals))
    return np.array([a1[best], a2[best], a3[best]]), float(vals[best])


class TestSolveWolfe:
    def test_triangle_matches_grid_oracle(self):
        alpha_star, phi_star = brute_force_simplex_min(TRIANGLE)
        assert_allclose(alpha_star, [0.5, 0.5, 0.0], atol=2e-3)
        assert phi_star == pytest.approx(2.0, abs=1e-5)

        sol = solve_wolfe(Polyhedron(np.array(TRIANGLE)))
        assert_allclose(sol.rho, [1.0, 1.0], atol=1e-9)
        assert sol.phi == pytest.approx(2.0, rel=1e-12)
        assert_allclose(sol.alpha, [0.5, 0.5, 0.0], atol=1e-9)
        assert not sol.origin_inside

    def test_segment_contains_origin(self):
        sol = solve_wolfe(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert sol.phi <= 1e-12
        assert sol.origin_inside
        assert_allclose(sol.rho, [0.0, 0.0], atol=1e-8)

    def test_single_point_hull(self):
        sol = solve_wolfe(Polyhedron(np.array(SINGLE_POINT)))
        assert_allclose(sol.rho, [3.0, 4.0])
        assert np.linalg.norm(sol.rho) == pytest.approx(5.0)

    def test_gap_contract(self):
        for seed in range(20):
            P = random_polyhedron(seed)
            sol = solve_wolfe(P)
            assert sol.gap <= 1e-8
            assert abs(sol.alpha.sum() - 1.0) <= 1e-12
            assert sol.alpha.min() >= 0.0

    def test_monotone_descent(self):
        # The kernel capped at c major cycles returns the point after the
        # c-th (cap 0 leaves the starting vertex): ||x||^2 must not rise from
        # one cap to the next until the weights are the solution's.
        for seed in (1, 5, 9, 13):
            P = random_polyhedron(seed)
            final = solve_wolfe(P).alpha
            values = []
            for cycles in range(4 * P.m + 9):
                weights, _ = refine_simplex_minimizer(P.vertices, cycles)
                x = weights @ P.vertices
                values.append(float(x @ x))
                if np.array_equal(weights, final):
                    break
            else:
                pytest.fail(f"seed {seed}: capped runs never reached the solution")
            scale = 1.0 + abs(values[0])
            assert np.all(np.diff(values) <= 1e-12 * scale)

    def test_zero_phi_iff_origin_inside(self):
        for seed in range(8):
            P = origin_inside_polyhedron(seed)
            sol = solve_wolfe(P)
            assert sol.origin_inside
            assert sol.phi <= 1e-8

    def test_max_iter_carries_best_iterate(self):
        P = Polyhedron(np.array(TRIANGLE))
        cfg = ToleranceConfig(max_iter=1, opt_tol=1e-16)
        try:
            solve_wolfe(P, cfg)
        except MaxIterExceeded as err:
            assert err.best is not None
            assert err.residual > 0
        # Polish may still certify at 1e-16 on this tiny instance; either
        # outcome honors the contract.
