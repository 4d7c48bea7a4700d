import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose, assert_array_equal

from conftest import TRIANGLE, random_polyhedron
from ppocp.core import Polyhedron, ToleranceConfig, vi_residuals
from ppocp.errors import MaxIterExceeded
from ppocp.nnls import construct_b, nnls_solve, project_via_nnls
from ppocp.simplex_qp import solve_wolfe
from ppocp.support_qp import dual_objective

DIAG_DESIGN = np.diag([-10.0, 5.0])
DIAG_RHS = np.array([-0.2, 0.4])
SQUARE_DESIGN = np.array([[1.0, -1.0], [0.0, 1.0]])


class TestNnlsSolve:
    def test_diagonal_fixture(self):
        x, _ = nnls_solve(DIAG_DESIGN, DIAG_RHS)
        assert_allclose(x, [0.02, 0.08], rtol=1e-10)
        # entrywise rule for a diagonal design: x_i = 2 / a_ii^2
        assert_allclose(x, 2.0 / np.diag(DIAG_DESIGN) ** 2, rtol=1e-10)

    def test_diagonal_rule_identity_random(self):
        # For a diagonal design with the constructed right-hand side the
        # solution is 2 / a_ii^2 entrywise, always strictly positive.
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            diag = rng.uniform(0.5, 10.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            x, _ = nnls_solve(np.diag(diag), 2.0 / diag)
            expected = 2.0 / diag**2
            assert np.all(x > 0)
            assert np.max(np.abs(x - expected) / expected) <= 1e-10

    def test_identity_design_clamps(self):
        x, _ = nnls_solve(np.eye(2), np.array([-1.0, 3.0]))
        assert_allclose(x, [0.0, 3.0])

    def test_zero_rhs(self):
        x, _ = nnls_solve(np.eye(2), np.zeros(2))
        assert_array_equal(x, [0.0, 0.0])

    def test_kkt_conditions_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            r = int(rng.integers(1, 9))
            s = int(rng.integers(1, 9))
            A = rng.normal(size=(r, s)) * rng.uniform(0.5, 3.0)
            b = rng.normal(size=r) * 2.0
            x, _ = nnls_solve(A, b)
            assert x.min() >= 0.0
            grad = 0.5 * (A.T @ (A @ x - b))
            assert np.all(grad[x > 0] <= 1e-8) and np.all(grad[x > 0] >= -1e-8)
            assert np.all(grad[x == 0] >= -1e-8)

    def test_objective_matches_reference_solver(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            r = int(rng.integers(1, 10))
            s = int(rng.integers(1, 10))
            A = rng.normal(size=(r, s))
            b = rng.normal(size=r)
            x, _ = nnls_solve(A, b)
            _, ref_norm = scipy.optimize.nnls(A, b)
            mine = float(np.linalg.norm(A @ x - b))
            assert mine <= ref_norm + 1e-9 * (1.0 + ref_norm)

    def test_budget_exhausted_raises(self):
        # Both columns enter the passive set, one step each; a budget of one
        # step stops after the first.
        with pytest.raises(MaxIterExceeded, match=r"^active-set iteration budget exhausted$"):
            nnls_solve(np.eye(2), np.array([1.0, 2.0]), ToleranceConfig(max_iter=1))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            nnls_solve(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            nnls_solve(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            nnls_solve(np.array([[np.nan, 0.0]]), np.zeros(1))
        with pytest.raises(ValueError):
            nnls_solve(np.eye(1), np.array([np.inf]))


class TestConstructB:
    def test_diagonal_fixture(self):
        P = Polyhedron(np.array([[10.0, 0.0], [0.0, -5.0]]))
        assert_array_equal(-P.vertices, DIAG_DESIGN)
        assert_allclose(construct_b(P), [-0.2, 0.4], rtol=1e-15)

    def test_diagonal_axis_pair(self):
        P = Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0]]))
        b = construct_b(P)
        assert_allclose(b, [-1.0, -1.0])
        assert_allclose(-P.vertices @ b, [2.0, 2.0])

    def test_nonsingular_square_fixture(self):
        # C = -Z = [[1, 0], [-1, 1]] comes from vertices (-1, 0) and (1, -1).
        P = Polyhedron(np.array([[-1.0, 0.0], [1.0, -1.0]]))
        assert_allclose(construct_b(P), [2.0, 4.0], rtol=1e-14)
        assert_array_equal(-P.vertices.T, SQUARE_DESIGN)

    @pytest.mark.parametrize(
        "vertices",
        [
            [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]],
            [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0 + 2.0**-50]],
        ],
    )
    def test_numerically_singular_square_minimum_norm(self, vertices):
        # Every b = b0 + t u with u in the near-null direction meets C b = 2e
        # to rounding; least squares picks the shortest, here of norm sqrt(2).
        P = Polyhedron(np.array(vertices))
        b = construct_b(P)
        assert_allclose(-P.vertices @ b, np.full(P.m, 2.0), atol=1e-13)
        assert_allclose(np.linalg.norm(b), np.sqrt(2.0), rtol=1e-12)
        res = project_via_nnls(P)
        assert_allclose(res.rho, solve_wolfe(P).rho, atol=1e-14)

    def test_triangle_not_applicable(self):
        assert construct_b(Polyhedron(np.array(TRIANGLE))) is None

    def test_wide_system_minimum_norm(self):
        P = Polyhedron(np.array([[3.0, 4.0]]))
        assert_allclose(-P.vertices @ construct_b(P), [2.0])


class TestProjectViaNnls:
    def test_axis_pair(self):
        res = project_via_nnls(Polyhedron(np.array([[2.0, 0.0], [0.0, 2.0]])))
        assert_allclose(res.rho, [1.0, 1.0], atol=1e-12)
        assert res.vi_min >= -1e-8

    def test_diagonal_fixture_chain(self):
        P = Polyhedron(np.array([[10.0, 0.0], [0.0, -5.0]]))
        res = project_via_nnls(P)
        assert_allclose(res.rho, [2.0, -4.0], atol=1e-10)
        assert np.all(vi_residuals(P, res.rho) >= -1e-8)

    def test_triangle_returns_none(self):
        assert project_via_nnls(Polyhedron(np.array(TRIANGLE))) is None

    def test_far_hull_zero_support_vector_names_distance(self):
        # ||y|| = 1/distance is numerically zero here (the hull is about
        # 7.1e8 away), but the answer is the point of the weights x / sum x.
        res = project_via_nnls(Polyhedron(np.array([[1e9, 0.0], [0.0, 1e9]])))
        assert_allclose(res.rho, [5e8, 5e8], rtol=1e-12)

    def test_single_vertex_wide_case(self):
        res = project_via_nnls(Polyhedron(np.array([[3.0, 4.0]])))
        assert_allclose(res.rho, [3.0, 4.0], atol=1e-10)

    def test_agrees_with_simplex_route_on_square_instances(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(1, 7))
            z = rng.uniform(-5.0, 5.0, size=(n, n))
            P = Polyhedron(z)
            res = project_via_nnls(P)
            if res is None:
                continue
            checked += 1
            rho_w = solve_wolfe(P).rho
            assert np.linalg.norm(res.rho - rho_w) <= 1e-6 * (
                1.0 + np.linalg.norm(rho_w)
            )
        assert checked >= 15

    def test_objective_offset_matches_dual(self):
        # On applicable instances the least-squares objective equals the dual
        # objective plus ||b||^2 / 4.
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            P = Polyhedron(rng.uniform(-5.0, 5.0, size=(n, n)))
            b = construct_b(P)
            if b is None:
                continue
            A = -P.vertices.T
            x, _ = nnls_solve(A, b)
            ls_obj = 0.25 * float(np.sum((A @ x - b) ** 2))
            offset = 0.25 * float(b @ b)
            f = dual_objective(P, np.maximum(x, 0.0))
            assert abs(ls_obj - (f + offset)) <= 1e-8 * (1.0 + abs(ls_obj))
