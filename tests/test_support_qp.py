import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    COLLINEAR_PAIR,
    LINE_POINTS,
    SEGMENT_THROUGH_ORIGIN,
    SINGLE_POINT,
    TRIANGLE,
    dual_quantities,
    origin_inside,
    origin_inside_polyhedron,
    random_polyhedron,
    separated,
    separated_polyhedron,
)
from ppocp import support_qp
from ppocp.core import Polyhedron, ToleranceConfig
from ppocp.errors import MaxIterExceeded
from ppocp.simplex_qp import solve_wolfe
from ppocp.support_qp import (
    DEPENDENT_TOL,
    DualStatus,
    dual_objective,
    solve_dual,
)


class TestDualObjective:
    def test_triangle_value(self):
        P = Polyhedron(np.array(TRIANGLE))
        assert dual_objective(P, np.array([0.5, 0.5, 0.0])) == pytest.approx(-0.5)

    def test_zero_point(self):
        P = random_polyhedron(2)
        assert dual_objective(P, np.zeros(P.m)) == 0.0

    def test_single_vertex_scalar_minimum(self):
        P = Polyhedron(np.array(SINGLE_POINT))
        t = 2.0 / 25.0
        assert dual_objective(P, np.array([t])) == pytest.approx(-1.0 / 25.0)

    @pytest.mark.parametrize("u", [[0.5, 0.5], [0.5, 0.5, 0.0, 0.0], [[0.5, 0.5, 0.0]]])
    def test_rejects_wrong_length(self, u):
        P = Polyhedron(np.array(TRIANGLE))
        with pytest.raises(ValueError, match="dual vector must have length 3"):
            dual_objective(P, u)

    def test_rejects_negative_entries(self):
        P = Polyhedron(np.array(TRIANGLE))
        with pytest.raises(ValueError):
            dual_objective(P, np.array([0.5, -0.5, 0.0]))

    @given(st.integers(0, 30), st.floats(0.0, 1.0))
    def test_convexity_probe(self, seed, lam):
        P = random_polyhedron(seed, max_m=8, max_n=5)
        rng = np.random.default_rng(seed + 99)
        u = rng.uniform(0.0, 3.0, size=P.m)
        v = rng.uniform(0.0, 3.0, size=P.m)
        mixed = dual_objective(P, lam * u + (1 - lam) * v)
        assert mixed <= lam * dual_objective(P, u) + (1 - lam) * dual_objective(
            P, v
        ) + 1e-9


class TestSolveDual:
    def test_triangle_full_chain(self):
        P = Polyhedron(np.array(TRIANGLE))
        out = solve_dual(P)
        assert out.status is DualStatus.SOLVED
        u_star, y_bar = dual_quantities(out)
        assert_allclose(u_star, [0.5, 0.5, 0.0], atol=1e-9)
        assert_allclose(y_bar, [0.5, 0.5], atol=1e-9)
        assert_allclose(out.rho, [1.0, 1.0], atol=1e-9)
        f_star = dual_objective(P, u_star)
        assert f_star == pytest.approx(-0.5, abs=1e-10)

    def test_outcome_is_immutable(self):
        out = solve_dual(Polyhedron(np.array(TRIANGLE)))
        for a in (out.alpha, out.rho):
            with pytest.raises(ValueError):
                a[0] = 5.0

    def test_segment_unbounded(self):
        out = solve_dual(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert out.status is DualStatus.UNBOUNDED_BELOW
        assert_array_equal(out.rho, [0.0, 0.0])

    def test_single_vertex(self):
        out = solve_dual(Polyhedron(np.array(SINGLE_POINT)))
        assert out.status is DualStatus.SOLVED
        u_star, y_bar = dual_quantities(out)
        assert_allclose(u_star, [2.0 / 25.0], atol=1e-12)
        assert_allclose(y_bar, [3.0 / 25.0, 4.0 / 25.0], atol=1e-12)
        assert_allclose(out.rho, [3.0, 4.0], atol=1e-9)

    def test_solved_outcomes_satisfy_kkt(self):
        for seed in range(12):
            P = separated_polyhedron(seed)
            out = solve_dual(P)
            assert out.status is DualStatus.SOLVED
            u_star, y_bar = dual_quantities(out)
            # Stationarity, 2 y_bar + C^T u* = 0, holds by construction of
            # u* and y_bar from the weights; feasibility and complementarity
            # do not.
            assert u_star.min() >= 0.0
            slack = 1.0 - P.vertices @ y_bar  # C y_bar + e with C = -Z
            assert slack.max() <= 1e-9
            complementarity = abs(float(u_star @ slack))
            assert complementarity <= 1e-8

    def test_strong_duality_value(self):
        # f(u*) = -||y_bar||^2 = -1/d^2, with d the wolfe route's distance:
        # the dual's own answer gives -1/||rho||^2 for any convex weights.
        for seed in range(12):
            P = separated_polyhedron(seed)
            u_star, _ = dual_quantities(solve_dual(P))
            f_star = dual_objective(P, u_star)
            norm_sq = 1.0 / solve_wolfe(P).distance ** 2
            assert abs(f_star + norm_sq) <= 1e-7 * (1.0 + norm_sq)

    def test_agrees_with_simplex_route(self):
        for seed in range(12):
            P = separated_polyhedron(seed)
            rho_dual = solve_dual(P).rho
            rho_wolfe = solve_wolfe(P).rho
            assert np.linalg.norm(rho_dual - rho_wolfe) <= 1e-6

    def test_unbounded_iff_origin_inside(self):
        for seed in range(8):
            P = origin_inside_polyhedron(seed)
            assert solve_dual(P).status is DualStatus.UNBOUNDED_BELOW
            assert solve_wolfe(P).origin_inside
        for seed in range(8):
            P = separated_polyhedron(seed)
            assert solve_dual(P).status is DualStatus.SOLVED
            assert not solve_wolfe(P).origin_inside


EPS = np.finfo(float).eps


def polyhedron(rows):
    return Polyhedron(np.array(rows, dtype=float))


def degenerate_hull(seed):
    """Random hull with every vertex repeated (odd seeds) or flat (even seeds).

    A flat hull's vertices span a random k-dimensional subspace up to the
    rounding of the product that builds them.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, 30))
    z = rng.uniform(-5.0, 5.0, size=(m, n))
    if seed % 2:
        z = np.vstack([z, z[rng.integers(0, m, size=m)]])
    else:
        k = int(rng.integers(1, n + 1))
        z = rng.uniform(-5.0, 5.0, size=(m, k)) @ rng.normal(size=(k, n))
    return polyhedron(z)


def assert_witness(P, out):
    """The hull-witness weights lie on the simplex and combine to the answer,
    the origin up to rounding when it is inside."""
    alpha = out.alpha
    assert alpha.shape == (P.m,)
    assert alpha.min() >= 0.0
    assert abs(alpha.sum() - 1.0) <= 8 * P.m * EPS
    assert_array_equal(out.rho, alpha @ P.vertices)
    if out.status is DualStatus.UNBOUNDED_BELOW:
        zmax = float(np.linalg.norm(P.vertices, axis=1).max())
        assert np.linalg.norm(out.rho) <= 64 * EPS * zmax


class TestActiveSetSolver:
    @pytest.mark.parametrize(
        "rows, rho",
        [
            (TRIANGLE + [TRIANGLE[0], TRIANGLE[2]], [1.0, 1.0]),  # duplicates
            (COLLINEAR_PAIR, [1.0, 0.0]),
            ([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 1.0]),  # collinear, ray
            ([[1.0, -1.0], [1.0, 2.0], [1.0, 0.5]], [1.0, 0.0]),  # collinear, line
            ([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0]], [2.0, 2.0, 0.0]),  # m <= n
            ([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]], [2 / 3] * 3),
            (SINGLE_POINT, [3.0, 4.0]),
            # The entering row lies in the active row's span up to rounding:
            # the step's curvature <z, z_p> was exactly 0 here.
            ([[-1e-9, 3.0], [0.0, -1.0]], [-2.5e-10, 0.0]),
        ],
    )
    def test_degenerate_and_flat_hulls_solved(self, rows, rho):
        P = polyhedron(rows)
        out = solve_dual(P)
        assert out.status is DualStatus.SOLVED
        assert_allclose(out.rho, rho, rtol=1e-14, atol=1e-14)
        assert out.iterations <= 10 * (P.n + 1)
        assert_witness(P, out)

    @pytest.mark.parametrize(
        "rows",
        [
            SEGMENT_THROUGH_ORIGIN,
            SEGMENT_THROUGH_ORIGIN * 2,  # duplicates
            LINE_POINTS,  # collinear, n = 1
            [[-1.0, -1.0], [1.0, 1.0], [3.0, 3.0]],  # collinear through the origin
            [[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]],  # m <= n
            [[0.0, 0.0]],  # a single point, the origin
            [[0.0, 0.0], [0.0, 0.0]],
        ],
    )
    def test_degenerate_and_flat_hulls_with_origin(self, rows):
        P = polyhedron(rows)
        out = solve_dual(P)
        assert out.status is DualStatus.UNBOUNDED_BELOW
        assert_witness(P, out)

    @pytest.mark.parametrize("seed", [140, 626, 1711, 2834, 3913, 5162])
    def test_nearly_dependent_rows(self, seed):
        # Flat hulls through the origin up to rounding (140, 626), whose
        # entering rows lie off the span of ill-conditioned active rows by
        # more than DEPENDENT_TOL max ||z_i||, and separated hulls on which y
        # updated step by step drifted off the active rows (the others).
        P = degenerate_hull(seed)
        out = solve_dual(P)
        wolfe = solve_wolfe(P)
        zmax = float(np.linalg.norm(P.vertices, axis=1).max())
        inside = float(np.linalg.norm(wolfe.rho)) <= 64 * EPS * zmax
        assert (out.status is DualStatus.UNBOUNDED_BELOW) == inside
        if not inside:
            rel = np.linalg.norm(out.rho - wolfe.rho) / np.linalg.norm(wolfe.rho)
            assert rel <= 1e-10
        assert_witness(P, out)

    def test_segment_witness_is_its_midpoint(self):
        out = solve_dual(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert_allclose(out.alpha, [0.5, 0.5], rtol=0, atol=0)

    def test_witness_on_separated_hulls_is_scaled_multipliers(self):
        # Multipliers vanish off the active rows, <z_i, y_bar> = 1.
        for seed in range(8):
            P = separated_polyhedron(seed)
            out = solve_dual(P)
            _, y_bar = dual_quantities(out)
            slack = P.vertices @ y_bar - 1.0
            assert np.all(out.alpha[slack > 1e-9] == 0.0)
            assert_witness(P, out)

    @pytest.mark.parametrize(
        "P",
        [origin_inside_polyhedron(seed) for seed in range(12)]
        + [Polyhedron(origin_inside(np.random.default_rng(seed), 100, 30)) for seed in range(3)]
        + [Polyhedron(origin_inside(np.random.default_rng(seed), 1000, 20)) for seed in range(3)]
        + [Polyhedron(origin_inside(np.random.default_rng(seed), 2000, 20)) for seed in range(2)],
    )
    def test_origin_inside_witness(self, P):
        out = solve_dual(P)
        assert out.status is DualStatus.UNBOUNDED_BELOW
        assert_witness(P, out)

    @pytest.mark.parametrize(
        "P",
        [Polyhedron(separated(np.random.default_rng(s), 1000, 20, 5.0)) for s in (0, 1, 2, 46)]
        + [Polyhedron(separated(np.random.default_rng(s), 2000, 20, 0.5)) for s in (0, 1)],
        ids=["1000x20-s0", "1000x20-s1", "1000x20-s2", "1000x20-s46", "2000x20-s0", "2000x20-s1"],
    )
    def test_tall_separated_agree_with_wolfe(self, P):
        # Seed 46 draws a hull that takes projected-gradient methods
        # thousands of iterations.
        out = solve_dual(P)
        assert out.status is DualStatus.SOLVED
        rho = solve_wolfe(P).rho
        assert np.linalg.norm(out.rho - rho) <= 1e-12 * np.linalg.norm(rho)
        assert out.iterations <= 10 * (P.n + 1)
        assert_witness(P, out)
        u_star, y_bar = dual_quantities(out)
        slack = P.vertices @ y_bar - 1.0
        assert slack.min() >= -1e-13
        assert abs(float(u_star @ slack)) <= 1e-13 * u_star.sum()

    @pytest.mark.parametrize("factor", [2.0**17, 2.0**-14])
    def test_power_of_two_scaling(self, factor):
        hulls = [separated_polyhedron(seed) for seed in range(8)]
        hulls += [origin_inside_polyhedron(seed) for seed in range(8)]
        hulls += [
            Polyhedron(separated(np.random.default_rng(46), 1000, 20, 5.0)),
            Polyhedron(origin_inside(np.random.default_rng(0), 1000, 20)),
        ]
        for P in hulls:
            base = solve_dual(P)
            scaled = solve_dual(Polyhedron(P.vertices * factor))
            assert scaled.status is base.status
            assert scaled.iterations == base.iterations
            if base.status is DualStatus.SOLVED:
                err = np.linalg.norm(scaled.rho - factor * base.rho)
                assert err <= 4 * EPS * np.linalg.norm(factor * base.rho)

    @pytest.mark.parametrize("factor", [1e-300, 1e-160, 1e-150, 1e150, 1e300])
    def test_segment_solved_at_any_scale(self, factor):
        # The steps run on 2^-k Z.  On Z itself y overflowed into NaN weights
        # at 1e-160, and at 1e300 the squared norms overflowed into infinite
        # tolerances, which answered unbounded-below with weights (1, 0).
        P = Polyhedron(np.array([[-1e-9, 3.0], [0.0, -1.0]]) * factor)
        out = solve_dual(P)
        assert out.status is DualStatus.SOLVED
        assert_allclose(out.alpha, [0.25, 0.75], rtol=1e-12)
        assert_array_equal(out.rho, out.alpha @ P.vertices)

    @pytest.mark.parametrize("ratio, status", [(1.0, "unbounded-below"), (1.0001, "solved")])
    def test_dependent_entering_row_tolerance(self, ratio, status):
        # z_0 = (1, 0) enters first; z_1 = (-1, delta) = -z_0 + (0, delta) then
        # has r = -1 and the part (0, delta) outside the span of z_0, and
        # max ||z_i|| = 1 to the bit: the threshold is DEPENDENT_TOL (1 + |r|).
        delta = ratio * 2.0 * DEPENDENT_TOL
        P = Polyhedron(np.array([[1.0, 0.0], [-1.0, delta]]))
        out = solve_dual(P)
        assert out.status.value == status
        if out.status is DualStatus.UNBOUNDED_BELOW:
            assert_allclose(out.alpha, [0.5, 0.5], rtol=0, atol=EPS)
        else:
            # The segment passes the origin at (delta^2 / 4, delta / 2), to
            # relative order delta^2.  The answer alpha @ Z has the rounding
            # of max ||z_i|| = 1, far above delta^2 / 4 in the first entry.
            assert_allclose(out.rho, [delta**2 / 4, delta / 2], rtol=1e-12, atol=2 * EPS)

    def test_budget_counts_steps(self):
        P = Polyhedron(np.array([[5.0, 1.0], [-5.0, 1.0], [0.5, 2.0]]))
        assert solve_dual(P).iterations == 2
        with pytest.raises(
            MaxIterExceeded, match=r"^dual solver did not converge in 1 active-set steps$"
        ):
            solve_dual(P, ToleranceConfig(max_iter=1))

    def test_budget_counts_a_partial_step_at_any_scale(self):
        # z_0 enters first, at y = (1, 0) with lam_0 = 1.  z_1 = 0.5 z_0 +
        # (0, 0.1) then drops z_0 after a partial step t = 2, at y = (1, 0.2);
        # a third step adds z_1.  The steps run on 2^-k Z, so scaling Z by a
        # power of two leaves the count, and the budget's raise, unchanged.
        P = Polyhedron(np.array([[1.0, 0.0], [0.5, 0.1]]))
        assert solve_dual(P).iterations == 3
        for Z in (P.vertices, np.ldexp(P.vertices, 40)):
            with pytest.raises(
                MaxIterExceeded, match=r"^dual solver did not converge in 2 active-set steps$"
            ):
                solve_dual(Polyhedron(Z), ToleranceConfig(max_iter=2))

    def test_stall_at_an_active_row_raises(self, monkeypatch):
        # With a negative entering threshold the solver never stops on its
        # own: once z_0 and z_1 are active and hold with equality, z_2 is
        # satisfied and the most violated row is the active z_0, which
        # otherwise only rounding brings about.
        monkeypatch.setattr(support_qp, "ENTER_TOL", -1.0)
        with pytest.raises(
            MaxIterExceeded, match=r"^dual active-set solver stalled at vertex 0$"
        ):
            solve_dual(Polyhedron(np.array(TRIANGLE)))
