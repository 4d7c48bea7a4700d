import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    COLLINEAR_PAIR,
    SEGMENT_THROUGH_ORIGIN,
    SINGLE_POINT,
    TRIANGLE,
    random_polyhedron,
)
from ppocp.certify import cross_check
from ppocp.core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ProjectionResult,
    ToleranceConfig,
    gram_matrix,
    kernel_rows,
    projection_result,
    refine_simplex_minimizer,
    support_value,
    translate,
    unit_scale,
    vi_residuals,
)
from ppocp.errors import InternalInconsistency


class TestPolyhedron:
    def test_shape_and_order_preserved(self):
        P = Polyhedron(np.array(TRIANGLE))
        assert (P.m, P.n) == (3, 2)
        assert_array_equal(P.vertices, np.array(TRIANGLE))

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            Polyhedron(np.array([1.0, 2.0, 3.0]))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Polyhedron(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Polyhedron(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            Polyhedron(np.array([[np.inf, 0.0]]))

    def test_duplicate_vertices_are_kept_silently(self):
        # Duplicates are legal input, kept as given and in order, signed
        # zeros included; only the CLI reports them (tests/test_cli.py).
        six = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 0.0], [0.0, 5.0], [1.0, 1.0], [2.0, 0.0]])
        signed = np.array([[0.0, 1.0], [-0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_array_equal(Polyhedron(six).vertices, six)
            kept = Polyhedron(signed).vertices
        assert np.signbit(kept).tolist() == [[False, False], [True, False]]

    def test_derived_instances_keep_duplicates_silently(self):
        z = np.array(TRIANGLE + [TRIANGLE[1]]) * 8.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = Polyhedron(z)
            shifted = translate(P, np.array([1.0, 1.0]))
            U, s = unit_scale(P)
            report = cross_check(P)
        assert_array_equal(shifted.vertices, z - 1.0)
        assert_array_equal(U.vertices * s, z)
        assert report.verdict == "agree"
        assert report.headline.alpha.shape == (4,)

    def test_vertices_are_readonly(self):
        P = Polyhedron(np.array(TRIANGLE))
        with pytest.raises(ValueError):
            P.vertices[0, 0] = 7.0

    def test_records_keep_their_values_when_the_callers_array_changes(self):
        # A caller's array is copied even when it is frozen and owns its
        # data: the caller can thaw it again, so only a copy is immutable.
        z, alpha, rho = np.array(TRIANGLE), np.array([0.5, 0.5, 0.0]), np.array([1.0, 1.0])
        for a in (z, alpha, rho):
            a.flags.writeable = False
        P = Polyhedron(z)
        built = projection_result(P, alpha, 1)
        given = ProjectionResult(
            rho=rho, distance=2.0**0.5, iterations=1, vi_min=0.0, origin_inside=False, alpha=alpha
        )
        for a in (z, alpha, rho):
            a.flags.writeable = True
            a[...] = -7.0
        assert_array_equal(P.vertices, TRIANGLE)
        for result in (built, given):
            assert_array_equal(result.alpha, [0.5, 0.5, 0.0])
            assert_array_equal(result.rho, [1.0, 1.0])
        assert_array_equal(cross_check(P).rho, [1.0, 1.0])


class TestProjectionResult:
    @pytest.mark.parametrize("alpha", [[0.5, 0.5], [[0.5, 0.5, 0.0]], 1.0])
    def test_weights_of_the_wrong_shape_are_inconsistent(self, alpha):
        P = Polyhedron(np.array(TRIANGLE))
        shape = np.shape(alpha)
        with pytest.raises(InternalInconsistency, match=re.escape(f"{shape} weights for 3 vertices")):
            projection_result(P, alpha, 1)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.feas_tol == 1e-9
        assert cfg.opt_tol == 1e-8
        assert cfg.zero_tol == 1e-8
        assert cfg.max_iter == 100_000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(feas_tol=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(max_iter=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["feas_tol", "opt_tol", "zero_tol"])
    def test_rejects_non_finite(self, name, value):
        # NaN passes a bare ``<= 0`` test; infinity would turn checks off.
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            ToleranceConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, True, np.nan])
    def test_max_iter_must_be_an_integer(self, value):
        # A float cap reached range() as a raw TypeError; True passed as 1.
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            ToleranceConfig(max_iter=value)

    def test_max_iter_accepts_numpy_integers(self):
        assert ToleranceConfig(max_iter=np.int64(3)).max_iter == 3


class TestKernelRows:
    def test_unit_instance_is_not_copied(self):
        for seed in range(20):
            U, _ = unit_scale(random_polyhedron(seed, box=10.0 ** (seed - 10)))
            Z, sq, k = kernel_rows(U.vertices)
            assert k == 0 and Z is U.vertices
            assert_array_equal(sq, np.einsum("ij,ij->i", Z, Z))

    @pytest.mark.parametrize("k", [-1070, -1000, -520, -7, 7, 520, 1020])
    def test_power_of_two_rows_give_the_unit_rows(self, k):
        # Squared norms underflow past 2^-511 and overflow past 2^511; the
        # exponent then comes from unit_scale's norms instead.  The largest
        # norm, 5, is not a power of 2^(1/2), so no rounding tie decides k.
        Z = np.array([[3.0, 4.0], [1.0, 0.0], [-1.0, 2.0]])
        base, base_sq, base_k = kernel_rows(Z)
        scaled, sq, j = kernel_rows(np.ldexp(Z, k))
        assert j == base_k + k
        assert_array_equal(scaled, base)
        assert_array_equal(sq, base_sq)

    def test_exact_tie_rounds_half_to_even(self):
        # max ||z||^2 = 32 * 4^j, so half its log2 is the half-integer 2.5 + j
        # and round() sends it to the even neighbour: k is unit_scale's 3 + j
        # only at odd j.  The kernels' weights depend on neither k nor j.
        Z = np.array([[4.0, 4.0], [1.0, 2.0], [3.0, -1.0]])
        exponents = [kernel_rows(np.ldexp(Z, j))[2] for j in range(-3, 5)]
        assert exponents == [0, 0, 2, 2, 4, 4, 6, 6]
        base, _ = refine_simplex_minimizer(Z, DEFAULT_TOLERANCES.max_iter)
        for j in range(-3, 5):
            weights, _ = refine_simplex_minimizer(np.ldexp(Z, j), DEFAULT_TOLERANCES.max_iter)
            assert weights.tobytes() == base.tobytes()


class TestGramMatrix:
    def test_collinear_pair_is_singular(self):
        B = gram_matrix(Polyhedron(np.array(COLLINEAR_PAIR)))
        assert_array_equal(B, [[1.0, 2.0], [2.0, 4.0]])
        assert abs(np.linalg.det(B)) <= 1e-12

    def test_opposite_pair_is_singular(self):
        B = gram_matrix(Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN)))
        assert_array_equal(B, [[1.0, -1.0], [-1.0, 1.0]])
        assert abs(np.linalg.det(B)) <= 1e-12

    def test_triangle_inner_products(self):
        B = gram_matrix(Polyhedron(np.array(TRIANGLE)))
        assert_array_equal(B, [[4.0, 0.0, 4.0], [0.0, 4.0, 4.0], [4.0, 4.0, 8.0]])

    def test_matches_constraint_product(self):
        for seed in range(5):
            P = random_polyhedron(seed)
            B = gram_matrix(P)
            C = -P.vertices
            assert_allclose(B, C @ C.T, atol=1e-12)
            assert_array_equal(B, B.T)

    def test_tall_gram_is_exactly_symmetric(self):
        # m well past the m <= 12 instances above, for the BLAS product.
        P = Polyhedron(np.random.default_rng(0).uniform(-5.0, 5.0, size=(600, 20)))
        B = gram_matrix(P)
        assert_array_equal(B, B.T)
        assert_allclose(B, np.einsum("ik,jk->ij", P.vertices, P.vertices), atol=1e-11)

    def test_psd_probe(self):
        # <xi, B xi> equals ||C^T xi||^2, hence is nonnegative.
        rng = np.random.default_rng(0)
        for seed in range(10):
            P = random_polyhedron(seed)
            B = gram_matrix(P)
            C = -P.vertices
            for _ in range(100):
                xi = rng.normal(size=P.m)
                quad = float(xi @ B @ xi)
                norm_sq = float(np.sum((C.T @ xi) ** 2))
                assert quad >= -1e-10 * max(1.0, norm_sq)
                assert abs(quad - norm_sq) <= 1e-10 * max(1.0, norm_sq)


class TestSupportValue:
    def test_triangle_diagonal_direction(self):
        P = Polyhedron(np.array(TRIANGLE))
        c = np.array([1.0, 1.0]) / np.sqrt(2.0)
        value, idx = support_value(P, c)
        assert_allclose(value, np.sqrt(2.0), rtol=1e-14)
        assert idx == 0

    def test_zero_direction(self):
        P = random_polyhedron(3)
        value, _ = support_value(P, np.zeros(P.n))
        assert value == 0.0

    def test_segment(self):
        P = Polyhedron(np.array(SEGMENT_THROUGH_ORIGIN))
        value, idx = support_value(P, np.array([1.0, 0.0]))
        assert value == -1.0
        assert idx == 0

    def test_tie_takes_lowest_index(self):
        P = Polyhedron(np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 3.0]]))
        _, idx = support_value(P, np.array([1.0, 0.0]))
        assert idx == 0

    @given(st.integers(0, 50), st.floats(0.01, 100.0))
    def test_positive_homogeneity(self, seed, lam):
        P = random_polyhedron(seed)
        rng = np.random.default_rng(seed + 1)
        c = rng.normal(size=P.n)
        t1, _ = support_value(P, c)
        t2, _ = support_value(P, lam * c)
        assert abs(t2 - lam * t1) <= 1e-10 * max(1.0, abs(lam * t1))


class TestViResiduals:
    def test_triangle_at_projection(self):
        P = Polyhedron(np.array(TRIANGLE))
        assert_allclose(vi_residuals(P, np.array([1.0, 1.0])), [0.0, 0.0, 2.0])

    def test_zero_point(self):
        P = random_polyhedron(11)
        assert_array_equal(vi_residuals(P, np.zeros(P.n)), np.zeros(P.m))

    def test_vertex_optimal_case(self):
        P = Polyhedron(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(vi_residuals(P, np.array([1.0, 1.0])), [0.0, 1.0, 1.0])

    def test_residual_at_own_vertex_is_zero(self):
        for seed in range(8):
            P = random_polyhedron(seed)
            for j in range(P.m):
                zj = P.vertices[j]
                r = vi_residuals(P, zj)
                assert abs(r[j]) <= 1e-10 * max(1.0, float(zj @ zj))


class TestTranslate:
    def test_triangle_shift(self):
        P = Polyhedron(np.array(TRIANGLE))
        Q = translate(P, np.array([1.0, 1.0]))
        assert_array_equal(Q.vertices, [[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])

    def test_zero_shift_is_identity(self):
        P = random_polyhedron(23)
        Q = translate(P, np.zeros(P.n))
        assert_array_equal(Q.vertices, P.vertices)

    def test_point_to_origin(self):
        P = Polyhedron(np.array(SINGLE_POINT))
        Q = translate(P, np.array([3.0, 4.0]))
        assert_array_equal(Q.vertices, [[0.0, 0.0]])

    def test_dimension_mismatch(self):
        P = Polyhedron(np.array(TRIANGLE))
        with pytest.raises(ValueError):
            translate(P, np.array([1.0, 2.0, 3.0]))


class TestRefineSimplexMinimizer:
    def test_triangle_from_uniform(self):
        Z = Polyhedron(np.array(TRIANGLE)).vertices
        x, _ = refine_simplex_minimizer(Z, DEFAULT_TOLERANCES.max_iter)
        assert_allclose(x, [0.5, 0.5, 0.0], atol=1e-12)

    def test_never_leaves_simplex(self):
        for seed in range(6):
            P = random_polyhedron(seed)
            B = gram_matrix(P)
            x, _ = refine_simplex_minimizer(P.vertices, DEFAULT_TOLERANCES.max_iter)
            assert x.min() >= 0.0
            assert abs(x.sum() - 1.0) <= 1e-12
            w = B @ x
            gap = float(x @ w - w.min())
            assert gap <= 1e-9 * (1.0 + abs(float(x @ w)))
