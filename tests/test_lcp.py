import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
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
from ppocp.certify import cross_check
from ppocp.core import Polyhedron, unit_scale
from ppocp import lcp
from ppocp.errors import InternalInconsistency
from ppocp.lcp import (
    _check_complementary_basis,
    _pivot,
    _solve_on_basis,
    _swap_members,
    LCPInstance,
    LcpStatus,
    LcpVariant,
    build_lcp,
    extract_projection,
    lemke_solve,
    vertex_weights,
)
from ppocp.support_qp import dual_objective, solve_dual

ALL_VARIANTS = (LcpVariant.PRIMAL_SPLIT, LcpVariant.WOLFE_KKT, LcpVariant.DUAL_ORTHANT)


# Counts the pivot paths of dual-orthant on random_polyhedron(37, box=1e3) and
# prints that count and the error's message.
_HULL_37_DUAL = """
import sys
sys.path.insert(0, {tests!r})
from conftest import random_polyhedron
from ppocp import lcp
from ppocp.errors import InternalInconsistency
calls = []
pivot_path = lcp._pivot_path
def counted(*args):
    calls.append(args)
    return pivot_path(*args)
lcp._pivot_path = counted
L = lcp.build_lcp(random_polyhedron(37, box=1e3), lcp.LcpVariant.DUAL_ORTHANT)
try:
    lcp.lemke_solve(L)
except InternalInconsistency as err:
    print(len(calls), err)
"""


# consensus-medium's hull shapes.
_MEDIUM_SHAPES = ((60, 20), (100, 30), (20, 40), (40, 60))


def _primal_split_blocks(P):
    """The quadratic form ``H`` and constraint rows ``A`` of primal-split's ``M``."""
    L = build_lcp(P, LcpVariant.PRIMAL_SPLIT)
    two_n = 2 * P.n
    return L.M[:two_n, :two_n] / 2.0, L.M[two_n:, :two_n], L.q[two_n:]


class TestCanonicalizePrimal:
    """The split form ``y = s - s'`` that primal-split's ``M`` is built on."""

    def test_block_matrix_for_plane(self):
        H, _, _ = _primal_split_blocks(Polyhedron(np.array(TRIANGLE)))
        expected_H = [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
        assert_array_equal(H, expected_H)

    def test_triangle_constraints(self):
        _, A, q = _primal_split_blocks(Polyhedron(np.array(TRIANGLE)))
        assert_array_equal(
            A,
            [[2.0, 0.0, -2.0, 0.0], [0.0, 2.0, 0.0, -2.0], [2.0, 2.0, -2.0, -2.0]],
        )
        assert_array_equal(q, [-1.0, -1.0, -1.0])

    def test_equal_split_annihilates_the_form(self):
        H, _, _ = _primal_split_blocks(Polyhedron(np.array(TRIANGLE)))
        x = np.ones(4)
        assert float(x @ H @ x) == 0.0

    def test_form_equals_split_difference(self):
        rng = np.random.default_rng(1)
        P = random_polyhedron(9)
        H, _, _ = _primal_split_blocks(P)
        for _ in range(20):
            x = rng.normal(size=2 * P.n)
            value = float(x @ H @ x)
            diff = x[: P.n] - x[P.n :]
            assert value == pytest.approx(float(diff @ diff), rel=1e-12, abs=1e-12)


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

    def test_unknown_variant_is_rejected(self):
        # The variant's value string is not the variant.
        with pytest.raises(ValueError, match="unknown variant 'dual-orthant'"):
            build_lcp(Polyhedron(np.array(TRIANGLE)), "dual-orthant")

    def test_size_is_read_from_q(self):
        # The size is not a field, so a hand-built instance cannot contradict
        # its arrays.
        with pytest.raises(TypeError):
            LCPInstance(M=np.eye(3), q=-np.ones(3), k=1, variant=LcpVariant.DUAL_ORTHANT)

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


def _pivot_by_rows(T, rhs, row, col):
    # Row-by-row Gauss-Jordan elimination: the reference _pivot must match.
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            factor = T[i, col]
            T[i] -= factor * T[row]
            rhs[i] -= factor * rhs[row]
            T[i, col] = 0.0
    T[row, col] = 1.0


class TestPivot:
    # At k = 6 the dictionary [D | rhs] has exactly 8 float64 columns, the
    # width at which NumPy 2.4.6 computes np.negative(x, out=x) wrongly on a
    # column.
    @pytest.mark.parametrize("k", (3, 6, 7, 28, 160))
    def test_matches_row_elimination_bit_for_bit(self, k):
        # The dictionary pivot must reproduce the full tableau's pivot on the
        # nonbasic columns, the leaving variable's new column and rhs.
        rng = np.random.default_rng(k)
        for _ in range(5):
            order = rng.permutation(2 * k + 1)
            basis, nonbasic = order[:k], order[k:]
            T = rng.normal(size=(k, 2 * k + 1))
            T[:, basis] = np.eye(k)
            rhs = rng.normal(size=k)
            row, c = int(rng.integers(k)), int(rng.integers(k + 1))
            zeros = rng.choice(k, size=k // 3, replace=False)
            T[zeros[zeros != row], nonbasic[c]] = 0.0
            # C order, as the path holds it: column_stack alone gives F order.
            dictionary = np.ascontiguousarray(np.column_stack([T[:, nonbasic], rhs]))
            T_ref, rhs_ref = T.copy(), rhs.copy()
            _pivot(dictionary, row, c)
            _pivot_by_rows(T_ref, rhs_ref, row, nonbasic[c])
            nonbasic[c] = basis[row]
            assert_array_equal(dictionary[:, :-1], T_ref[:, nonbasic])
            assert_array_equal(dictionary[:, -1], rhs_ref)


def _dense_refactor(data, basis, k):
    # Reference: factor the whole k x k basis and solve it against every column.
    return np.linalg.solve(data[:, basis], data)


def _full_tableau_path(M, q, k):
    # Reference for lcp._pivot_path: the same pivot rule, covering vector
    # and ratio-candidate threshold on the whole k x (2k+1) tableau, pivoted
    # row by row and rebuilt every 8 pivots by a dense solve of the whole
    # basis.  The engine never rebuilds, so against this reference
    # TestFullTableauReference and TestLongPaths also check that its drift
    # changes no outcome.
    data = np.hstack([np.eye(k), -M, -(q < 0.0).astype(float)[:, None], q[:, None]])
    T = data[:, :-1].copy()
    rhs = q.copy()
    basis = list(range(k))
    z0 = 2 * k
    eps = np.finfo(float).eps
    row = int(np.lexsort(np.column_stack([rhs, T[:, :k]]).T[::-1])[0])
    entering = z0
    pivots, since_refactor, seen = 0, -1, set()
    while pivots < 50 * k:
        leaving = basis[row]
        _pivot_by_rows(T, rhs, row, entering)
        basis[row] = entering
        pivots += 1
        if leaving == z0:
            return LcpStatus.SOLUTION, list(basis), pivots
        since_refactor += 1
        if since_refactor >= 8:
            rebuilt = _dense_refactor(data, basis, k)
            T, rhs = rebuilt[:, :-1].copy(), rebuilt[:, -1].copy()
            since_refactor = 0
        key = frozenset(basis)
        assert key not in seen, "reference path revisited a basis"
        seen.add(key)
        entering = leaving + k if leaving < k else leaving - k
        col = T[:, entering]
        tol = max(64.0, k) * eps * max(1.0, float(np.abs(col).max()))
        cand = np.flatnonzero(col > tol)
        if cand.size == 0:
            ray = np.zeros(2 * k + 1)
            ray[basis] = -col
            ray[entering] = 1.0
            return LcpStatus.RAY_TERMINATION, ray[k : 2 * k], pivots
        first = rhs[cand] / col[cand]
        tied = cand[~(first > first.min())]
        if tied.size > 1:
            ratios = np.column_stack([rhs[tied], T[tied, :k]]) / col[tied, None]
            tied = tied[np.lexsort(ratios.T[::-1])]
        row = int(tied[0])
    raise AssertionError("reference path reached the pivot limit")


class TestFullTableauReference:
    # The dictionary path keeps the nonbasic columns only; on the benchmark's
    # hull shapes it must take the full tableau's path to the same basis.
    @pytest.mark.parametrize(
        "hull",
        [("separated", seed, m, n) for m, n in _MEDIUM_SHAPES for seed in range(2)]
        # Seed 27 has the widest gap over seeds 0-39 between the dense
        # reference's dual-orthant ray and the block-solve engine's, 1.8e-11
        # relative, the same at the full-tableau engine this one replaced.
        + [("inside", seed, 80, 20) for seed in (0, 1, 2, 3, 27)],
        ids=lambda hull: "{}-{}x{}-{}".format(hull[0], hull[2], hull[3], hull[1]),
    )
    def test_same_path_as_full_tableau(self, hull, monkeypatch):
        kind, seed, m, n = hull
        rng = np.random.default_rng(seed)
        z = separated(rng, m, n, 0.5) if kind == "separated" else origin_inside(rng, m, n)
        U, _ = unit_scale(Polyhedron(z))
        for variant in ALL_VARIANTS:
            L = build_lcp(U, variant)
            out = lemke_solve(L)
            with monkeypatch.context() as patch:
                patch.setattr(lcp, "_pivot_path", _full_tableau_path)
                ref = lemke_solve(L)
            assert out.status is ref.status
            assert out.pivots == ref.pivots
            if kind == "inside" and variant is not LcpVariant.WOLFE_KKT:
                assert out.status is LcpStatus.RAY_TERMINATION
                scale = np.abs(ref.v).max()
                assert np.abs(out.v - ref.v).max() <= 1e-10 * scale
            else:
                assert out.status is LcpStatus.SOLUTION
                assert out.w.tobytes() == ref.w.tobytes()
                assert out.v.tobytes() == ref.v.tobytes()


    @pytest.mark.parametrize(
        "make, seed, variants",
        [
            (separated_polyhedron, 1, ("dual-orthant",)),
            (separated_polyhedron, 2, ("wolfe-kkt", "dual-orthant")),
            (separated_polyhedron, 8, ("wolfe-kkt", "dual-orthant")),
            (separated_polyhedron, 14, ("primal-split",)),
            (separated_polyhedron, 62, ("dual-orthant",)),
            (random_polyhedron, 1, ("wolfe-kkt", "dual-orthant")),
            (random_polyhedron, 8, ("wolfe-kkt", "dual-orthant")),
            (random_polyhedron, 14, ("primal-split",)),
            (random_polyhedron, 43, ("dual-orthant",)),
        ],
        ids=lambda x: getattr(x, "__name__", None) or str(x),
    )
    def test_ties_break_as_full_tableau(self, make, seed, variants):
        # On the unperturbed q many ratio tests tie exactly, and these paths
        # end before the reference's first rebuild, so the lexicographic keys
        # alone decide them and the paths agree to the bit.  Dropping either
        # part of the keys, or reading the nonbasic part from a wrong column
        # of D, changes some outcome here.
        U, _ = unit_scale(make(seed))
        for variant in variants:
            L = build_lcp(U, LcpVariant(variant))
            status, end, pivots = lcp._pivot_path(L.M, L.q, L.k)
            ref_status, ref_end, ref_pivots = _full_tableau_path(L.M, L.q, L.k)
            assert ref_pivots <= 8
            assert (status, pivots) == (ref_status, ref_pivots)
            assert np.asarray(end).tobytes() == np.asarray(ref_end).tobytes()


class TestLongPaths:
    # Hull 0 of the 240x80 consensus sweep (153x69; random_polyhedron is
    # scripts/consensus_sweep.make_instance) at unit scale: its
    # primal-split path of 551 pivots is the longest of the three.
    @pytest.fixture(scope="class")
    def hull(self):
        U, _ = unit_scale(random_polyhedron(0, max_m=240, max_n=80))
        assert U.vertices.shape == (153, 69)
        return U

    def test_same_outcome_as_full_tableau(self, hull, monkeypatch):
        expected = (
            (LcpVariant.PRIMAL_SPLIT, LcpStatus.RAY_TERMINATION, 551),
            (LcpVariant.WOLFE_KKT, LcpStatus.SOLUTION, 190),
            (LcpVariant.DUAL_ORTHANT, LcpStatus.RAY_TERMINATION, 180),
        )
        for variant, status, pivots in expected:
            L = build_lcp(hull, variant)
            out = lemke_solve(L)
            with monkeypatch.context() as patch:
                patch.setattr(lcp, "_pivot_path", _full_tableau_path)
                ref = lemke_solve(L)
            assert out.status is ref.status is status
            assert out.pivots == ref.pivots == pivots
            if status is LcpStatus.SOLUTION:
                assert out.w.tobytes() == ref.w.tobytes()
                assert out.v.tobytes() == ref.v.tobytes()
            else:
                assert np.abs(out.v - ref.v).max() <= 1e-9 * np.abs(ref.v).max()
            extract_projection(hull, L, out)

    def test_full_check_once_per_path(self, hull, monkeypatch):
        # Per pivot only the O(1) guard runs; the full O(k) check runs once,
        # where the path ends, on a ray or a solution.
        calls = []
        check = lcp._check_complementary_basis

        def counted_check(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(lcp, "_check_complementary_basis", counted_check)
        for variant, status in (
            (LcpVariant.PRIMAL_SPLIT, LcpStatus.RAY_TERMINATION),
            (LcpVariant.WOLFE_KKT, LcpStatus.SOLUTION),
        ):
            calls.clear()
            assert lemke_solve(build_lcp(hull, variant)).status is status
            assert len(calls) == 1

    def test_drifting_ray_ends_the_path(self):
        # Hull 13 of the 320x120 consensus sweep (277x108, k = 493): where its
        # primal-split path reaches the ray, after 781 pivots, drift leaves
        # entering-column entries of 2.5e-12 against max|col| = 113.  At a
        # 64 eps candidate threshold the path went past the ray and raised
        # under some rebuild intervals; at max(64, k) eps it ends on the ray
        # with no rebuild at all.
        U, _ = unit_scale(random_polyhedron(13, max_m=320, max_n=120))
        assert U.vertices.shape == (277, 108)
        L = build_lcp(U, LcpVariant.PRIMAL_SPLIT)
        out = lemke_solve(L)
        assert (out.status, out.pivots) == (LcpStatus.RAY_TERMINATION, 781)
        assert out.v[L.k - U.m :].max() > 0.0
        assert extract_projection(U, L, out).distance <= 1e-14


class TestCheckComplementaryBasis:
    def test_valid_bases_pass(self):
        _check_complementary_basis([0, 4, 2], 3)  # w1, v2, w3
        _check_complementary_basis([0, 6, 5], 3)  # w1, z0, v3: pair 2 open

    def test_pair_with_both_members_basic(self):
        with pytest.raises(InternalInconsistency, match="pair 2 has both members basic"):
            _check_complementary_basis([1, 4, 2], 3)  # w2 and v2

    # With no pair holding both members, a miscount needs a basis of the
    # wrong length: the check guards the bookkeeping, not the arithmetic.
    def test_missing_pair_without_z0(self):
        with pytest.raises(
            InternalInconsistency,
            match=r"1 complementary pairs without a basic member \(expected 0\)",
        ):
            _check_complementary_basis([0, 2, 3], 4)  # pair 2 open, no z0

    def test_no_missing_pair_with_z0(self):
        with pytest.raises(
            InternalInconsistency,
            match=r"0 complementary pairs without a basic member \(expected 1\)",
        ):
            _check_complementary_basis([0, 1, 2, 3, 8], 4)  # every pair and z0


def test_singular_final_basis_raises():
    # v1 and v3 are the split pair s_1, s'_1 of a 3x2 hull: their M columns
    # are exact negatives, so the basis holding both is singular.
    L = build_lcp(Polyhedron(np.array(TRIANGLE)), LcpVariant.PRIMAL_SPLIT)
    assert_array_equal(L.M[:, 0], -L.M[:, 2])
    with pytest.raises(InternalInconsistency, match="final basis is singular"):
        _solve_on_basis(L.M, L.q, [7, 1, 9, 3, 4, 5, 6], L.k)


class TestSwapMembers:
    def test_swap_updates_membership(self):
        member = np.array([True, False, True, False, True, False, False])
        _swap_members(member, 0, 6, 3)  # w1 leaves, z0 enters
        assert_array_equal(member, [False, False, True, False, True, False, True])

    def test_leaving_variable_must_be_basic(self):
        member = np.array([True, False, True, False, True, False, False])
        with pytest.raises(InternalInconsistency, match="leaving variable v1 is not basic"):
            _swap_members(member, 3, 6, 3)
        assert_array_equal(member, [True, False, True, False, True, False, False])

    def test_entering_variable_must_be_nonbasic(self):
        member = np.array([True, False, True, False, True, False, False])
        with pytest.raises(InternalInconsistency, match="entering variable v2 is already basic"):
            _swap_members(member, 0, 4, 3)

    def test_z0_must_be_nonbasic_to_enter(self):
        member = np.array([True, False, True, False, False, False, True])
        with pytest.raises(InternalInconsistency, match="entering variable z0 is already basic"):
            _swap_members(member, 0, 6, 3)

    def test_one_wrong_swap_stops_the_path(self, monkeypatch):
        # Book the third pivot's swap against another basic variable than the
        # one that left: the guard or a full check must catch it before the
        # path ends.
        swap = lcp._swap_members
        calls = []

        def wrong_third(member, leaving, entering, k):
            calls.append(leaving)
            if len(calls) == 3:
                basic = np.flatnonzero(member)
                leaving = int(basic[basic != leaving][0])
            swap(member, leaving, entering, k)

        monkeypatch.setattr(lcp, "_swap_members", wrong_third)
        U, _ = unit_scale(Polyhedron(separated(np.random.default_rng(0), 60, 20, 0.5)))
        for variant in ALL_VARIANTS:
            calls.clear()
            with pytest.raises(InternalInconsistency):
                lemke_solve(build_lcp(U, variant))
            assert len(calls) >= 3

    def test_membership_is_checked_against_the_basis(self, monkeypatch):
        # Flip the membership of a variable that no pivot of the path touches:
        # the O(1) guard never sees it, the full check where the path ends
        # must.
        swap = lcp._swap_members
        touched = set()

        def recording(member, leaving, entering, k):
            touched.update((leaving, entering))
            swap(member, leaving, entering, k)

        U, _ = unit_scale(Polyhedron(separated(np.random.default_rng(0), 60, 20, 0.5)))
        L = build_lcp(U, LcpVariant.WOLFE_KKT)
        monkeypatch.setattr(lcp, "_swap_members", recording)
        lemke_solve(L)
        untouched = min(set(range(2 * L.k + 1)) - touched)

        def flipping(member, leaving, entering, k):
            swap(member, leaving, entering, k)
            if entering == 2 * k:  # the first pivot
                member[untouched] = not member[untouched]

        monkeypatch.setattr(lcp, "_swap_members", flipping)
        with pytest.raises(InternalInconsistency, match="membership drifted"):
            lemke_solve(L)


class TestLemkeSolve:
    def test_nonnegative_q_is_immediate(self):
        L = LCPInstance(M=np.eye(2), q=np.array([1.0, 2.0]), variant=LcpVariant.DUAL_ORTHANT)
        out = lemke_solve(L)
        assert out.status is LcpStatus.SOLUTION
        assert out.pivots == 0
        assert_array_equal(out.w, [1.0, 2.0])
        assert_array_equal(out.v, [0.0, 0.0])

    @pytest.mark.parametrize("k", [*range(1, 301), 2048])
    def test_covering_perturbation_is_drawn_once_per_size(self, k):
        delta = lcp._covering_perturbation(k)
        fresh = 1.0 + np.random.default_rng(k).uniform(0.0, 1.0, size=k)
        assert delta.tobytes() == fresh.tobytes()
        assert delta.flags.writeable is False
        assert lcp._covering_perturbation(k) is delta
        with pytest.raises(ValueError):
            delta[0] = 1.0

    def test_covering_draw_at_the_largest_seed(self):
        # The draw takes its seed as one 32-bit word; 2**32 - 1 is the last.
        fresh = np.random.default_rng(2**32 - 1).uniform(0.0, 1.0, size=8)
        assert lcp._default_rng_uniform(2**32 - 1, 8) == fresh.tolist()

    def test_covering_perturbation_values(self):
        assert lcp._covering_perturbation(3).tolist() == [
            1.0856491671436244,
            1.2368105065960997,
            1.8012744652063968,
        ]

    def test_origin_inside_wolfe_solves_in_one_path(self, monkeypatch):
        # Unit-scale origin-inside hulls whose degenerate Wolfe-KKT bases ended
        # a path perturbed by 1e-7 on a basis feasible only for the perturbed
        # right-hand side.
        calls = []
        pivot_path = lcp._pivot_path

        def counted(*args):
            calls.append(args)
            return pivot_path(*args)

        monkeypatch.setattr(lcp, "_pivot_path", counted)
        for m, n, seed in (
            (100, 30, 46),
            (100, 30, 70),
            (100, 30, 222),
            (60, 20, 69),
            (60, 20, 347),
            (150, 40, 26),
        ):
            P = Polyhedron(origin_inside(np.random.default_rng(seed), m, n))
            U, _ = unit_scale(P)
            calls.clear()
            out = lemke_solve(build_lcp(U, LcpVariant.WOLFE_KKT))
            assert out.status is LcpStatus.SOLUTION
            assert len(calls) == 1
            assert cross_check(P).verdict == "agree"

    def test_gives_up_after_one_path(self):
        # At box 1e3, without unit scaling, this hull's path ends on a
        # singular basis (five v columns of a rank-2 M); the solver must give
        # up after its one path, at one BLAS thread and at two.
        src = os.path.dirname(os.path.dirname(os.path.abspath(lcp.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-c", _HULL_37_DUAL.format(tests=tests)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            assert out == "1 final basis is singular\n"

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
        if variant is LcpVariant.DUAL_ORTHANT:
            # 80x20 hulls at unit scale: on 0, 17 and 22 the pivot path
            # cycles at the hulls' own scale; at unit scale it ends on a ray,
            # as on 39, whose weights combine the vertices to the origin.
            for seed in (0, 17, 22, 39):
                z = origin_inside(np.random.default_rng(seed), 80, 20)
                U, _ = unit_scale(Polyhedron(z))
                L = build_lcp(U, variant)
                out = lemke_solve(L)
                assert out.status is LcpStatus.RAY_TERMINATION
                alpha = vertex_weights(U, L, out)
                assert np.linalg.norm(alpha @ U.vertices) <= 1e-14

    def test_wolfe_variant_always_solves(self):
        for seed in range(10):
            P = origin_inside_polyhedron(seed)
            out = lemke_solve(build_lcp(P, LcpVariant.WOLFE_KKT))
            assert out.status is LcpStatus.SOLUTION

    def test_matches_dual_solver_objective(self):
        for seed in range(10):
            P = separated_polyhedron(seed)
            lemke_u = lemke_solve(build_lcp(P, LcpVariant.DUAL_ORTHANT)).v
            dual_u, _ = dual_quantities(solve_dual(P))
            f_lemke = dual_objective(P, np.maximum(lemke_u, 0.0))
            f_dual = dual_objective(P, dual_u)
            assert abs(f_lemke - f_dual) <= 1e-7 * (1.0 + abs(f_dual))


class TestExtractProjection:
    def test_triangle_all_variants_agree(self):
        P = Polyhedron(np.array(TRIANGLE))
        for variant in ALL_VARIANTS:
            L = build_lcp(P, variant)
            res = extract_projection(P, L, lemke_solve(L))
            assert_allclose(res.rho, [1.0, 1.0], atol=1e-9)
            assert res.vi_min >= -1e-8
            assert not res.origin_inside

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
        with pytest.raises(InternalInconsistency, match="always-solvable simplex variant"):
            extract_projection(P, L, broken)

    def test_outcome_with_no_positive_multiplier_is_error(self):
        P = Polyhedron(np.array(TRIANGLE))
        L = build_lcp(P, LcpVariant.DUAL_ORTHANT)
        empty = lcp.LCPOutcome(
            status=LcpStatus.SOLUTION, w=-L.q, v=np.array([0.0, -1.0, 0.0]), pivots=0
        )
        with pytest.raises(
            InternalInconsistency, match="dual-orthant solution with no positive multiplier"
        ):
            extract_projection(P, L, empty)

    @pytest.mark.parametrize("d", (1e-6, 1e-5, 1e-4, 1e-3))
    def test_sliver_answer_is_exact(self, d):
        # The multipliers grow like 1/d^2; weights read out of them still
        # combine the two vertices to (0, d).
        P = Polyhedron(np.array([[1.0, d], [-1.0, d]]))
        for variant in ALL_VARIANTS:
            L = build_lcp(P, variant)
            res = extract_projection(P, L, lemke_solve(L))
            assert np.abs(res.rho - [0.0, d]).max() <= 1e-15

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
