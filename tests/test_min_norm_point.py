"""Wolfe's minimum-norm-point kernel and the two routes built on it."""

import json
import sys

import numpy as np
import pytest
import scipy.optimize

import ppocp.core as core
import ppocp.maximin as maximin
import ppocp.simplex_qp as simplex_qp
from conftest import TRIANGLE, origin_inside, separated
from ppocp import cli
from ppocp.certify import cross_check, reference_projection
from ppocp.core import (
    DEFAULT_TOLERANCES,
    Polyhedron,
    ToleranceConfig,
    refine_simplex_minimizer,
)
from ppocp.errors import InternalInconsistency, MaxIterExceeded
from ppocp.maximin import solve_maximin
from ppocp.simplex_qp import solve_wolfe

SHAPES = [(3, 2), (12, 4), (60, 6), (150, 8), (400, 10)]
MAX_CYCLES = DEFAULT_TOLERANCES.max_iter  # the cap both routes pass


def _flat(rng, m, n):
    """Separated hull whose vertices span only a plane of R^n."""
    basis = np.linalg.qr(rng.normal(size=(n, 2)))[0].T
    return separated(rng, m, 2, 0.5) @ basis


def hulls():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for m, n in SHAPES:
            yield f"separated-{m}x{n}-{seed}", separated(rng, m, n, 0.5)
            yield f"inside-{m}x{n}-{seed}", origin_inside(rng, m, n)
            yield f"flat-{m}x{n}-{seed}", _flat(rng, m, n)


HULLS = list(hulls())


def nnls_projection(Z):
    """Projection of the origin onto conv(Z) by least-distance programming.

    Lawson & Hanson (Solving Least Squares Problems, ch. 23): fit ``e_{n+1}``
    by the columns of ``[Z^T; 1^T]`` with nonnegative coefficients and call
    the residual ``r``.  A zero residual means the origin is in the hull;
    otherwise ``y = -r[:n] / r[n]`` is the minimum-norm point of
    ``{y : Z y >= 1}``, and the projection is ``y / ||y||^2``.
    """
    m, n = Z.shape
    E = np.vstack([Z.T, np.ones((1, m))])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = scipy.optimize.nnls(E, f, maxiter=50 * m)
    r = E @ u - f
    if abs(r[n]) <= 1e-14:
        return np.zeros(n)
    y = -r[:n] / r[n]
    return y / float(y @ y)


def _scale(Z):
    return float(np.linalg.norm(Z, axis=1).max())


@pytest.mark.parametrize("name,Z", HULLS, ids=[h[0] for h in HULLS])
def test_kernel_corral_weights_and_gap(name, Z, monkeypatch):
    m, n = Z.shape
    sizes = []
    solve = np.linalg.solve

    def recording_solve(K, rhs):
        sizes.append(K.shape[0] - 1)  # the bordered system adds one row
        return solve(K, rhs)

    monkeypatch.setattr(core.np.linalg, "solve", recording_solve)
    weights, steps = refine_simplex_minimizer(Z, MAX_CYCLES)
    monkeypatch.undo()

    assert steps == len(sizes)
    assert max(sizes, default=1) <= n + 1
    assert np.count_nonzero(weights) <= n + 1
    assert weights.min() >= 0.0
    assert abs(weights.sum() - 1.0) <= 1e-12
    x = weights @ Z
    gap = float(x @ x) - float((Z @ x).min())
    assert gap <= 1e-9 * (1.0 + _scale(Z) ** 2)


@pytest.mark.parametrize("name,Z", HULLS, ids=[h[0] for h in HULLS])
def test_routes_match_nnls_reference(name, Z):
    P = Polyhedron(Z)
    ref = nnls_projection(Z)
    tol = 1e-9 * _scale(Z)
    assert np.linalg.norm(solve_wolfe(P).rho - ref) <= tol
    assert np.linalg.norm(solve_maximin(P).rho - ref) <= tol


@pytest.mark.parametrize("factor", [2.0**17, 2.0**-14, 2.0**-1000, 2.0**1000])
def test_kernel_is_scale_equivariant(factor):
    # At 2^-1000 and 2^1000 the squared norms of Z itself underflow and
    # overflow; the kernel runs on 2^-k Z, so its weights do not change.
    for _, Z in HULLS[::4]:
        weights, steps = refine_simplex_minimizer(Z, MAX_CYCLES)
        scaled, scaled_steps = refine_simplex_minimizer(Z * factor, MAX_CYCLES)
        np.testing.assert_array_equal(scaled, weights)
        assert scaled_steps == steps


@pytest.mark.parametrize("solve", [solve_wolfe, solve_maximin])
def test_routes_answer_far_below_unit_scale(solve):
    P = Polyhedron(np.ldexp(np.array(TRIANGLE), -1000))
    np.testing.assert_allclose(solve(P).alpha, [0.5, 0.5, 0.0], rtol=1e-15)


@pytest.mark.parametrize("solve", [solve_wolfe, solve_maximin])
def test_absolute_gap_overflow_stays_loud(solve):
    # The gap checks stay absolute on Z as given: past 2^511 the gap of this
    # triangle, whose nearest point lies inside an edge, overflows, and the
    # answer is refused rather than passed.  A nearest point at a vertex has
    # a gap of exactly 0 and passes (test_distance_past_the_squares_range).
    P = Polyhedron(np.ldexp(np.array(TRIANGLE), 600))
    with np.errstate(over="ignore"), pytest.raises(MaxIterExceeded):
        solve(P)


# Nearest point (1, 2), a vertex, at distance sqrt 5.
Z0 = np.array([[3.0, 4.0], [1.0, 2.0], [2.0, 5.0]])


@pytest.mark.parametrize("solve", [solve_wolfe, solve_maximin])
@pytest.mark.parametrize("exponent", [-600, -1000, 520])
def test_distance_past_the_squares_range(solve, exponent):
    # ||rho||^2 underflows to 0 below about 2^-511 and overflows above 2^511;
    # the distance is still the unit distance scaled by the power of two.
    # At 2^520 vi_min overflows, as documented, and warns.
    unit = solve(Polyhedron(Z0)).distance
    with np.errstate(over="ignore" if exponent > 0 else "warn"):
        out = solve(Polyhedron(np.ldexp(Z0, exponent)))
    assert out.distance == np.ldexp(unit, exponent)
    assert out.alpha.tolist() == [0.0, 1.0, 0.0]


def test_routes_make_one_kernel_call(monkeypatch):
    # Both routes call the kernel with the vertices and the cycle cap and
    # nothing else, so their weights agree by construction.
    calls = []
    for module in (simplex_qp, maximin):
        kernel = module.refine_simplex_minimizer

        def recording(*args, _kernel=kernel, **kwargs):
            calls.append((args, kwargs))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(module, "refine_simplex_minimizer", recording)
    cfg = ToleranceConfig(max_iter=500)
    for _, Z in HULLS[::7]:
        P = Polyhedron(Z)
        for solve in (solve_wolfe, solve_maximin):
            calls.clear()
            solve(P, cfg)
            ((args, kwargs),) = calls
            assert kwargs == {}
            assert len(args) == 2 and args[0] is P.vertices and args[1] == cfg.max_iter


def test_routes_never_build_the_gram_matrix(monkeypatch):
    def forbidden(P):
        raise AssertionError("gram_matrix called")

    monkeypatch.setattr(simplex_qp, "gram_matrix", forbidden)
    monkeypatch.setattr(maximin, "gram_matrix", forbidden)
    for _, Z in HULLS[::5]:
        P = Polyhedron(Z)
        solve_wolfe(P)
        solve_maximin(P)


def test_maximin_origin_inside_polish_steps(monkeypatch):
    m, n = 2000, 20
    P = Polyhedron(origin_inside(np.random.default_rng(0), m, n))
    steps = []
    kernel = maximin.refine_simplex_minimizer

    def counting(*args, **kwargs):
        weights, taken = kernel(*args, **kwargs)
        steps.append(taken)
        return weights, taken

    monkeypatch.setattr(maximin, "refine_simplex_minimizer", counting)
    sol = solve_maximin(P)
    assert sol.origin_inside
    assert len(steps) == 1
    assert steps[0] <= 4 * (n + 1)


def test_corral_starts_at_lowest_norm_support_vertex():
    Z = np.array([[3.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    # Vertices 1 and 2 tie as nearest; the lowest index starts the corral,
    # which is already optimal.
    weights, steps = refine_simplex_minimizer(Z, MAX_CYCLES)
    assert steps == 0
    np.testing.assert_array_equal(weights, [0.0, 1.0, 0.0])


# Draw 138 of ``scripts/consensus_sweep.py --family lattice --count 150 --max-m 39
# --max-n 7 --seed 1``.  The kernel reaches the corral {7, 5, 2} with weights
# (6.9e-16, 0.444, 0.556) and adds z_4; vertex 7 blocks the first minor step
# at a length of 6.9e-16, which leaves z_4 a weight of the same size.  Cut
# together with vertex 7, z_4 used to leave the corral, and the kernel
# stopped at a gap of 1.67: wolfe and maximin both failed their checks.
LATTICE_16x5 = np.array(
    [
        [2, 1, -1, 1, -1],
        [3, 1, -2, -2, -2],
        [1, -2, -1, 0, 1],
        [3, -1, -2, -1, 2],
        [1, 0, -1, 0, 2],
        [1, 1, 2, 0, -2],
        [2, -2, 0, 1, -1],
        [2, 0, 0, 0, 1],
        [5, -1, -1, -1, 1],
        [4, 1, -1, -2, 2],
        [2, 1, 2, 1, 2],
        [5, 0, 1, 2, -2],
        [1, 0, -2, 0, -1],
        [3, 0, 1, 2, 0],
        [4, -2, 0, 1, -2],
        [4, 2, -1, -2, -2],
    ],
    dtype=float,
)


def test_entering_vertex_survives_a_tiny_first_step():
    Z = LATTICE_16x5
    P = Polyhedron(Z)
    weights, _ = refine_simplex_minimizer(Z, MAX_CYCLES)
    x = weights @ Z
    assert float(x @ x) - float((Z @ x).min()) <= 1e-12
    ref = nnls_projection(Z)
    assert np.linalg.norm(solve_wolfe(P).rho - ref) <= 1e-12
    assert np.linalg.norm(solve_maximin(P).rho - ref) <= 1e-12
    report = cross_check(P)
    assert report.verdict == "agree"
    assert {name: e.status for name, e in report.entries.items()}["wolfe"] == "ok"


# Hulls 1165 and 1731 of ``scripts/consensus_sweep.py --family hunt --count 3000
# --seed 0``, whose row norms span 20 and 22 binary decades.  On hull 1165
# the bordered system of the corral of vertices 2, 0 and 1 has a smallest
# singular value of 1.5e-15, just under the 1.8e-15 rank cut-off of an SVD
# least-squares solve: its minimum-norm solution kept all three vertices with
# nonnegative weights, the kernel stopped at a gap of 5.2e-7, and ``project
# --method wolfe`` printed a distance 12.5 % too large.  The LU solve finds
# the negative affine weight and drops the vertex.
HUNT_HULLS = {
    "hunt-1165": [
        [6143.953125, -5632.0],
        [-0.015624940395355225, 0.011718750000007105],
        [-0.007812492549419403, 0.003906242549419403],
        [-8.000000000116415, -15.999999999534339],
    ],
    "hunt-1731": [
        [-16.03125, -7.5, -11.999999999985448],
        [1.7881393432617188e-07, 0.003906250000014211, 0.0029296874708961695],
        [4095.999984741211, -4097.0, -12288.000061035156],
        [-0.0019588470458984375, 0.0009765624963620212, -0.0039062499998294697],
    ],
}


@pytest.mark.parametrize("vertices", HUNT_HULLS.values(), ids=HUNT_HULLS)
def test_rows_many_binary_decades_apart_match_the_oracle(vertices):
    P = Polyhedron(np.array(vertices))
    ref = reference_projection(P).rho
    tol = 1e-12 * float(np.abs(P.vertices).max())
    assert np.linalg.norm(solve_wolfe(P).rho - ref) <= tol
    assert np.linalg.norm(solve_maximin(P).rho - ref) <= tol
    report = cross_check(P)
    for name in ("wolfe", "maximin"):
        assert np.linalg.norm(report.entries[name].result.rho - ref) <= tol


@pytest.mark.parametrize("vertices", HUNT_HULLS.values(), ids=HUNT_HULLS)
def test_cli_distance_on_rows_many_binary_decades_apart(vertices, tmp_path, capsys):
    path = tmp_path / "hull.json"
    path.write_text(json.dumps({"vertices": vertices}))
    distances = {}
    for method in ("wolfe", "dual"):
        assert cli.run(["--input", str(path), "--method", method]) == 0
        distances[method] = json.loads(capsys.readouterr().out)["distance"]
    # The oracle's own answer on hull 1165 sits 1.2e-12 from all six routes'
    # and prints one unit in the last place lower; the dual's matches to the bit.
    assert distances["wolfe"] == distances["dual"]
    oracle = reference_projection(Polyhedron(np.array(vertices))).distance
    assert distances["wolfe"] == pytest.approx(oracle, rel=4 * np.finfo(float).eps)


@pytest.fixture
def singular_kernel(monkeypatch):
    """Make every bordered solve of Wolfe's kernel report a singular matrix.

    Other callers of ``np.linalg.solve`` (the dual's and Lemke's) keep the
    real one, so only the kernel's failure shows.
    """
    solve = np.linalg.solve

    def failing(K, rhs):
        if sys._getframe(1).f_code is refine_simplex_minimizer.__code__:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(K, rhs)

    monkeypatch.setattr(core.np.linalg, "solve", failing)


def test_singular_bordered_system_is_an_inconsistency(singular_kernel):
    P = Polyhedron(np.array(TRIANGLE))
    with pytest.raises(InternalInconsistency, match="singular for a corral of 2 vertices"):
        solve_wolfe(P)
    report = cross_check(P)
    assert report.verdict == "conflict"
    for name in ("wolfe", "maximin"):
        assert report.entries[name].status == "error"
        assert "singular for a corral of 2 vertices" in report.entries[name].error
    assert report.entries["dual"].status == "ok"


def test_singular_bordered_system_exits_4(singular_kernel, tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": TRIANGLE}))
    assert cli.run(["--input", str(path), "--method", "wolfe"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: consistency conflict: "
        "Wolfe's bordered system is singular for a corral of 2 vertices\n"
    )
