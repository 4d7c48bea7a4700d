"""Wolfe's minimum-norm-point kernel and the two routes built on it."""

import numpy as np
import pytest
import scipy.optimize

import ppocp.core as core
import ppocp.maximin as maximin
import ppocp.simplex_qp as simplex_qp
from ppocp.core import Polyhedron, refine_simplex_minimizer
from ppocp.maximin import solve_maximin
from ppocp.simplex_qp import solve_wolfe

SHAPES = [(3, 2), (12, 4), (60, 6), (150, 8), (400, 10)]


def _separated(rng, m, n, margin=0.5):
    z = rng.uniform(-5.0, 5.0, size=(m, n))
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    return z + (margin - float(np.min(z @ d))) * d


def _origin_inside(rng, m, n):
    z = rng.uniform(-5.0, 5.0, size=(m - 1, n))
    lam = rng.uniform(0.2, 1.0, size=m)
    return np.vstack([-(lam[1:] @ z) / lam[0], z])


def _flat(rng, m, n):
    """Separated hull whose vertices span only a plane of R^n."""
    basis = np.linalg.qr(rng.normal(size=(n, 2)))[0].T
    return _separated(rng, m, 2) @ basis


def hulls():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for m, n in SHAPES:
            yield f"separated-{m}x{n}-{seed}", _separated(rng, m, n)
            yield f"inside-{m}x{n}-{seed}", _origin_inside(rng, m, n)
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
    lstsq = np.linalg.lstsq

    def recording_lstsq(K, rhs, rcond=None):
        sizes.append(K.shape[0] - 1)  # the bordered system adds one row
        return lstsq(K, rhs, rcond=rcond)

    monkeypatch.setattr(core.np.linalg, "lstsq", recording_lstsq)
    weights, steps = refine_simplex_minimizer(Z, np.full(m, 1.0 / m))
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


@pytest.mark.parametrize("factor", [2.0**17, 2.0**-14])
def test_kernel_is_scale_equivariant(factor):
    for _, Z in HULLS[::4]:
        start = np.full(Z.shape[0], 1.0 / Z.shape[0])
        weights, steps = refine_simplex_minimizer(Z, start)
        scaled, scaled_steps = refine_simplex_minimizer(Z * factor, start)
        np.testing.assert_array_equal(scaled, weights)
        assert scaled_steps == steps


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
    P = Polyhedron(_origin_inside(np.random.default_rng(0), m, n))
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
    weights, steps = refine_simplex_minimizer(Z, np.full(3, 1.0 / 3.0))
    assert steps == 0
    np.testing.assert_array_equal(weights, [0.0, 1.0, 0.0])
    # Only vertices in the support of the start weights are candidates.
    weights, steps = refine_simplex_minimizer(Z, np.array([0.5, 0.0, 0.5]))
    assert steps == 0
    np.testing.assert_array_equal(weights, [0.0, 0.0, 1.0])
