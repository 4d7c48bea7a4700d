import importlib.util
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from ppocp.core import Polyhedron, support_value

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


TRIANGLE = [[2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]
SEGMENT_THROUGH_ORIGIN = [[-1.0, 0.0], [1.0, 0.0]]
COLLINEAR_PAIR = [[1.0, 0.0], [2.0, 0.0]]
LINE_POINTS = [[-1.0], [1.0], [5.0]]
SINGLE_POINT = [[3.0, 4.0]]

# scripts/consensus_sweep.py, whose hull families some tests draw from.
_spec = importlib.util.spec_from_file_location(
    "consensus_sweep", Path(__file__).resolve().parents[1] / "scripts" / "consensus_sweep.py"
)
consensus_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(consensus_sweep)


def dual_quantities(out):
    """The paper's dual quantities read off a SOLVED dual answer:
    ``u* = 2 alpha / ||rho||^2`` and ``y_bar = rho / ||rho||^2``."""
    norm_sq = float(out.rho @ out.rho)
    return 2.0 * out.alpha / norm_sq, out.rho / norm_sq


def maximin_pair(P, result):
    """The maximin direction and value read off an answer:
    ``c = rho / ||rho||`` (0 at the origin) and ``t = min_i <c, z_i>``."""
    c = result.rho / result.distance if result.distance > 0.0 else result.rho
    t, _ = support_value(P, c)
    return c, t


@pytest.fixture
def triangle():
    return Polyhedron(np.array(TRIANGLE))


def random_polyhedron(seed, max_m=12, max_n=8, box=5.0):
    """Vertices uniform in a box; mixed dimensions and counts: the sweep's hulls."""
    return consensus_sweep.make_instance(seed, max_m, max_n, box)


def origin_inside_polyhedron(seed, max_m=12, max_n=8, box=5.0):
    """Hull containing the origin: one vertex closes a positive combination."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    z = rng.uniform(-box, box, size=(m - 1, n))
    lam = rng.uniform(0.2, 1.0, size=m)
    closing = -(lam[1:] @ z) / lam[0]
    return Polyhedron(np.vstack([closing[None, :], z]))


def separated_polyhedron(seed, margin=0.5, max_m=12, max_n=8, box=5.0):
    """Hull strongly separated from the origin by at least ``margin``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    z = rng.uniform(-box, box, size=(m, n))
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    shift = margin - float(np.min(z @ d))
    return Polyhedron(z + shift * d)


def far_vertex_kernel(Z, max_cycles):
    """Stand-in for ``refine_simplex_minimizer`` that stops at the farthest vertex."""
    weights = np.zeros(len(Z))
    weights[int(np.argmax(np.linalg.norm(Z, axis=1)))] = 1.0
    return weights, 1
