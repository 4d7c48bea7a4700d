import importlib.util
import sys
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


def _load(name, relpath):
    """The module at ``relpath`` from the repository root, registered as ``name``."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# Each hull family is defined once, and the tests draw from that definition:
# the sweep's families from scripts/consensus_sweep.py, the benchmark's
# separated and origin-inside hulls from perfbench/workloads.py.
consensus_sweep = _load("consensus_sweep", "scripts/consensus_sweep.py")
workloads = _load("workloads", "perfbench/workloads.py")
separated, origin_inside = workloads.separated, workloads.origin_inside


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


def origin_inside_polyhedron(seed, max_m=12, max_n=8):
    """Hull containing the origin: one vertex closes a positive combination."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    return Polyhedron(origin_inside(rng, m, n))


def separated_polyhedron(seed, margin=0.5, max_m=12, max_n=8):
    """Hull strongly separated from the origin by at least ``margin``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    return Polyhedron(separated(rng, m, n, margin))


def far_vertex_kernel(Z, max_cycles):
    """Stand-in for ``refine_simplex_minimizer`` that stops at the farthest vertex."""
    weights = np.zeros(len(Z))
    weights[int(np.argmax(np.linalg.norm(Z, axis=1)))] = 1.0
    return weights, 1
