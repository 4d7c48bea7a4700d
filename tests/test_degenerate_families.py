"""Consensus on five degenerate hull families, 50 seeded hulls each.

Four families have 3 to 39 vertices in 2 to 9 dimensions; the fifth is
``scripts/consensus_sweep.py``'s near-dependent square hulls.
``cross_check`` must agree on each hull: the routes' answers within the
consensus bound and their origin-membership votes unanimous.
"""

import functools
import warnings

import numpy as np
import pytest

from conftest import consensus_sweep
from ppocp.certify import cross_check
from ppocp.core import Polyhedron

COUNT = 50


def _sizes(rng, min_n=2):
    return int(rng.integers(3, 40)), int(rng.integers(min_n, 10))


def _orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q


def plane_hull(rng, index):
    """Points on a 2-D affine subspace; every other subspace passes through the origin."""
    m, n = _sizes(rng, min_n=3)
    basis = _orthonormal(rng, n, 2)
    z = rng.uniform(-5.0, 5.0, size=(m, 2)) @ basis.T
    if index % 2:
        z += rng.uniform(-5.0, 5.0, size=n)
    return z


def duplicated_hull(rng, index):
    """Uniform points with some rows repeated, in shuffled order."""
    m, n = _sizes(rng)
    base = rng.uniform(-5.0, 5.0, size=(max(2, m // 2), n))
    repeats = rng.integers(0, len(base), size=m - len(base))
    return rng.permutation(np.vstack([base, base[repeats]]))


def sphere_hull(rng, index):
    """Points on the unit sphere."""
    m, n = _sizes(rng)
    z = rng.normal(size=(m, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def facet_hull(rng, index):
    """The origin in the relative interior of a facet.

    ``k`` facet vertices in the hyperplane ``<d, z> = 0`` are centred on a
    strictly positive convex combination of themselves, so that combination
    is the origin; every other vertex lies strictly on the side ``<d, z> > 0``.
    """
    m, n = _sizes(rng)
    d = _orthonormal(rng, n, 1)[:, 0]
    k = int(rng.integers(2, min(n, m - 1) + 1))
    facet = rng.uniform(-5.0, 5.0, size=(k, n))
    facet -= np.outer(facet @ d, d)
    lam = rng.uniform(0.2, 1.0, size=k)
    facet -= (lam / lam.sum()) @ facet
    rest = rng.uniform(-5.0, 5.0, size=(m - k, n))
    rest += np.outer(rng.uniform(0.1, 5.0, size=m - k) - rest @ d, d)
    return rng.permutation(np.vstack([facet, rest]))


def near_dependent_hulls(seed):
    """Square hulls whose last vertex nearly depends on the others."""
    for P in consensus_sweep.near_dependent_instances(seed, COUNT, 5.0):
        yield P.vertices


def _one_stream(make):
    """The family of ``make(rng, index)``, drawn from one seeded stream."""

    def hulls(seed):
        rng = np.random.default_rng(seed)
        for index in range(COUNT):
            yield make(rng, index)

    return hulls


FAMILIES = {
    "plane": (_one_stream(plane_hull), 11),
    "duplicated": (_one_stream(duplicated_hull), 12),
    "sphere": (_one_stream(sphere_hull), 13),
    "facet": (_one_stream(facet_hull), 14),
    "near-dependent": (near_dependent_hulls, 2026),
}


def _family(name):
    hulls, seed = FAMILIES[name]
    return enumerate(hulls(seed))


@functools.lru_cache(maxsize=None)
def _reports(name):
    with warnings.catch_warnings():
        # The duplicated family warns on every hull; that warning is tested below.
        warnings.simplefilter("ignore")
        return [(index, z.shape, cross_check(Polyhedron(z))) for index, z in _family(name)]


@pytest.mark.parametrize("name", FAMILIES)
def test_family_reaches_consensus(name):
    conflicts = [(i, shape) for i, shape, r in _reports(name) if r.verdict != "agree"]
    assert conflicts == []


def test_duplicated_family_warns():
    for _, z in _family("duplicated"):
        with pytest.warns(UserWarning, match="duplicate vertices"):
            Polyhedron(z)


def test_facet_family_votes_inside():
    for index, _, report in _reports("facet"):
        assert report.votes and all(report.votes.values()), (index, report.votes)


@pytest.mark.parametrize("name", ["plane", "sphere"])
def test_family_mixes_inside_and_outside(name):
    # A family whose hulls all fall on one side of the origin would test
    # only one kind of answer.
    inside = sum(any(r.votes.values()) for _, _, r in _reports(name))
    assert 0 < inside < COUNT
