"""Metamorphic properties of ``cross_check`` on hulls up to 60 x 30.

Multiplying the vertices by ``2^k`` reproduces the whole report bit for bit
in the new units, because every route solves the same unit-scale instance,
and its verdict at any finite scale, because the verdict is judged there.
Rotating, permuting or duplicating the vertices, and projecting a point
with ``--point``, move the answer as the geometry says, within the
consensus bound: ``1e-6 (1 + max distance)`` judged at unit scale, which is
``1e-6 (s + max distance)`` in the caller's units.  Hulls on the integer
lattice, whose exact ties and repeated vertices float draws never give, must
reach agreement.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppocp import cli
from ppocp.certify import cross_check
from ppocp.core import Polyhedron, unit_scale


def _vertices(family, m, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-5.0, 5.0, size=(m, n))
    if family == "separated":
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        z += (0.5 - float(np.min(z @ d))) * d
    elif family == "inside" and m > 1:
        lam = rng.uniform(0.2, 1.0, size=m)
        z[0] = -(lam[1:] @ z[1:]) / lam[0]
    return z


@st.composite
def hulls(draw):
    family = draw(st.sampled_from(("uniform", "separated", "inside")))
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, 30))
    return _vertices(family, m, n, draw(st.integers(0, 2**32 - 1)))


@st.composite
def lattice_hulls(draw):
    # Integer coordinates tie exactly and repeat vertices, which float draws
    # never do; the shift along the first axis moves the origin out.
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 8))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-2, 3, size=(m, n))
    z = z.astype(float)
    z[:, 0] += draw(st.integers(0, 3))
    return z


def _polyhedron(z):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicated vertices are intended
        return Polyhedron(z)


def _bound(P, *reports):
    distance = max(
        (e.result.distance for r in reports for e in r.entries.values() if e.result),
        default=0.0,
    )
    return 1e-6 * (unit_scale(P)[1] + distance)


def _assert_moved(before, after, move, bound):
    """Every route answering both instances answers the second with
    ``move(rho)`` of the first, and votes alike."""
    for name, entry in before.entries.items():
        other = after.entries[name]
        if entry.status == "ok" and other.status == "ok":
            dev = float(np.linalg.norm(other.result.rho - move(entry.result.rho)))
            assert dev <= bound, (name, dev, bound)
            assert other.result.origin_inside is entry.result.origin_inside, name


@given(z=hulls(), k=st.integers(-60, 60))
def test_power_of_two_scaling_is_exact(z, k):
    base = cross_check(Polyhedron(z))
    scaled = cross_check(Polyhedron(np.ldexp(z, k)))
    assert scaled.verdict == base.verdict
    assert scaled.votes == base.votes
    assert scaled.pairwise_max_deviation == np.ldexp(base.pairwise_max_deviation, k)
    assert list(scaled.entries) == list(base.entries)
    for name, entry in base.entries.items():
        other = scaled.entries[name]
        assert (other.status, other.error) == (entry.status, entry.error), name
        if entry.result is None:
            continue
        a, b = entry.result, other.result
        assert b.rho.tobytes() == np.ldexp(a.rho, k).tobytes(), name
        assert b.distance == np.ldexp(a.distance, k), name
        assert b.vi_min == np.ldexp(a.vi_min, 2 * k), name
        assert (b.iterations, b.origin_inside) == (a.iterations, a.origin_inside), name


SCALE_HULLS = {
    "triangle": np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]),
    "separated": _vertices("separated", 9, 4, 3),
    "inside": _vertices("inside", 9, 4, 3),
}


@pytest.mark.parametrize("k", [600, 900, 996, -1000])
@pytest.mark.parametrize("hull", list(SCALE_HULLS))
def test_verdict_holds_at_any_finite_scale(hull, k):
    # Past s = 2^511 the caller-unit vi_min overflows, so the test above
    # stays at |k| <= 60; verdict, votes and statuses must hold anyway.
    z = SCALE_HULLS[hull]
    base = cross_check(Polyhedron(z))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = cross_check(Polyhedron(np.ldexp(z, k)))
    assert (scaled.verdict, scaled.votes) == (base.verdict, base.votes)
    assert {n: e.status for n, e in scaled.entries.items()} == {
        n: e.status for n, e in base.entries.items()
    }
    if k < 0:
        return  # caller-unit answers may round into the subnormal range
    assert scaled.pairwise_max_deviation == np.ldexp(base.pairwise_max_deviation, k)
    for name, entry in base.entries.items():
        if entry.result is not None:
            rho = scaled.entries[name].result.rho
            assert rho.tobytes() == np.ldexp(entry.result.rho, k).tobytes(), name


@given(z=hulls(), seed=st.integers(0, 2**32 - 1))
def test_rotation_rotates_the_answer(z, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(z.shape[1],) * 2))
    P = Polyhedron(z)
    before, after = cross_check(P), cross_check(Polyhedron(z @ Q.T))
    _assert_moved(before, after, lambda rho: Q @ rho, _bound(P, before, after))


@given(z=hulls(), seed=st.integers(0, 2**32 - 1))
def test_permuting_and_duplicating_vertices_keeps_the_answer(z, seed):
    rng = np.random.default_rng(seed)
    m = z.shape[0]
    rows = np.concatenate([rng.permutation(m), rng.integers(0, m, size=rng.integers(0, m + 1))])
    P = Polyhedron(z)
    before, after = cross_check(P), cross_check(_polyhedron(z[rows]))
    _assert_moved(before, after, lambda rho: rho, _bound(P, before, after))


@given(z=hulls(), seed=st.integers(0, 2**32 - 1))
def test_point_projects_the_translated_instance(z, seed):
    p = np.random.default_rng(seed).uniform(-5.0, 5.0, size=z.shape[1])
    shifted = cross_check(Polyhedron(z - p))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": z.tolist()}, fh)
        code = cli.run(["--input", path, "--point", *map(repr, p.tolist())])
    assert code == (0 if shifted.verdict == "agree" else 4)
    doc = json.loads(out.getvalue())
    assert doc["report"]["verdict"] == shifted.verdict
    dev = float(np.linalg.norm(np.array(doc["rho"]) - (shifted.rho + p)))
    assert dev <= _bound(Polyhedron(z - p), shifted)
    for name, route in doc["report"]["routes"].items():
        if route["status"] == "ok":  # every route prints in the headline's frame
            assert route["rho"] == list(shifted.entries[name].result.rho + p), name


@given(z=lattice_hulls())
def test_lattice_hulls_agree(z):
    report = cross_check(_polyhedron(z))
    assert report.verdict == "agree", {n: e.error for n, e in report.entries.items() if e.error}
