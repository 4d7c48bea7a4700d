"""The seeded hull families that tests, sweeps and the benchmark draw from."""

import hashlib

import numpy as np
import pytest

from conftest import consensus_sweep, origin_inside, separated
from ppocp.certify import cross_check
from ppocp.core import Polyhedron


def test_benchmark_generators_draw_the_same_hulls():
    # Tier-1 draws its separated and origin-inside hulls from the benchmark's
    # generators, so an edit to them must show here before it moves the data
    # of both.
    digests = [
        hashlib.sha256(z.tobytes()).hexdigest()
        for z in (
            separated(np.random.default_rng(0), 12, 8, 0.5),
            origin_inside(np.random.default_rng(0), 12, 8),
        )
    ]
    assert digests == [
        "cdc86959a4d335ec853283bc1900ec1b77f1f6f9bf88cfd183d939ef60a19232",
        "f9991d8c7dc4d5f777c1d6edd50ca48a88025caf87e37234c958ec6a08e51ad6",
    ]


def _swept(monkeypatch, argv):
    """The hulls ``consensus_sweep.main(argv)`` cross-checks, in order."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(consensus_sweep, "cross_check", lambda P: seen.append(P) or cross_check(P))
        consensus_sweep.main(argv)
    return seen


@pytest.mark.parametrize("family", sorted(consensus_sweep.FAMILIES))
def test_every_family_sweeps_count_hulls(family, monkeypatch, capsys):
    hulls = _swept(monkeypatch, ["--family", family, "--count", "3", "--max-m", "6"])
    assert len(hulls) == 3
    assert all(isinstance(P, Polyhedron) for P in hulls)
    assert capsys.readouterr().out.startswith("[   0] ")


def _vertex_bytes(hulls):
    return [P.vertices.tobytes() for P in hulls]


def test_default_family_is_uniform(monkeypatch):
    argv = ["--count", "4", "--seed", "9", "--box", "2"]
    drawn = _vertex_bytes(consensus_sweep.make_instance(9 + i, 12, 8, 2.0) for i in range(4))
    assert _vertex_bytes(_swept(monkeypatch, argv)) == drawn
    assert _vertex_bytes(_swept(monkeypatch, ["--family", "uniform", *argv])) == drawn


def test_lattice_family_draws_lattice_instances(monkeypatch):
    argv = ["--family", "lattice", "--count", "5", "--max-m", "9", "--max-n", "4"]
    swept = _swept(monkeypatch, [*argv, "--seed", "3", "--shift", "2"])
    assert _vertex_bytes(swept) == _vertex_bytes(consensus_sweep.lattice_instances(3, 5, 9, 4, 2.0))


def test_lattice_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        consensus_sweep.main(["--lattice"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --lattice" in capsys.readouterr().err
