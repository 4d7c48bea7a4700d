"""The seeded hull families that tests, sweeps and the benchmark draw from."""

import dataclasses
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


def test_hunt_draws_the_same_hulls():
    # The hunt's conflict counts are quoted for this stream; k_max narrows
    # the row scales of the hunt-k families without moving it.
    digest = hashlib.sha256()
    for P in consensus_sweep.hunt_instances(0, 20):
        digest.update(repr(P.vertices.shape).encode())
        digest.update(P.vertices.tobytes())
    assert digest.hexdigest() == "bd831ebcf1cd3042ef8c64dad2d9e3f4d9b4aba0aeac5b220244b86e57e028da"


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


@pytest.mark.parametrize("family, k_max", [("hunt-k0", 0), ("hunt-k3", 3)])
def test_hunt_k_families_narrow_the_row_scales(family, k_max, monkeypatch):
    swept = _swept(monkeypatch, ["--family", family, "--count", "5", "--seed", "4"])
    assert _vertex_bytes(swept) == _vertex_bytes(consensus_sweep.hunt_instances(4, 5, k_max))
    assert max(float(np.abs(P.vertices).max()) for P in swept) <= 5.0 * 2.0**k_max


def test_summary_counts_silent_deviations(monkeypatch, capsys):
    # Hulls 0, 2 and 3 of the default draw agree with the origin outside, 2
    # and 3 with an oracle; lcp-wolfe's distance is stretched on each hull.
    factors = iter([2.0, 1.0, 1.0005, 1.002])

    def stretched(P):
        report = cross_check(P)
        entry = report.entries["lcp-wolfe"]
        distance = entry.result.distance * next(factors)
        report.entries["lcp-wolfe"] = dataclasses.replace(
            entry, result=dataclasses.replace(entry.result, distance=distance)
        )
        return report

    monkeypatch.setattr(consensus_sweep, "cross_check", stretched)
    assert consensus_sweep.main(["--count", "4", "--seed", "0"]) == 0
    assert (
        "silent deviation past 0.1 %: 2 of 3 hulls that agree outside (1 with an oracle, "
        "1 past 10 %); worst hull 0: lcp-wolfe at 2 times the reference\n"
    ) in capsys.readouterr().out


def test_lattice_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        consensus_sweep.main(["--lattice"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --lattice" in capsys.readouterr().err
