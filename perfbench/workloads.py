"""Seeded corpora and the operations of the four benchmark workloads.

Every instance records what its generator built (origin inside the hull or
separated from it by a known margin), so answers can be checked without
trusting the program.  Shapes are fixed per workload; the seed draws only
the coordinates, so peak memory and the mix of work do not move with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

BOX = 5.0
SMALL_MARGIN = 0.5
# Tall separated hulls sit BOX away from the origin.  Over eight seeds the
# Frank-Wolfe iteration count of a separated 1000x20 instance varied with a
# coefficient of variation of 0.18 at a margin of 0.5 and of 0.07 at BOX;
# Frank-Wolfe is most of the time spent on these instances.
TALL_MARGIN = BOX
# Exact powers of two, so a scaled instance is the base instance to the bit.
SCALES = (2.0**17, 2.0**-14)
# Base instances of the scaled slice come from this fixed seed, not from the
# workload seed: their failures are a known fault and must not vary by seed.
SCALED_SLICE_SEED = 20160517
TRIANGLE = [[2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]
# The calibration kernel (calibrate.py) that slows down as each workload
# does: interpreter start, imports and small-array calls dominate the first
# three, matrix-vector products on the Gram matrix the last.
CALIBRATION = {
    "cli-oneshot": "interp",
    "consensus-small": "interp",
    "consensus-medium": "interp",
    "tall-first-order": "memory",
}


@dataclass(frozen=True)
class Instance:
    name: str
    vertices: np.ndarray
    inside: bool  # the generator placed the origin inside the hull
    margin: float  # the hull lies in {x : <d, x> >= margin} when separated
    base: "Instance | None" = None  # unscaled original of a scaled-slice instance
    factor: float = 1.0
    point: np.ndarray | None = None  # CLI --point; the checks shift by it


@dataclass
class Operation:
    """One timed call.  ``kind`` selects how the benchmark reads its outcome."""

    instance: Instance
    kind: str  # "cross_check", "wolfe", "dual", "maximin" or "cli"
    argv: list | None = None  # CLI arguments
    polyhedron: object = None  # ppocp.Polyhedron, built during set-up

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.instance.name}"


def separated(rng, m, n, margin):
    """Uniform box shifted along a random unit ``d`` until min <d, z_i> = margin."""
    z = rng.uniform(-BOX, BOX, size=(m, n))
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    return z + (margin - float(np.min(z @ d))) * d


def origin_inside(rng, m, n):
    """First vertex closes a strictly positive combination through the origin."""
    z = rng.uniform(-BOX, BOX, size=(m - 1, n))
    lam = rng.uniform(0.2, 1.0, size=m)
    return np.vstack([-(lam[1:] @ z) / lam[0], z])


def _family(rng, shapes, prefix, margin):
    out = []
    for m, n in shapes:
        out.append(Instance(f"{prefix}sep{m}x{n}", separated(rng, m, n, margin), False, margin))
    return out


def _inside(rng, shapes, prefix):
    return [
        Instance(f"{prefix}in{m}x{n}", origin_inside(rng, m, n), True, 0.0)
        for m, n in shapes
    ]


# consensus-small: m > n, m <= n (nnls applies when separated) and m <= 4
# (the oracle runs).  Each shape is drawn SMALL_COPIES times: solve_dual
# needs over 500 iterations on about one small hull in 500 (7191 at most, in
# a sample of 8000), and more copies make such a hull a smaller share.
_SMALL_SHAPES = [(12, 8), (10, 6), (9, 3), (7, 2), (6, 8), (5, 7), (3, 5), (4, 2), (4, 3), (3, 2)]
SMALL_COPIES = 6
_SCALED_SHAPES = [(10, 6), (8, 4), (6, 3), (4, 2)]
# No origin-inside medium hulls: on them the lcp-dual route returns an error
# for some seeds (one 60x20 hull in 400, about one 100x30 hull in ten; see
# CHANGES.md), and a failure that depends on the seed cannot be counted
# steadily.  Twelve copies of each shape average out how Lemke's pivot count
# varies with the seed; one pass fills a run.
_MEDIUM_SEPARATED = [(60, 20), (100, 30), (20, 40), (40, 60)]
MEDIUM_COPIES = 12
# solve_dual is timed on origin-inside tall hulls only: on separated ones its
# iteration count has a heavy tail (mostly 40 to 300, but 1393 and one 4.2 s
# solve over about forty seeds; see CHANGES.md), which one run cannot average
# out.  For the same reason there is no separated 2000x20 hull.
_TALL_SEPARATED = [(1000, 20)] * 3
_TALL_INSIDE = [(1000, 20)] * 4 + [(2000, 20)]
TALL_SEPARATED_ROUTES = ("wolfe", "maximin")
TALL_INSIDE_ROUTES = ("wolfe", "dual", "maximin")


def consensus_small(seed):
    rng = np.random.default_rng(seed)
    corpus = []
    for copy in range(SMALL_COPIES):
        corpus += _family(rng, _SMALL_SHAPES, f"c{copy}-", SMALL_MARGIN)
        corpus += _inside(rng, _SMALL_SHAPES, f"c{copy}-")
    fixed = np.random.default_rng(SCALED_SLICE_SEED)
    bases = _family(fixed, _SCALED_SHAPES, "base-", SMALL_MARGIN) + _inside(
        fixed, _SCALED_SHAPES, "base-"
    )
    for factor in SCALES:
        for b in bases:
            corpus.append(
                Instance(
                    f"{b.name}*2^{int(np.log2(factor))}",
                    b.vertices * factor,
                    b.inside,
                    b.margin * factor,
                    base=b,
                    factor=factor,
                )
            )
    return [Operation(inst, "cross_check") for inst in corpus]


def consensus_medium(seed):
    rng = np.random.default_rng(seed)
    corpus = []
    for copy in range(MEDIUM_COPIES):
        corpus += _family(rng, _MEDIUM_SEPARATED, f"c{copy}-", SMALL_MARGIN)
    return [Operation(inst, "cross_check") for inst in corpus]


def tall_first_order(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for i, (m, n) in enumerate(_TALL_SEPARATED):
        inst = Instance(f"sep{m}x{n}-{i}", separated(rng, m, n, TALL_MARGIN), False, TALL_MARGIN)
        ops += [Operation(inst, route) for route in TALL_SEPARATED_ROUTES]
    for i, (m, n) in enumerate(_TALL_INSIDE):
        inst = Instance(f"in{m}x{n}-{i}", origin_inside(rng, m, n), True, 0.0)
        ops += [Operation(inst, route) for route in TALL_INSIDE_ROUTES]
    return ops


def cli_oneshot(seed, workdir):
    """Instance files for ``project --method all``; one call adds ``--point``."""
    rng = np.random.default_rng(seed)
    corpus = [
        # conv{(2,0), (0,2), (2,2)} lies in {x1 + x2 >= 2}: margin sqrt(2).
        Instance("triangle", np.array(TRIANGLE), False, float(np.sqrt(2.0))),
        Instance("sep12x8", separated(rng, 12, 8, SMALL_MARGIN), False, SMALL_MARGIN),
        Instance("in12x8", origin_inside(rng, 12, 8), True, 0.0),
        Instance("sep6x12", separated(rng, 6, 12, SMALL_MARGIN), False, SMALL_MARGIN),
    ]
    # p = -2c for the centroid c: the hull lies in {<d, x> >= 0.5} and so
    # does c, hence the hull shifted by -p lies in {<d, x> >= 1.5}.
    z = corpus[1].vertices
    point = -2.0 * z.mean(axis=0)
    corpus.append(Instance("sep12x8+point", z, False, 3.0 * SMALL_MARGIN, point=point))
    ops = []
    for inst in corpus:
        path = os.path.join(workdir, f"{inst.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": inst.vertices.tolist()}, fh)
        argv = ["--input", path, "--method", "all"]
        if inst.point is not None:
            argv += ["--point", *[repr(float(x)) for x in inst.point]]
        ops.append(Operation(inst, "cli", argv))
    return ops


def run_cli(argv, env):
    """``python -m ppocp.cli`` with ``argv``, as a user runs it."""
    return subprocess.run(
        [sys.executable, "-m", "ppocp.cli", *argv], capture_output=True, text=True, env=env, check=False
    )
