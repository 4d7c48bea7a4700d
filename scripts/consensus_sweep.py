#!/usr/bin/env python3
"""Sweep random instances through every route and tabulate agreement.

Example:

    python scripts/consensus_sweep.py --count 50 --max-m 12 --max-n 8 --seed 0
    python scripts/consensus_sweep.py --family lattice --count 150 --max-m 39 --max-n 7 --seed 1
    python scripts/consensus_sweep.py --family near-dependent --count 400 --seed 2026
    python scripts/consensus_sweep.py --family hunt --count 3000 --seed 0
    python scripts/consensus_sweep.py --family hunt-k3 --count 3000 --seed 0

Prints one line per instance (sizes, worst pairwise deviation, votes) and a
summary block; exits nonzero when any instance fails to reach consensus.
The summary counts a hull as ``origin inside`` only when every vote says
so, and counts split votes apart.  It sorts the conflicts by cause: an
error entry, a split vote (a hull can have both, and is counted under
each), or a pairwise deviation past the bound with neither.  A
conflict line names its dissenters: ``errors=`` lists the routes that ended
on an error, and on a split vote ``origin_inside=split`` is followed by
``inside=``, the routes that voted the origin inside.

The summary also counts silent deviations, which the verdict lets pass:
hulls that agree with every vote outside, where some route's distance is
more than 0.1 % off the reference distance.  The reference is the oracle's
distance when the oracle ran, else the median of the routes' distances.
That line names the worst such hull, its route and the route's ratio to
the reference; it does not change the exit code.
"""

import argparse
import sys
import time
import warnings

import numpy as np

from ppocp.certify import cross_check
from ppocp.core import Polyhedron


def make_instance(seed, max_m, max_n, box):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    return Polyhedron(rng.uniform(-box, box, size=(m, n)))


def lattice_instances(seed, count, max_m, max_n, shift):
    """Integer hulls: coordinates in {-2..2}, shifted by ``shift`` along the
    first axis, with 3 to ``max_m`` vertices in 2 to ``max_n`` dimensions.

    Exact ties, duplicate vertices and degenerate faces are common here, and
    float draws never give them.  All hulls come from one stream seeded by
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = rng.integers(3, max_m + 1), rng.integers(2, max_n + 1)
        z = rng.integers(-2, 3, size=(m, n)).astype(float)
        z[:, 0] += shift
        yield Polyhedron(z)


def near_dependent_instances(seed, count, box):
    """Square hulls, m = n in 2 to 6, whose last vertex nearly depends on
    the others: it is one of them, their centroid or a random convex
    combination of them, plus a Gaussian offset of scale ``10**U(-16, -9)``.
    The others are uniform in ``[-box, box]``.  All hulls come from one
    stream seeded by ``seed``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        z = rng.uniform(-box, box, size=(n - 1, n))
        kind = int(rng.integers(3))
        if kind == 0:
            w = np.eye(n - 1)[rng.integers(n - 1)]
        elif kind == 1:
            w = np.full(n - 1, 1.0 / (n - 1))
        else:
            w = rng.dirichlet(np.ones(n - 1))
        near = w @ z + 10.0 ** rng.uniform(-16, -9) * rng.normal(size=n)
        yield Polyhedron(np.vstack([z, near]))


def twelve_decade_instances(seed, count, box):
    """Origin-inside hulls whose vertex norms span 12 decades: 3 to 39
    vertices in 3 to 9 dimensions, the first closing a strictly positive
    combination through the origin (as ``perfbench/workloads.origin_inside``),
    then each row scaled by ``10**U(-6, 6)``.  All hulls come from one stream
    seeded by ``seed``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(3, 40)), int(rng.integers(3, 10))
        z = rng.uniform(-box, box, size=(m - 1, n))
        lam = rng.uniform(0.2, 1.0, size=m)
        z = np.vstack([-(lam[1:] @ z) / lam[0], z])
        yield Polyhedron(z * 10.0 ** rng.uniform(-6.0, 6.0, size=(m, 1)))


def hunt_instances(seed, count, k_max=12):
    """Small hulls with exact integer structure: 2 to 8 vertices in 1 to 4
    dimensions, integer coordinates in [-4, 4] plus integer noise in [-4, 4]
    times ``2**j``, j in [-40, -2], then each row scaled by ``2**k``, k in
    [-k_max, k_max].  Duplicate vertices and near-ties are common, and at
    the default ``k_max`` so are rows 24 binary decades apart.  All hulls
    come from one stream seeded by ``seed``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        z = rng.integers(-4, 5, size=(m, n)).astype(float)
        noise = rng.integers(-4, 5, size=(m, n)) * 2.0 ** rng.integers(-40, -1, size=(m, n))
        z = (z + noise) * 2.0 ** rng.integers(-k_max, k_max + 1, size=(m, 1))
        yield Polyhedron(z)


# Each family as a function of the parsed arguments; every one reads --seed
# and --count.
FAMILIES = {
    "uniform": lambda a: (
        make_instance(a.seed + i, a.max_m, a.max_n, a.box) for i in range(a.count)
    ),
    "lattice": lambda a: lattice_instances(a.seed, a.count, a.max_m, a.max_n, a.shift),
    "near-dependent": lambda a: near_dependent_instances(a.seed, a.count, a.box),
    "twelve-decade": lambda a: twelve_decade_instances(a.seed, a.count, a.box),
    "hunt": lambda a: hunt_instances(a.seed, a.count),
    "hunt-k0": lambda a: hunt_instances(a.seed, a.count, k_max=0),
    "hunt-k3": lambda a: hunt_instances(a.seed, a.count, k_max=3),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--max-m", type=int, default=12)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--box", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shift", type=float, default=3.0, help="lattice's shift along axis 1")
    parser.add_argument(
        "--family",
        choices=FAMILIES,
        default="uniform",
        help="hulls to sweep (default: uniform); besides --seed and --count, uniform reads "
        "--max-m, --max-n and --box, lattice --max-m, --max-n and --shift, near-dependent "
        "and twelve-decade --box, and the hunt families nothing else",
    )
    args = parser.parse_args(argv)
    # A numpy RuntimeWarning (overflow, invalid value, division by zero) ends
    # the sweep with a traceback, as pyproject.toml makes it fail a tier-1
    # test: a NaN or an overflow inside a route is a fault even when its
    # verdict still agrees.
    warnings.simplefilter("error", RuntimeWarning)
    instances = FAMILIES[args.family](args)

    conflicts = 0
    error_conflicts = 0
    split_error_conflicts = 0
    deviation_conflicts = 0
    inside_count = 0
    split_count = 0
    iteration_totals = {}
    agree_outside = 0
    silent = []  # (worst |ratio - 1|, hull, route, ratio, has an oracle) per hull
    start = time.perf_counter()
    for i, P in enumerate(instances):
        report = cross_check(P)
        ok = [e for e in report.entries.values() if e.status == "ok"]
        inside = any(report.votes.values())
        split = len(set(report.votes.values())) > 1
        inside_count += inside and not split
        split_count += split
        for name, entry in report.entries.items():
            if entry.status == "ok":
                iteration_totals.setdefault(name, []).append(entry.result.iterations)
        if report.verdict == "agree" and not inside:
            agree_outside += 1
            distances = {name: e.result.distance for name, e in report.entries.items()
                         if e.status == "ok"}
            oracle = distances.pop("oracle", None)
            reference = float(np.median(list(distances.values()))) if oracle is None else oracle
            route, ratio = max(((name, d / reference) for name, d in distances.items()),
                               key=lambda item: abs(item[1] - 1.0))
            if abs(ratio - 1.0) > 1e-3:
                silent.append((abs(ratio - 1.0), i, route, ratio, oracle is not None))
        label, marker = str(inside), ""
        if report.verdict != "agree":
            conflicts += 1
            dissent = []
            if split:
                label = "split"
                dissent.append("inside=" + ",".join(r for r, v in report.votes.items() if v))
            errors = [name for name, e in report.entries.items() if e.status == "error"]
            if errors:
                dissent.append("errors=" + ",".join(errors))
            error_conflicts += bool(errors)
            split_error_conflicts += split and bool(errors)
            deviation_conflicts += not (split or errors)
            marker = "".join(f" {d}" for d in dissent) + "  <-- CONFLICT"
        print(
            f"[{i:4d}] m={P.m:2d} n={P.n:2d} routes_ok={len(ok)} "
            f"max_dev={report.pairwise_max_deviation:.2e} "
            f"origin_inside={label:5s}{marker}"
        )
    elapsed = time.perf_counter() - start

    print("-" * 64)
    print(f"instances: {args.count}   conflicts: {conflicts}   "
          f"origin inside: {inside_count}   split: {split_count}   elapsed: {elapsed:.2f}s")
    print(f"conflicts by cause: error entry {error_conflicts}   split vote {split_count} "
          f"({split_error_conflicts} also with an error)   deviation only {deviation_conflicts}")
    worst = ""
    if silent:
        _, hull, route, ratio, _ = max(silent)
        worst = f"; worst hull {hull}: {route} at {ratio:.4g} times the reference"
    print(f"silent deviation past 0.1 %: {len(silent)} of {agree_outside} hulls that agree "
          f"outside ({sum(s[4] for s in silent)} with an oracle, "
          f"{sum(s[0] > 0.1 for s in silent)} past 10 %){worst}")
    print("mean iterations per route:")
    for name in sorted(iteration_totals):
        its = iteration_totals[name]
        print(f"  {name:11s} {np.mean(its):9.1f}  (max {max(its)})")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
