"""The benchmark's answer checks catch wrong answers, and a timed phase runs
whole passes.

    python3 -m pytest perfbench -q
"""

import dataclasses

import numpy as np
import pytest

import checks
import worker
import workloads

TRIANGLE = np.array(workloads.TRIANGLE)
MARGIN = float(np.sqrt(2.0))


def test_exact_projection_passes():
    assert checks.check_answer(TRIANGLE, [1.0, 1.0], False, False, MARGIN) == []


def test_perturbed_rho_fails_the_vi_residual():
    # Inside the triangle but not its nearest point.
    assert checks.check_answer(TRIANGLE, [1.001, 1.0], False, False, MARGIN) == ["vi-residual"]


def test_point_outside_the_hull_fails():
    # Satisfies the VI inequalities but lies off the hull, and too close.
    failed = checks.check_answer(TRIANGLE, [0.9, 0.9], False, False, MARGIN)
    assert failed == ["in-hull", "membership"]


def test_flipped_membership_flag_fails():
    assert checks.check_answer(TRIANGLE, [1.0, 1.0], True, False, MARGIN) == ["membership"]
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert checks.check_answer(square, [0.0, 0.0], True, True, 0.0) == []
    assert checks.check_answer(square, [0.0, 0.0], False, True, 0.0) == ["membership"]


@pytest.mark.parametrize("factor", workloads.SCALES)
def test_tolerances_follow_the_scale(factor):
    Z = TRIANGLE * factor
    assert checks.check_answer(Z, [factor, factor], False, False, MARGIN * factor) == []
    off = [1.001 * factor, factor]
    assert checks.check_answer(Z, off, False, False, MARGIN * factor) == ["vi-residual"]
    assert checks.check_scaled([factor, factor], [1.0, 1.0], factor, Z) == []
    assert checks.check_scaled(off, [1.0, 1.0], factor, Z) == ["scale-equivariance"]


def test_generators_build_what_they_claim():
    rng = np.random.default_rng(3)
    z = workloads.separated(rng, 50, 6, 2.0)
    assert np.linalg.norm(z, axis=1).min() >= 2.0
    lam_inside = workloads.origin_inside(rng, 9, 4)
    assert checks.hull_residual(lam_inside, np.zeros(4)) <= 1e-12


def test_failure_accounting_counts_wrong_and_failed_attempts():
    from ppocp.core import Polyhedron
    from ppocp.simplex_qp import solve_wolfe

    inst = workloads.Instance("triangle", TRIANGLE, False, MARGIN)
    op = workloads.Operation(inst, "wolfe", polyhedron=Polyhedron(TRIANGLE))
    good = solve_wolfe(op.polyhedron)
    bad = dataclasses.replace(good, rho=good.rho + [1e-3, 0.0])

    def call(i, op):
        if i == 2:
            raise RuntimeError("boom")
        return (good, bad)[i]

    phase = worker.Phase([op, op, op], 0.0, call, _FixedKernel())
    failed, wrong = worker.check_phase([op, op, op], phase)
    assert failed == 2
    assert wrong == ["wolfe:triangle: wolfe fails vi-residual"]


class _FixedKernel:
    """Calibration stand-in whose kernel takes twice the reference time."""

    reference_s = 1.0

    def seconds(self):
        return 2.0

    def scale(self, before, after):
        return 2.0 * self.reference_s / (before + after)


def test_phase_runs_whole_passes_and_scales_to_reference_speed():
    inst = workloads.Instance("triangle", TRIANGLE, False, MARGIN)
    ops = [workloads.Operation(inst, "wolfe") for _ in range(3)]
    phase = worker.Phase(ops, 0.0, lambda i, op: RuntimeError("not run"), _FixedKernel())
    assert phase.passes == 1 and phase.attempted == 3
    measured = phase.op_seconds(reference=False)
    assert phase.op_seconds() == pytest.approx([t / 2.0 for t in measured])
    assert phase.throughput_ops_s() == pytest.approx(2.0 * phase.throughput_ops_s(reference=False))
    assert phase.latency_gmean_ms() == pytest.approx(phase.latency_gmean_ms(reference=False) / 2.0)
