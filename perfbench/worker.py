"""One workload in one fresh process: set up, warm up, time, check.

Started by ``run.py``.  Prints one JSON line: with ``--setup-only`` the
monotonic time at which set-up ended, otherwise the workload's measurements
and failure counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

import numpy as np

import workloads
from calibrate import Calibration

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CLI_TRACED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")


class Phase:
    """Whole passes over the corpus until the next pass would end past ``seconds``.

    A calibration kernel runs between operations on the same CPU, so every
    operation's time is kept both as measured and at reference speed
    (``calibrate.py``).  Outcomes are kept once per distinct answer, with a
    count, so that memory does not grow with the number of passes.
    """

    def __init__(self, ops, seconds, call, calibration):
        self.times = [[] for _ in ops]  # measured seconds
        self.scales = [[] for _ in ops]  # reference seconds per measured second
        self.outcomes = [{} for _ in ops]  # answer key -> [outcome, count]
        self.passes = 0
        start = perf_counter()
        kernel = calibration.seconds()
        while True:
            for i, op in enumerate(ops):
                t = perf_counter()
                try:
                    out = call(i, op)
                except Exception as err:  # counted as a failed operation
                    out = err
                self.times[i].append(perf_counter() - t)
                self.outcomes[i].setdefault(answer_key(op, out), [out, 0])[1] += 1
                before, kernel = kernel, calibration.seconds()
                self.scales[i].append(calibration.scale(before, kernel))
            self.passes += 1
            elapsed = perf_counter() - start
            if elapsed * (self.passes + 1) / self.passes > seconds:
                break

    @property
    def attempted(self):
        return self.passes * len(self.times)

    def op_seconds(self, reference=True):
        """Each operation's median time across passes."""
        if not reference:
            return [statistics.median(t) for t in self.times]
        return [
            statistics.median(t * s for t, s in zip(times, scales))
            for times, scales in zip(self.times, self.scales)
        ]

    def throughput_ops_s(self, reference=True):
        """Operations per second of a median pass."""
        return len(self.times) / sum(self.op_seconds(reference))

    def latency_gmean_ms(self, reference=True):
        """Geometric mean over the corpus: every instance weighs alike."""
        seconds = self.op_seconds(reference)
        return 1e3 * math.exp(sum(math.log(s) for s in seconds) / len(seconds))


def build(workload, seed, workdir):
    if workload == "cli-oneshot":
        import ppocp.cli  # noqa: F401  (part of set-up, as for every workload)

        return workloads.cli_oneshot(seed, workdir)
    import ppocp  # noqa: F401

    ops = {
        "consensus-small": workloads.consensus_small,
        "consensus-medium": workloads.consensus_medium,
        "tall-first-order": workloads.tall_first_order,
    }[workload](seed)
    from ppocp.core import Polyhedron

    for op in ops:
        op.polyhedron = Polyhedron(op.instance.vertices)
    return ops


def make_call(env, tracer=None):
    from ppocp import certify, maximin, simplex_qp, support_qp

    def call(i, op):
        # Functions are looked up at call time so the tracer's wrappers apply.
        if op.kind == "cli":
            if tracer is None:
                done = workloads.run_cli(op.argv, env)
                return done.returncode, done.stdout
            return traced_cli(tracer, i, op, env)
        fn = {
            "cross_check": lambda P: certify.cross_check(P),
            "wolfe": lambda P: simplex_qp.solve_wolfe(P),
            "dual": lambda P: support_qp.solve_dual(P),
            "maximin": lambda P: maximin.solve_maximin(P),
        }[op.kind]
        if tracer is None:
            return fn(op.polyhedron)
        tracer.op = i
        return tracer.call("op", fn, op.polyhedron)

    return call


def traced_cli(tracer, i, op, env):
    tracer.op = i
    index = len(tracer.spans)
    done = tracer.call(
        "op",
        subprocess.run,
        [sys.executable, CLI_TRACED, *op.argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if done.returncode != 0 and not done.stdout:
        return done.returncode, ""
    child = json.loads(done.stdout.strip().splitlines()[-1])
    tracer.merge(child["spans"], child["counts"], index)
    return child["code"], child["stdout"]


def warm_up(workload, ops, call):
    """Exercise every code path once on small inputs before timing."""
    if workload == "cli-oneshot":
        call(0, ops[0])
        return
    from ppocp import certify, maximin, simplex_qp, support_qp
    from ppocp.core import Polyhedron

    rng = np.random.default_rng(0)
    small = Polyhedron(workloads.separated(rng, 12, 6, workloads.SMALL_MARGIN))
    inside = Polyhedron(workloads.origin_inside(rng, 12, 6))
    for P in (small, inside):
        if workload == "tall-first-order":
            simplex_qp.solve_wolfe(P)
            support_qp.solve_dual(P)
            maximin.solve_maximin(P)
        else:
            certify.cross_check(P)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def answers_of(op, out):
    """(failure or None, [(label, Z, rho, says_inside)]) for one attempt."""
    if isinstance(out, Exception):
        return f"exception {type(out).__name__}", []
    Z = op.instance.vertices
    if op.kind == "cli":
        code, stdout = out
        if code != 0:
            return f"exit code {code}", []
        payload = json.loads(stdout)
        if payload["report"]["verdict"] != "agree":
            return "conflict", []
        rho = np.asarray(payload["rho"], dtype=float)
        if op.instance.point is not None:
            Z, rho = Z - op.instance.point, rho - op.instance.point
        return None, [("cli", Z, rho, payload["origin_inside"])]
    if op.kind == "cross_check":
        if out.verdict != "agree":
            return "conflict", []
        return None, [
            (name, Z, e.result.rho, e.result.origin_inside)
            for name, e in out.entries.items()
            if e.status == "ok"
        ]
    if op.kind == "dual":
        inside = out.status.value == "unbounded-below"
        rho = np.zeros(Z.shape[1]) if inside else out.rho
        return None, [("dual", Z, rho, inside)]
    return None, [(op.kind, Z, out.rho, out.origin_inside)]


def answer_key(op, out):
    """Equal for two outcomes that the checks cannot tell apart."""
    failure, answers = answers_of(op, out)
    if failure is not None:
        return failure
    return b"".join(np.asarray(rho, dtype=float).tobytes() + bytes([bool(inside)]) for _, _, rho, inside in answers)


def check_phase(ops, phase):
    """Failure accounting and independent checks, outside any timed region."""
    import checks
    from ppocp import certify

    failed = 0
    wrong = []
    base_rho = {}
    for op, outs in zip(ops, phase.outcomes):
        for out, count in outs.values():
            failure, answers = answers_of(op, out)
            if failure is None:
                failure = check_op(op, answers, base_rho, checks, certify)
                if failure is not None:
                    wrong.append(f"{op.name}: {failure}")
            if failure is not None:
                failed += count
    return failed, sorted(set(wrong))


def check_op(op, answers, base_rho, checks, certify):
    inst = op.instance
    for label, Z, rho, says_inside in answers:
        margin = inst.margin
        bad = checks.check_answer(Z, rho, says_inside, inst.inside, margin)
        if inst.base is not None and not bad:
            if inst.base.name not in base_rho:
                from ppocp.core import Polyhedron

                report = certify.cross_check(Polyhedron(inst.base.vertices))
                base_rho[inst.base.name] = report.rho if report.verdict == "agree" else None
            rho_base = base_rho[inst.base.name]
            if rho_base is None:
                bad = ["unscaled instance has no agreed answer"]
            else:
                bad = checks.check_scaled(rho, rho_base, inst.factor, Z)
        if bad:
            return f"{label} fails {', '.join(bad)}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=tuple(workloads.CALIBRATION), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        env = dict(os.environ)
        ops = build(args.workload, args.seed, workdir)
        call = make_call(env)
        warm_up(args.workload, ops, call)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        result = {}
        calibration = Calibration(workloads.CALIBRATION[args.workload])
        if args.trace:
            from tracing import Tracer, install, layer_metrics

            plain = Phase(ops, args.seconds / 2, call, calibration)
            tracer = Tracer()
            install(tracer)
            traced = Phase(ops, args.seconds / 2, make_call(env, tracer), calibration)
            tracer.restore()
            metrics = layer_metrics(tracer.spans, tracer.counts, traced.attempted)
            metrics["trace.overhead_pct"] = 100.0 * (
                1.0 - traced.throughput_ops_s() / plain.throughput_ops_s()
            )
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts, "metrics": metrics}, fh)
            phases = (plain, traced)
        else:
            phase = Phase(ops, args.seconds, call, calibration)
            metrics = {
                "throughput_ops_s": phase.throughput_ops_s(),
                "latency_gmean_ms": phase.latency_gmean_ms(),
                "peak_rss_mb": peak_rss_mb(args.workload),
            }
            result["measured"] = {
                "throughput_ops_s": phase.throughput_ops_s(reference=False),
                "latency_gmean_ms": phase.latency_gmean_ms(reference=False),
            }
            phases = (phase,)
        result["passes"] = [p.passes for p in phases]

        failed, wrong = 0, []
        for phase in phases:
            f, w = check_phase(ops, phase)
            failed += f
            wrong += w
        result.update(
            metrics=metrics,
            attempted=sum(p.attempted for p in phases),
            failed=failed,
            wrong=sorted(set(wrong)),
            ops_per_pass=len(ops),
        )
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
