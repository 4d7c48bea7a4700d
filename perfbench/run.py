#!/usr/bin/env python3
"""Benchmark of ppocp: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload consensus-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
(``worker.py``) that imports ``ppocp`` from ``src``.  Set-up is timed in
five more fresh workers that stop once ready; ``setup_s`` is their median.
Times are reported at reference speed (``calibrate.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
# One BLAS thread: the machine has 2 shared vCPUs, and a single thread keeps
# both the timings and the floating-point reduction order steady.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_gmean_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "core.gram_matrix_bytes":
        return "bytes_computed"
    if name == "trace.overhead_pct":
        return "%"
    return "ms" if "_ms" in name else "count"


def worker_env():
    # No bytecode is written, so every run compiles ppocp alike, the first
    # one in a fresh checkout included, and the checkout stays unchanged.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu():
    """Keep this process and its workers on the lowest CPU they may use.

    Calibration and timed operation then share a CPU, for the CLI's child
    processes too; the two vCPUs of a shared machine change speed apart.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(args, env):
    """Run one worker; returns its JSON result and the monotonic time it started."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {args} timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"worker {args} failed with exit code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, started


def setup_seconds(common, env, calibration):
    """Set-up time of a fresh worker at reference speed.

    Set-up runs from just before the worker starts to the moment it is
    ready to time its first operation: interpreter start, imports, building
    the corpus and warm-up.  That is interpreted code, so it is scaled by the
    interpreter kernel on every workload.
    """
    before = calibration.seconds()
    result, started = spawn([*common, "--seconds", "0", "--setup-only"], env)
    return (result["ready"] - started) * calibration.scale(before, calibration.seconds())


def main(argv=None):
    # Before NumPy is first imported here or in a worker.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import workloads
    from calibrate import Calibration

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.CALIBRATION), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ppocp", "__init__.py")):
        print(f"error: no ppocp sources under {ROOT}/src", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if not args.trace:
        calibration = Calibration("interp")
        setups = [setup_seconds(common, env, calibration) for _ in range(SETUP_SAMPLES)]
    result, _ = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env)

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["metrics"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    print(f"workload {args.workload}  seed {args.seed}  blas_threads {BLAS_THREADS}  "
          f"nproc {os.cpu_count()}  cpu {cpu}  operations per pass {result['ops_per_pass']}  "
          f"passes {result['passes']}  calibration {workloads.CALIBRATION[args.workload]}")
    measured = result.get("measured", {})
    for name, m in metrics.items():
        note = f"  (measured {measured[name]:.4f})" if name in measured else ""
        print(f"  {name:38s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for line in result["wrong"]:
        print(f"  WRONG ANSWER {line}")
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
