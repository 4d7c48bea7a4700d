"""Command-line front end: load an instance, run routes, emit certificates.

Input instances are JSON documents ``{"vertices": [[...], ...]}`` with one
row per vertex; all rows share a length and every number is a finite IEEE
double in decimal text.  Results are printed to stdout as JSON (default) or
text, with floats rendered at 17 significant digits so output is byte
stable for a fixed input and flag set.

Exit codes: 0 success (including a mathematically inapplicable nnls route),
2 invalid input or usage, 3 solver non-convergence, 4 any cross-route or
internal consistency conflict, including a printed certificate with a
failed check.

A ``gen`` subcommand emits random test instances; the environment variable
``PPOCP_SEED`` fixes its seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .certify import ROUTES, check_optimality, cross_check, run_route
from .core import DEFAULT_TOLERANCES, Polyhedron, ToleranceConfig, translate
from .errors import (
    InconsistentOutcome,
    InternalInconsistency,
    MaxIterExceeded,
    PivotLimitExceeded,
    PpocpError,
)

METHODS = (*ROUTES, "all")


def _json_text(obj) -> str:
    """Serialize with floats at 17 significant digits and fixed field order."""
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # A non-finite float (a residual past the double range) is JSON null.
        return format(float(obj), ".17g") if np.isfinite(obj) else "null"
    return json.dumps(obj)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name!r} in instance file")


def _load_instance(path: str) -> Polyhedron:
    with open(path, "r", encoding="utf-8") as fh:
        # Integers parse as doubles, so a literal beyond the double range is
        # infinite, as 1e400 is, and fails the finite-coordinates check.
        doc = json.load(fh, parse_int=float, parse_constant=_reject_constant)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValueError('instance file must be an object with a "vertices" key')
    rows = doc["vertices"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("vertices must be a nonempty list of rows")
    lengths = set()
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        ):
            raise ValueError("every vertex must be a list of numbers")
        lengths.add(len(row))
    if len(lengths) != 1 or lengths == {0}:
        raise ValueError("all vertex rows must share the same positive length")
    return Polyhedron(np.array(rows, dtype=float))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="project",
        description="Project the origin (or --point) onto the convex hull of "
        "the given vertices.",
    )
    parser.add_argument("--input", required=True, help="instance JSON file")
    parser.add_argument("--method", default="all", choices=METHODS)
    parser.add_argument("--tol", type=float, help="optimality residual bound")
    parser.add_argument("--feas-tol", type=float, help="constraint violation bound")
    parser.add_argument("--zero-tol", type=float, help="origin-membership threshold")
    parser.add_argument("--max-iter", type=int, help="iteration budget")
    d = DEFAULT_TOLERANCES
    parser.set_defaults(
        tol=d.opt_tol, feas_tol=d.feas_tol, zero_tol=d.zero_tol, max_iter=d.max_iter
    )
    parser.add_argument(
        "--point",
        type=float,
        nargs="+",
        metavar="X",
        help="project this point instead of the origin",
    )
    parser.add_argument("--output", default="json", choices=("json", "text"))
    parser.add_argument("--verbose", action="store_true")
    return parser


def _build_gen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="project gen", description="Generate a random test instance."
    )
    parser.add_argument("--m", type=int, required=True, help="vertex count")
    parser.add_argument("--n", type=int, required=True, help="ambient dimension")
    parser.add_argument("--box", type=float, default=5.0, help="coordinate half-width")
    return parser


def _certificate_payload(cert) -> dict:
    payload = {
        "passed": cert.passed,
        "vi_min": cert.vi_min,
        "zero_inside": cert.zero_inside,
        "checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual}
            for c in cert.checks
        ],
        "alpha_witness": None
        if cert.alpha_witness is None
        else list(cert.alpha_witness),
    }
    return payload


def _shifted(rho, shift):
    """``rho``, solved on the instance translated by ``--point``, in the original frame."""
    return rho if shift is None else rho + shift


def _report_payload(report, shift) -> dict:
    routes = {}
    for name, entry in report.entries.items():
        if entry.status == "ok":
            r = entry.result
            routes[name] = {
                "status": "ok",
                "rho": list(_shifted(r.rho, shift)),
                "distance": r.distance,
                "iterations": r.iterations,
                "vi_min": r.vi_min,
                "origin_inside": r.origin_inside,
            }
        elif entry.status == "not-applicable":
            routes[name] = {"status": "not-applicable"}
        else:
            routes[name] = {"status": "error", "error": entry.error}
    return {
        "verdict": report.verdict,
        "pairwise_max_deviation": report.pairwise_max_deviation,
        "votes": {k: v for k, v in sorted(report.votes.items())},
        "routes": routes,
    }


def _result_payload(result, certificate, shift, report=None) -> dict:
    payload = {
        "rho": list(_shifted(result.rho, shift)),
        "distance": result.distance,
        "route": result.route.value if report is None else "consensus",
        "origin_inside": result.origin_inside,
        "certificate": _certificate_payload(certificate),
    }
    if report is not None:
        payload["report"] = _report_payload(report, shift)
    return payload


def _certificate_exit(certificate) -> int:
    """Exit 0 for a passing printed certificate; else name its failed checks and exit 4."""
    if certificate.passed:
        return 0
    failed = ", ".join(c.name for c in certificate.checks if not c.passed)
    print(f"error: consistency conflict: certificate fails {failed}", file=sys.stderr)
    return 4


def _render_text(payload):
    def emit(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{key}.{k}" if key else str(k), v)
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            for i, v in enumerate(value):
                emit(f"{key}[{i}]", v)
        else:
            print(f"{key} = {_json_text(value)}")

    emit("", payload)


def _emit(payload, fmt: str):
    if fmt == "json":
        print(_json_text(payload))
    else:
        _render_text(payload)


def _run_gen(argv) -> int:
    parser = _build_gen_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    # rng.uniform(-box, box) needs the width 2 box to be a finite double.
    if ns.m < 1 or ns.n < 1 or not 0 < ns.box <= np.finfo(float).max / 2:
        print("error: need m >= 1, n >= 1, box > 0 and 2 box finite", file=sys.stderr)
        return 2
    seed = int(os.environ.get("PPOCP_SEED", "0"))
    rng = np.random.default_rng(seed)
    try:
        vertices = rng.uniform(-ns.box, ns.box, size=(ns.m, ns.n))
    except (MemoryError, ValueError) as err:  # numpy refuses before touching memory
        print(f"error: {ns.m} x {ns.n} instance too large: {err}", file=sys.stderr)
        return 2
    _emit({"vertices": [list(row) for row in vertices]}, "json")
    return 0


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "gen":
        return _run_gen(argv[1:])
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)

    try:
        P = _load_instance(ns.input)
        cfg = ToleranceConfig(
            feas_tol=ns.feas_tol, opt_tol=ns.tol, zero_tol=ns.zero_tol, max_iter=ns.max_iter
        )
    except (OSError, ValueError, RecursionError) as err:  # json recurses per nesting level
        print(f"error: {err}", file=sys.stderr)
        return 2

    shift = None
    work = P
    if ns.point is not None:
        shift = np.asarray(ns.point, dtype=float)
        try:
            work = translate(P, shift)
        except ValueError as err:
            print(f"error: --point: {err}", file=sys.stderr)
            return 2

    try:
        if ns.method == "all":
            report = cross_check(work, cfg)
            headline = report.headline
            if headline is None:
                print("error: every route failed", file=sys.stderr)
                return 4
            certificate = check_optimality(work, headline.rho, alpha=headline.alpha, cfg=cfg)
            payload = _result_payload(headline, certificate, shift, report=report)
            _emit(payload, ns.output)
            if report.verdict != "agree":
                print("error: cross-route consensus conflict", file=sys.stderr)
                return 4
            return _certificate_exit(certificate)

        result = run_route(ns.method, work, cfg, verbose=ns.verbose)
        if result is None:
            _emit({"status": "not-applicable"}, ns.output)
            return 0
        certificate = check_optimality(work, result.rho, alpha=result.alpha, cfg=cfg)
        _emit(_result_payload(result, certificate, shift), ns.output)
        return _certificate_exit(certificate)
    except (MaxIterExceeded, PivotLimitExceeded) as err:
        print(f"error: solver did not converge: {err}", file=sys.stderr)
        return 3
    except (InternalInconsistency, InconsistentOutcome) as err:
        print(f"error: consistency conflict: {err}", file=sys.stderr)
        return 4
    except PpocpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
