"""Spans and counts taken from outside the program.

The tracer replaces functions at the module attributes through which the
program calls them (``ppocp.certify.solve_wolfe``, ``ppocp.simplex_qp.
gram_matrix``, ...) with wrappers that record a span per call: name, start,
end, parent span and operation id.  Spans stay in memory until the run
ends.  Counts are taken from the arguments and results at the same
boundaries.  Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# Per-layer metric -> span name whose inclusive time it reports.
TIME_METRICS = {
    "cli.import_ms": "cli.import",
    "cli.run_ms": "cli.run",
    "certify.cross_check_ms": "certify.cross_check",
    "certify.check_optimality_ms": "certify.check_optimality",
    "certify.reference_projection_ms": "certify.reference_projection",
    "simplex_qp.solve_wolfe_ms": "simplex_qp.solve_wolfe",
    "support_qp.solve_dual_ms": "support_qp.solve_dual",
    "maximin.solve_maximin_ms": "maximin.solve_maximin",
    "lcp.build_lcp_ms": "lcp.build_lcp",
    "lcp.extract_projection_ms": "lcp.extract_projection",
    "lcp.lemke_solve_ms.primal-split": "lcp.lemke_solve.primal-split",
    "lcp.lemke_solve_ms.wolfe-kkt": "lcp.lemke_solve.wolfe-kkt",
    "lcp.lemke_solve_ms.dual-orthant": "lcp.lemke_solve.dual-orthant",
    "nnls.project_via_nnls_ms": "nnls.project_via_nnls",
    "core.gram_matrix_ms": "core.gram_matrix",
    "core.refine_simplex_minimizer_ms": "core.refine_simplex_minimizer",
    "trace.op_ms": "op",
}
# Per-layer metric -> span name whose self time it reports.
SELF_METRICS = {"certify.self_ms": "certify.cross_check"}
COUNT_METRICS = (
    "simplex_qp.solve_wolfe_iterations",
    "support_qp.solve_dual_iterations",
    "maximin.solve_maximin_iterations",
    "lcp.lemke_pivots.primal-split",
    "lcp.lemke_pivots.wolfe-kkt",
    "lcp.lemke_pivots.dual-orthant",
    "nnls.applicable_ops",
    "nnls.iterations",
    "core.gram_matrix_calls",
    "core.gram_matrix_bytes",
    "core.refine_simplex_minimizer_calls",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr``; ``name`` may be a function of the arguments."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            result = self.call(span, original, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def merge(self, spans, counts, parent):
        """Adopt spans recorded in a child process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end, parent if up is None else up + offset, self.op])
        for key, value in counts.items():
            self.counts[key] += value


def _count_gram(counts, result, P):
    counts["core.gram_matrix_calls"] += 1
    counts["core.gram_matrix_bytes"] += 8 * P.m * P.m  # computed, not measured


def _count_refine(counts, result, *args, **kwargs):
    counts["core.refine_simplex_minimizer_calls"] += 1


def _count_iterations(metric):
    def count(counts, result, *args, **kwargs):
        counts[metric] += result.iterations

    return count


def _count_pivots(counts, result, L, *args, **kwargs):
    counts[f"lcp.lemke_pivots.{L.variant.value}"] += result.pivots


def _count_nnls(counts, result, *args, **kwargs):
    if result is not None:
        counts["nnls.applicable_ops"] += 1
        counts["nnls.iterations"] += result.iterations


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on."""
    mod = {
        name: importlib.import_module(f"ppocp.{name}")
        for name in ("certify", "cli", "simplex_qp", "support_qp", "maximin", "lcp")
    }
    for owner in ("certify", "cli"):
        tracer.wrap(mod[owner], "cross_check", "certify.cross_check")
    tracer.wrap(mod["cli"], "check_optimality", "certify.check_optimality")
    tracer.wrap(mod["certify"], "reference_projection", "certify.reference_projection")
    routes = (
        ("simplex_qp", "solve_wolfe", "simplex_qp.solve_wolfe_iterations"),
        ("support_qp", "solve_dual", "support_qp.solve_dual_iterations"),
        ("maximin", "solve_maximin", "maximin.solve_maximin_iterations"),
    )
    for home, fn, metric in routes:
        for owner in ("certify", home):
            tracer.wrap(mod[owner], fn, f"{home}.{fn}", _count_iterations(metric))
    tracer.wrap(mod["certify"], "build_lcp", "lcp.build_lcp")
    tracer.wrap(mod["certify"], "extract_projection", "lcp.extract_projection")
    tracer.wrap(
        mod["certify"],
        "lemke_solve",
        lambda L, *a, **k: f"lcp.lemke_solve.{L.variant.value}",
        _count_pivots,
    )
    tracer.wrap(mod["certify"], "project_via_nnls", "nnls.project_via_nnls", _count_nnls)
    for owner in ("simplex_qp", "support_qp", "maximin", "lcp"):
        tracer.wrap(mod[owner], "gram_matrix", "core.gram_matrix", _count_gram)
    for owner in ("simplex_qp", "maximin"):
        tracer.wrap(
            mod[owner], "refine_simplex_minimizer", "core.refine_simplex_minimizer", _count_refine
        )


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-operation layer times (ms) and counts from a traced phase."""
    total = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    own = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        own[name] += (end - start) - child[index]
    metrics = {m: 1e3 * total[s] / ops for m, s in TIME_METRICS.items()}
    metrics.update({m: 1e3 * own[s] / ops for m, s in SELF_METRICS.items()})
    metrics.update({m: counts.get(m, 0.0) / ops for m in COUNT_METRICS})
    return metrics
