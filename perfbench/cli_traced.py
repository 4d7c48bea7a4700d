"""``python -m ppocp.cli`` with its import timed and its layers traced.

Usage: ``python perfbench/cli_traced.py <project arguments>``.  Prints one
JSON line with the exit code, the captured standard output, the spans and
the counts.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

start = perf_counter()
import ppocp.cli  # noqa: E402

imported = perf_counter()

from tracing import Tracer, install  # noqa: E402

tracer = Tracer()
tracer.spans.append(["cli.import", start, imported, None, None])
install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = tracer.call("cli.run", ppocp.cli.run, sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(), "spans": tracer.spans, "counts": tracer.counts}))
