"""The names that code outside a module reads from it.

``__all__`` and the package exports are read by users; the benchmark's
tracer (``perfbench/tracing.py``) replaces module attributes such as
``simplex_qp.gram_matrix`` by name, so an attribute it patches must stay
even where the module itself no longer calls it.
"""

import ast
import importlib
import os

import pytest

import ppocp

MODULES = (
    "certify", "cli", "core", "errors", "lcp", "maximin", "nnls", "simplex_qp", "support_qp"
)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"ppocp.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_every_package_export_resolves():
    tree = ast.parse(open(ppocp.__file__, encoding="utf-8").read())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(ppocp, n)] == []


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    mods = [importlib.import_module(f"ppocp.{name}") for name in MODULES]
    before = [dict(vars(mod)) for mod in mods]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = {
            (mod.__name__, attr)
            for mod, old in zip(mods, before)
            for attr, value in vars(mod).items()
            if old.get(attr) is not value
        }
    finally:
        tracer.restore()
    # The Gram-matrix imports that only the tracer reads are among them.
    for owner in ("simplex_qp", "support_qp", "maximin", "lcp"):
        assert (f"ppocp.{owner}", "gram_matrix") in patched
    for mod, old in zip(mods, before):
        now = vars(mod)
        assert set(now) == set(old), mod.__name__
        assert [a for a in old if now[a] is not old[a]] == [], mod.__name__
