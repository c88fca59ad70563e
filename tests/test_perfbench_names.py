"""The benchmark harness under `perfbench/` imports, patches and calls
entlink by name.  This loads its modules by path, without running them,
and checks that every name the tracer patches still exists, so a rename
in entlink shows here and not first in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    # registered under its bare name for the run of one test, as the
    # harness imports it (workloads imports paperdata that way)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    return {name: _load(name, monkeypatch)
            for name in ("paperdata", "tracing", "probes", "workloads")}


def test_traced_targets_exist(perfbench):
    tracing = perfbench["tracing"]
    assert tracing.TRACED_FUNCTIONS and tracing.TRACED_METHODS
    for module, name, _ in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"entlink.{module}"), name, None)), \
            f"entlink.{module}.{name}"
    for module, cls, name, _ in tracing.TRACED_METHODS:
        owner = getattr(importlib.import_module(f"entlink.{module}"), cls)
        assert name in owner.__dict__, f"entlink.{module}.{cls}.{name}"
