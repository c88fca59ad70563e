"""The benchmark harness under `perfbench/` imports, patches and calls
entlink by name.  This loads its modules by path, without running them,
and checks that every name the tracer patches still exists, so a rename
in entlink shows here and not first in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from entlink.experiment import ExperimentConfig

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


def _entlink_bindings(tree) -> dict:
    """The objects that `from entlink[.module] import name [as alias]` binds."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "entlink":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(owner, alias.name, None)
                if obj is None:  # a submodule: `from entlink import attention`
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = obj
    return bound


def _resolve(node, bound):
    """The entlink object an expression `a.b.c` names, its dotted text, or None
    when its root is not an entlink binding; a missing attribute fails."""
    if isinstance(node, ast.Name):
        return (bound[node.id], node.id) if node.id in bound else None
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound)
        if base is not None:
            obj, text = base
            text = f"{text}.{node.attr}"
            assert hasattr(obj, node.attr), f"{text} does not exist"
            return getattr(obj, node.attr), text
    return None


def _is_cfg(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "cfg") or \
        (isinstance(node, ast.Attribute) and node.attr == "cfg")


@pytest.mark.parametrize("module", ["paperdata", "probes", "workloads"])
def test_called_entlink_names_and_keywords_exist(module):
    # every entlink attribute the harness reaches through an imported name
    # still exists, and every call of an entlink callable without `*`/`**`
    # arguments binds to its signature: an unknown keyword or a dropped
    # positional parameter shows here
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text(encoding="utf-8"))
    bound = _entlink_bindings(tree)
    assert bound
    calls = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, bound)
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, bound)
        if target is None:
            continue
        calls += 1
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(kw.arg is None for kw in node.keywords):
            continue
        try:
            inspect.signature(target[0]).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{target[1]} at line {node.lineno}: {exc}")
    assert calls


@pytest.mark.parametrize("module", ["probes", "workloads"])
def test_experiment_config_fields_used_exist(module):
    # the keywords given to ExperimentConfig(...) and replace(cfg, ...), and
    # the fields read as cfg.<name>, are ExperimentConfig fields
    names = {f.name for f in fields(ExperimentConfig)}
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "ExperimentConfig") or \
                    (isinstance(func, ast.Name) and func.id == "replace"
                     and node.args and _is_cfg(node.args[0])):
                used |= {kw.arg for kw in node.keywords}
        elif isinstance(node, ast.Attribute) and _is_cfg(node.value):
            used.add(node.attr)
    assert used
    assert used <= names, sorted(used - names)
