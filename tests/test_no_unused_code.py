"""Every function and method in `src/entlink` is named somewhere in `src/`
or `perfbench/` outside its own definition, so code that only tests call
shows here and moves to `tests/`.

A name counts when it appears as a variable, an attribute or a string
constant that is exactly that identifier (the benchmark's tracer names the
functions it patches by string).  Docstrings and comments do not count.
Dunder methods and `__post_init__`, which Python calls by protocol, are
exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "entlink").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree) -> set[int]:
    """The ids of the docstring nodes of a module, its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _names(node, skip: set[int]) -> Counter:
    """How often each identifier is named under `node`."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in skip and _IDENTIFIER.fullmatch(sub.value):
            names[sub.value] += 1
    return names


def test_every_function_is_named_outside_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SCANNED}
    skips = {path: _docstrings(tree) for path, tree in trees.items()}
    named = sum((_names(tree, skips[path]) for path, tree in trees.items()), Counter())
    unused = []
    for path in SOURCES:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if named[node.name] - _names(node, skips[path])[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, unused
