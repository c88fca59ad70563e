"""Every function and method in `src/entlink` is named somewhere in `src/`
or `perfbench/` outside its own definition, so code that only tests call
shows here and moves to `tests/`.

A name counts when it appears as a variable, an attribute or a string
constant that is exactly that identifier (the benchmark's tracer names the
functions it patches by string).  Docstrings and comments do not count.
Dunder methods and `__post_init__`, which Python calls by protocol, are
exempt.

Every parameter of those functions, `self` and `cls` aside, is read in
its body: a parameter nothing reads goes, with what its callers pass.
The one exception, `ALLOWED_UNUSED_PARAMETERS`, is the `fnet` of the two
loss tapes, which the benchmark's probes pass to both by position.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "entlink").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
ALLOWED_UNUSED_PARAMETERS = {("attention.py", "local_doc_loss_tape", "fnet"),
                             ("crf.py", "global_doc_loss_tape", "fnet")}


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


def test_every_parameter_is_read():
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({param})" for param in params
                       if param not in read and param not in ("self", "cls")
                       and (path.name, node.name, param) not in ALLOWED_UNUSED_PARAMETERS]
    assert not unread, unread
