"""The library surface: every function and method defined in src/propring
is referenced by name somewhere else in src/propring or bench/, so the
library holds no function that only the tests reach.

The pass is by name: a reference is an identifier, an attribute, or a
string constant made of dotted identifiers (bench/spans.py names the
functions it wraps that way).  References inside a function's own body
do not count for it, so a function that only calls itself is caught.
Dunders are exempt: the interpreter calls them."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "propring").glob("*.py"))
CORPUS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def references(node) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def unreferenced(trees: dict) -> list[str]:
    """'file:line name' for each function or method defined in a source
    tree whose name no other part of the corpus references."""
    total = Counter()
    for tree in trees.values():
        total += references(tree)
    out = []
    for path in SOURCES:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - references(node)[name] <= 0:
                out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_every_library_function_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CORPUS}
    assert unreferenced(trees) == []


def test_an_unreferenced_helper_is_reported():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CORPUS}
    gf = ROOT / "src" / "propring" / "gf.py"
    trees[gf].body.append(ast.parse("def in_span(vec):\n    return in_span(vec)\n").body[0])
    assert [e.split()[1] for e in unreferenced(trees)] == ["in_span"]
