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


def table_subscripts(trees: dict) -> list[str]:
    """'file:line' of each subscript of an .add or .mul attribute, the
    q x q operation tables of gf.GF, outside gf.py."""
    return [f"{path.relative_to(ROOT)}:{node.lineno}"
            for path, tree in trees.items() if path.name != "gf.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("add", "mul")]


def test_only_gf_reads_the_field_tables():
    # F_q arithmetic has one owner: elsewhere it goes through gf's kernels
    # or the p-adic ring
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CORPUS}
    assert table_subscripts(trees) == []
    modules = ROOT / "src" / "propring" / "modules.py"
    trees[modules].body.append(ast.parse("x = field.add[a, field.neg[b]]").body[0])
    assert table_subscripts(trees) == ["src/propring/modules.py:1"]


def test_every_cache_is_bounded():
    # lru_cache(maxsize=None) and functools.cache grow without limit, so
    # they may wrap only a function of no arguments, which holds one entry;
    # the per-config caches hold more configs than the queries workload's 6
    from propring import algebra, gf, groups, padic

    cached = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in map(ast.unparse, node.decorator_list):
                if dec == "functools.cache" or dec.startswith("functools.lru_cache"):
                    cached.add(node.name)
                    bounded = (dec.startswith("functools.lru_cache(maxsize=")
                               and dec != "functools.lru_cache(maxsize=None)")
                    assert bounded or not node.args.args, f"{path.name}:{node.lineno} {node.name}"
    per_config = (algebra._algebra, groups._model, gf.gf, gf.irreducible_lift,
                  padic.zq_ring, padic.quat_context)
    assert {fn.__name__ for fn in per_config} < cached
    assert all(fn.cache_parameters()["maxsize"] > 6 for fn in per_config)
