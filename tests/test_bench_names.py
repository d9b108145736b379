"""Every library name the benchmark looks up resolves.

perfbench/ reaches the library as M.<layer>.<name>, and its traced run
counts calls by qualified name: calls_of, cross_calls and the tracer's
per-function hooks.  Deleting or renaming one of those names would break
the benchmark, or make a traced counter read zero without notice.  The test
only reads the benchmark's source.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
LAYERS = ("words", "patterns", "spaces", "reductions", "dense_types", "codec", "cli")


def _chain(node: ast.AST) -> list[str]:
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names[::-1]


def _lookups() -> tuple[set[str], set[str]]:
    """Dotted M.<layer>.<name> paths, and the qualified names the tracer
    counts calls of."""
    attrs: set[str] = set()
    traced: set[str] = set()
    for path in BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                chain = _chain(node)
                if "M" in chain[:-2]:
                    attrs.add(".".join(chain[chain.index("M") + 1 :]))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("calls_of", "cross_calls"):
                    traced.add(node.args[-1].value)
            elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
                pair = [e.value for e in node.elts if isinstance(e, ast.Constant)]
                if len(pair) == 2 and pair[0] in LAYERS:
                    traced.add(".".join(pair))
    return attrs, traced


ATTRS, TRACED = _lookups()


def test_lookups_are_found():
    assert len(ATTRS) >= 30
    assert "reductions.restrict_colors" in ATTRS
    assert "patterns.CombGenerator.over" in ATTRS
    assert "dense_types.permute_type" in TRACED
    assert "words.branch_meet_horizon" in TRACED


def test_attribute_lookups_resolve():
    missing = []
    for path in sorted(ATTRS):
        layer, *rest = path.split(".")
        obj = importlib.import_module(f"madic.{layer}")
        for name in rest:
            obj = getattr(obj, name, None)
        if layer not in LAYERS or obj is None:
            missing.append(path)
    assert missing == []


def test_traced_names_are_wrapped_functions():
    # The tracer wraps the public functions defined in each layer's module.
    missing = []
    for qualified in sorted(TRACED):
        layer, name = qualified.split(".")
        mod = importlib.import_module(f"madic.{layer}")
        fn = getattr(mod, name, None)
        public = not name.startswith("_") and inspect.isfunction(fn)
        if not public or fn.__module__ != mod.__name__:
            missing.append(qualified)
    assert missing == []
