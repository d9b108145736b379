"""Every exported function has a caller outside the tests.

A function in madic.__all__ must be used by the command line front end, by
a demo, or by other library code.  Imports and definitions do not count as
uses; only loaded names and attribute lookups do.
"""

import ast
import inspect
from pathlib import Path

import madic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "madic"


def _used_names(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").glob("*.py")
    used = set().union(*(_used_names(p) for p in files))
    exported = [
        name for name in madic.__all__ if inspect.isfunction(getattr(madic, name))
    ]
    assert exported
    assert sorted(set(exported) - used) == []
