"""Every public function and method has a caller outside the tests.

A function in madic.__all__ must be used by the command line front end, by
a demo, or by other library code.  A public module-level function of any
madic module and a public method defined in a class body must each be used
by library code, by a demo, or by the benchmark in perfbench/.  Imports and
definitions do not count as uses; only loaded names and attribute lookups
do, and a method counts as used only through an attribute lookup.  The
library holds no assert statement, which python -O would strip.  Each bad
input is refused once, where it is read or built, and only the command
line catches: outside cli.py the library has no try statement, and in
cli.py only _load_json (which names the file in read and JSON errors) and
main (which turns every ValueError into exit 3) have one.  Only words
raises AlphabetError, and only the comb generator's constructor raises
GeneratorExhaustedError.

The two space kinds answer the same rules.  No library line is longer than
88 columns, and no library module keeps an import it never loads.  The
test extra in pyproject.toml pins the versions that CI installs, and its
warning filters let a failing property test report as one failure.
"""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import madic
from madic.spaces import PartitionSpace, ScatteredSpace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "madic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _looked_up(path: Path) -> set[str]:
    """Names of the attribute lookups in the file."""
    tree = ast.parse(path.read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _used_names(path: Path) -> set[str]:
    """Loaded names and attribute lookups in the file."""
    return _looked_up(path).union(
        node.id
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


USED_BY_LIBRARY = set().union(*(_used_names(p) for p in MODULES + DEMOS))
USED = USED_BY_LIBRARY.union(*(_used_names(p) for p in BENCH))
LOOKED_UP = set().union(*(_looked_up(p) for p in MODULES + DEMOS + BENCH))


def _defined_functions(path: Path) -> list[str]:
    """Public module-level functions and public methods of class bodies, as
    module.function and module.Class.method."""
    tree = ast.parse(path.read_text())
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    out = [f"{path.stem}.{n.name}" for n in tree.body if isinstance(n, defs)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        out += [
            f"{path.stem}.{cls.name}.{n.name}"
            for n in cls.body
            if isinstance(n, defs)
        ]
    return [q for q in out if not q.rsplit(".", 1)[1].startswith("_")]


def test_every_exported_function_has_a_caller():
    exported = [
        name for name in madic.__all__ if inspect.isfunction(getattr(madic, name))
    ]
    assert exported
    assert sorted(set(exported) - USED_BY_LIBRARY) == []


def _has_caller(qualname: str) -> bool:
    """A function is called by name or as an attribute; a method only as an
    attribute, so a local variable of the same name does not count."""
    *owner, name = qualname.split(".")
    return name in (LOOKED_UP if len(owner) == 2 else USED)


def test_every_public_function_and_method_has_a_caller():
    defined = [q for p in MODULES for q in _defined_functions(p)]
    assert "codec.table_from_json" in defined
    assert "patterns.CombGenerator.tooth" in defined
    assert sorted(q for q in defined if not _has_caller(q)) == []


def _raises(path: Path) -> list[tuple[str | None, str]]:
    """The class named by each raise statement in the file, with where it is."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((getattr(exc, "id", None), f"{path.name}:{node.lineno}"))
    return out


def test_library_checks_survive_python_o():
    for path in MODULES + [SRC / "__init__.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
        for name, where in _raises(path):
            assert name != "AssertionError", where


TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))


def _names_with_try(path: Path) -> set[str]:
    """The top-level definitions holding a try statement ("<module>" for one
    outside every definition)."""
    return {
        getattr(node, "name", "<module>")
        for node in ast.parse(path.read_text()).body
        if any(isinstance(sub, TRY) for sub in ast.walk(node))
    }


def test_only_the_command_line_catches():
    for path in MODULES + [SRC / "__init__.py"]:
        expected = {"_load_json", "main"} if path.name == "cli.py" else set()
        assert _names_with_try(path) == expected, path.name


def test_only_words_raises_alphabet_error():
    # Other modules refuse a letter or an alphabet through words'
    # _check_letters and _same_alphabet.
    for path in MODULES + [SRC / "__init__.py"]:
        if path.name != "words.py":
            for name, where in _raises(path):
                assert name != "AlphabetError", where


def test_only_the_generator_refuses_a_finite_comb():
    # A comb whose letter does not recur is refused where it is built.
    found = [
        where
        for path in MODULES + [SRC / "__init__.py"]
        for name, where in _raises(path)
        if name == "GeneratorExhaustedError"
    ]
    assert len(found) == 1 and found[0].startswith("patterns.py:"), found


def _space_rules(cls) -> dict[str, str]:
    """Each rule the kind answers, read along its MRO up to object, with the
    class that defines it: "own" for the kind itself, else the base's name."""
    private = {"_node_value", "_pair_value"}
    rules = {}
    for owner in reversed(cls.__mro__[:-1]):
        for name, member in vars(owner).items():
            if (not name.startswith("_") or name in private) and (
                inspect.isfunction(member) or isinstance(member, property)
            ):
                rules[name] = "own" if owner is cls else owner.__name__
    return rules


def test_both_spaces_answer_the_same_rules():
    rules = _space_rules(PartitionSpace)
    assert {"value", "check_point", "_node_value", "_pair_value"} <= rules.keys()
    for shared in ("comb_limit", "check_point", "separation_arity"):
        assert rules[shared] == "Space"
    assert rules == _space_rules(ScatteredSpace)


def test_no_library_line_is_over_88_columns():
    for path in MODULES + [SRC / "__init__.py"]:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert len(line) <= 88, f"{path.name}:{number}"


def test_no_library_module_keeps_an_unused_import():
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused = sorted(imported - loaded)
        assert unused == [], f"{path.name}: {unused}"


def test_test_extra_pins_the_versions_ci_installs():
    # tomllib is not in Python 3.10, so both files are read as text.
    pin = re.compile(r"\b(pytest|hypothesis)==([\w.]+)")
    extra = re.search(r"^test = \[.*\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert extra is not None
    pinned = dict(pin.findall(extra.group()))
    assert pinned.keys() == {"pytest", "hypothesis"}
    assert pinned == dict(pin.findall(ci))


def test_failing_property_reports_as_one_failure(tmp_path):
    # With every warning an error, a deprecation raised inside Hypothesis's
    # report hook (mypy_extensions.TypedDict, where that module is
    # installed) stopped the session with an INTERNALERROR after the first
    # failing property.  The run starts in tmp_path, so .hypothesis/ stays
    # out of the repository.
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
