"""Source checks on `src/omex`: the library is stdlib-only (pyproject.toml
declares no dependencies), leaves no self-recursive closure behind, and
keeps per-object caches in `cached_property`s, not in `__dict__`."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "omex"


def test_library_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: {name}"


def _deleted_names(func) -> set[str]:
    """Names a `del` in a `finally` block of `func` deletes: only such a
    `del` runs on every exit, an exception included."""
    return {target.id for node in ast.walk(func) if isinstance(node, ast.Try)
            for stmt in node.finalbody for sub in ast.walk(stmt)
            if isinstance(sub, ast.Delete)
            for target in sub.targets if isinstance(target, ast.Name)}


def test_no_nested_function_calls_itself():
    # a closure that calls itself by name refers to itself through its
    # enclosing cell, so each call of the outer function leaves a
    # reference cycle that only the cyclic collector frees; one the outer
    # function deletes in a `finally` block is let go at once, whether the
    # outer function returns or raises
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, functions):
                    continue
                recursive = any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name for node in ast.walk(inner))
                if recursive and inner.name not in _deleted_names(outer):
                    found.append(f"{path.name}: {outer.name}.{inner.name}")
    assert found == []


def test_no_code_reaches_into_an_instance_dict():
    # a cache written into `__dict__` by hand is a second, unchecked way to
    # add state to a frozen dataclass; `functools.cached_property` is the one
    # way, and keeps the cache out of the fields all the same
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__dict__"]
    assert found == []
