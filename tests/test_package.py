"""Source checks on `src/omex`: the library is stdlib-only (pyproject.toml
declares no dependencies), leaves no self-recursive closure behind, keeps
per-object caches in `cached_property`s, not in `__dict__`, reads the
`gen_edges` budget only in `limits.py`, and still has every name the
benchmark in `bench/` patches or calls, exports only names that something
outside the tests uses, uses every private helper it defines, and reads
every name it imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "omex"
BENCH = ROOT / "bench"


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


def test_only_the_limits_module_reads_the_edge_budget():
    # `charge_edges` and `check_draw_bits` are the one charge to `gen_edges`,
    # so every generated graph refuses and names its count the same way
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "limits.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "gen_edges"]
    assert found == []


def _resolves(dotted: str) -> bool:
    """Whether `dotted` names a module, or an attribute path inside one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _dotted(node) -> str | None:
    """`a.b.c` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def test_every_name_the_benchmark_patches_exists():
    # bench/tracing.py wraps each (owner, attribute) of TARGETS in a span
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    names = [".".join(ast.literal_eval(entry.elts[0]).split(":")
                      + [ast.literal_eval(entry.elts[1])])
             for entry in targets.elts]
    assert len(names) > 20
    assert [name for name in names if not _resolves(name)] == []


def test_every_omex_name_the_workloads_call_exists():
    # bench/workloads.py reaches omex through module aliases; every
    # `<alias>.<name>` chain on one of them must still resolve
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if top == "omex":
                    aliases[alias.asname or top] = (
                        alias.name if alias.asname else top)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.partition(".")[0] == "omex"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        dotted = _dotted(node)
        if isinstance(node, ast.Attribute) and dotted is not None:
            head, _, rest = dotted.partition(".")
            if head in aliases:
                names.add(f"{aliases[head]}.{rest}")
    names.update(aliases.values())
    assert len(names) > 20
    assert sorted(name for name in names if not _resolves(name)) == []


def test_every_public_name_has_a_use_outside_the_tests():
    # a name `omex` exports is used by the library beyond its own
    # definition, by the benchmark, or promised by the README; one that
    # only the tests use belongs in tests/conftest.py
    exported = {alias.asname or alias.name
                for node in ast.parse((SRC / "__init__.py").read_text(
                    encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    text = "\n".join(path.read_text(encoding="utf-8")
                     for path in [*sorted(BENCH.glob("*.py")),
                                  ROOT / "README.md"])
    words = set(re.findall(r"\w+", text))
    assert len(exported) > 40
    assert sorted(exported - used - words) == []


def test_every_private_helper_has_a_use_in_the_library():
    # a module-level `_name` is referenced in `src/omex` beyond its own
    # definition; a helper that only the tests use belongs in tests/
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [sub.id for target in node.targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            defined.update(f"{path.name}: {name}" for name in names
                           if name.startswith("_")
                           and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert len(defined) > 10
    assert sorted(entry for entry in defined
                  if entry.partition(": ")[2] not in used) == []


def test_every_import_is_used():
    # a module-level import that its module never reads is dead weight on
    # every import of the package; `__init__.py` imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno}: {name}"
                           for name in (alias.asname or alias.name.split(".")[0]
                                        for alias in node.names)
                           if name not in read]
    assert unused == []
