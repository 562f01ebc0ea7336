"""Source hygiene: the package's imports say which modules depend on which.

An import that nothing reads is dead weight that hides which modules really
depend on which.  The check is stdlib ``ast`` only: a name bound by a
module-level ``import`` / ``from ... import`` must appear as a loaded name
somewhere in the same module (code or annotations).  ``__init__.py`` is
exempt, since its imports are the package's public exports.

An import of the package inside a function hides a dependency the same way,
so each one must break a real import cycle.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexcoh"

# Imports that only the benchmark reads: perfbench/tracer.py wraps these names
# on the importing module.  The next change to the benchmark wraps them at
# their home module and drops them here and in the source.
READ_ONLY_BY_BENCHMARK = {("cohomology", "quotient_dim")}


# (module, function, imported module) of each function-level package import,
# each of which breaks a cycle: extensions imports cohomology at module level
CYCLE_BREAKING_IMPORTS = {("cohomology", "residual_items", "extensions")}


def _package_imports(path: Path) -> list[tuple[str | None, str]]:
    """(enclosing function or None, imported module) for every relative import."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((func, child.module))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                bound.append(name.split(".")[0])
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in loaded]


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused += [(path.stem, name) for name in _unused_imports(path)]
    assert sorted(set(unused) - READ_ONLY_BY_BENCHMARK) == []


def test_benchmark_only_imports_are_still_unused_and_resolvable():
    # the allowlist must not outlive its reason: each entry is still bound,
    # still unread by its module, and still resolves as the tracer expects
    for module, name in sorted(READ_ONLY_BY_BENCHMARK):
        assert name in _unused_imports(SRC / f"{module}.py")
        assert hasattr(importlib.import_module(f"vertexcoh.{module}"), name)


def test_guard_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: Mapping) -> int:\n"
        "    return os.getpid()\n"
    )
    assert _unused_imports(src) == ["Sequence"]


def test_function_level_imports_only_break_cycles():
    inner = {
        (path.stem, func, module)
        for path in sorted(SRC.glob("*.py"))
        for func, module in _package_imports(path) if func is not None
    }
    assert inner == CYCLE_BREAKING_IMPORTS
    # each exemption must still be needed: the imported module imports the
    # importing one at module level
    for module, _func, imported in CYCLE_BREAKING_IMPORTS:
        assert (None, module) in _package_imports(SRC / f"{imported}.py")


def test_guard_flags_a_function_level_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .spaces import GradedMap\n"
        "def f():\n"
        "    def g():\n"
        "        from .axioms import check_all\n"
        "    import json\n"
        "    return GradedMap\n"
    )
    assert _package_imports(src) == [(None, "spaces"), ("g", "axioms")]
