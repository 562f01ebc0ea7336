"""Source hygiene: every module-level import in the package is read by its module.

An import that nothing reads is dead weight that hides which modules really
depend on which.  The check is stdlib ``ast`` only: a name bound by a
module-level ``import`` / ``from ... import`` must appear as a loaded name
somewhere in the same module (code or annotations).  ``__init__.py`` is
exempt, since its imports are the package's public exports.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexcoh"

# Imports that only the benchmark reads: perfbench/tracer.py wraps these names
# on the importing module.  The next change to the benchmark wraps them at
# their home module and drops them here and in the source.
READ_ONLY_BY_BENCHMARK = {
    ("extensions", "skew_mode"),
    ("cohomology", "quotient_dim"),
}


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
