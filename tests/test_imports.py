"""recexplain runs on the standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import recexplain

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "recexplain"}


def imported_modules(path):
    """The top-level name of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(recexplain.__file__).parent.rglob("*.py"))
    assert len(sources) > 1
    outside = {(path.name, name) for path in sources for name in imported_modules(path) if name not in ALLOWED}
    assert not outside
