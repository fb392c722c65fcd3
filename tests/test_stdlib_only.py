"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tunnelmeet"


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not a relative import
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = {}
    for path in modules:
        found = _top_level_imports(path) - sys.stdlib_module_names - {"tunnelmeet"}
        if found:
            outside[path.name] = sorted(found)
    assert outside == {}
    assert "fractions" in _top_level_imports(PACKAGE / "graph_model.py")  # the walk sees imports
