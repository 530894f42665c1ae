"""The library imports only the standard library and numpy: scipy and the
other test tools stay test-only extras."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diurnal"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports of a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert imported_modules(path) - ALLOWED == set()


def test_the_scan_sees_imports():
    assert {"numpy", "csv"} <= imported_modules(PACKAGE / "_util.py")
    assert "scipy" in imported_modules(Path(__file__).with_name("oracles.py")) - ALLOWED
