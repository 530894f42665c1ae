"""The library imports only the standard library and numpy: scipy and the
other test tools stay test-only extras. CI's oldest job runs the lowest
Python that pyproject.toml allows."""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diurnal"
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


def test_oldest_ci_job_runs_the_python_floor():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", requires).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    # The job's lines are indented past its name, up to the next job or comment.
    job = re.search(r"^  tier1-oldest:\n((?:    .*\n|\s*\n)*)", workflow, re.M).group(1)
    assert re.search(r'python-version:\s*"?([\d.]+)"?', job).group(1) == floor
