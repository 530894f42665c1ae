"""The library imports only the standard library and numpy: scipy and the
other test tools stay test-only extras. CI's oldest job runs the lowest
Python that pyproject.toml allows, and the deep property tests select only
tests that exist."""

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


def deep_test_selections() -> list[tuple[list[str], set[str]]]:
    """``(test files, -k terms)`` of each step of the deep-tests action
    that selects tests by name."""
    action = ROOT / ".github" / "actions" / "deep-tests" / "action.yml"
    out = []
    for line in action.read_text(encoding="utf-8").splitlines():
        if "pytest" in line and (k := re.search(r'-k (?:"([^"]*)"|(\S+))', line)):
            terms = set(re.findall(r"\w+", k.group(1) or k.group(2))) - {"or", "and", "not"}
            out.append((re.findall(r"tests/\S+\.py", line), terms))
    return out


def test_deep_tests_select_only_defined_tests():
    # A renamed class or function would drop out of the 400-example run
    # with nothing failing: each -k term must name a test class or function
    # of the files that its step runs.
    selections = deep_test_selections()
    assert {"TestDcorKernel", "TestWindowProfiles"} <= set().union(*(t for _, t in selections))
    for files, terms in selections:
        defined = {node.name for f in files
                   for node in ast.walk(ast.parse((ROOT / f).read_text(encoding="utf-8")))
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert files and terms - defined == set(), files
