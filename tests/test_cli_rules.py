"""The CLI only parses arguments: every ``raise`` in ``cli.py`` sits in an
argument or config parser, so each pipeline rule lives in the library, where
a library caller meets it too."""

from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "diurnal" / "cli.py"
PARSERS = {"_choice_arg", "_weights_arg", "_int_arg", "_load_config", "_config_defaults", "cli"}
# An I/O rule: the directory holds no file for radar to read.
IO_RULES = {("_run_radar", "no clusters_<Mon>.csv files found in {}")}


def _message(exc: ast.expr | None) -> str | None:
    """The text of a raised call's first argument, each formatted value as
    ``{}``; None for anything else."""
    if not (isinstance(exc, ast.Call) and exc.args):
        return None
    arg = exc.args[0]
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(str(v.value) if isinstance(v, ast.Constant) else "{}"
                       for v in arg.values)
    return None


def raises(source: str) -> list[tuple[str, str | None]]:
    """(enclosing top-level function, message) of each ``raise`` of a
    module, in source order; a ``raise`` outside any function counts as
    ``<module>``."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else "<module>"
        nodes = sorted((node for node in ast.walk(top) if isinstance(node, ast.Raise)),
                       key=lambda node: node.lineno)
        found += [(name, _message(node.exc)) for node in nodes]
    return found


def test_cli_raises_only_in_its_parsers():
    found = raises(CLI.read_text(encoding="utf-8"))
    assert [r for r in found if r[0] not in PARSERS and r not in IO_RULES] == []


def test_the_scan_sees_raises():
    assert raises("def f():\n    def g(y):\n        raise E(f'x {y} z')\n"
                  "    raise\nraise E('m')\n") == [("f", "x {} z"), ("f", None),
                                                  ("<module>", "m")]
    found = raises(CLI.read_text(encoding="utf-8"))
    assert IO_RULES <= set(found)
    assert {name for name, _ in found} >= {"_choice_arg", "_load_config", "cli"}
