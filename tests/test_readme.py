"""README's examples run as written: the "Library use" Python block, and
every ``diurnal`` command of the command-line walkthrough, in order."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from diurnal import read_panel, read_records
from diurnal.cli import cli
from diurnal.trend import read_trend_csv

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of a ``## title`` section, up to the next ``## `` heading."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S).group(1)


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def walkthrough_commands() -> list[list[str]]:
    """The arguments of each ``diurnal`` line of the walkthrough, with its
    continuation lines joined."""
    lines = "".join(_blocks(_section("Command-line walkthrough"), "sh"))
    commands = [shlex.split(line) for line in lines.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "diurnal"]


def test_walkthrough_runs_and_its_tables_read_back(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "impute", "aggregate", "trend", "contour", "cluster", "dcor", "radar"]
    for argv in commands:
        assert cli(argv) == 0, argv
    stations = sorted(read_records("data/records.csv"))
    assert len(stations) == 4
    filled = read_records("filled.csv")
    assert sorted(filled) == stations
    assert not any(s.missing.any() for s in filled.values())
    assert read_panel("panel.csv").stations == stations
    assert sorted(set(read_trend_csv("trend.csv").station_id)) == stations


def test_library_use_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks(_section("Library use"), "python")
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "dcor.csv").read_text().count("\n") == 4
