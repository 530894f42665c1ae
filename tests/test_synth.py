"""The synthetic network against the station loop that ``diurnal synth``
once ran itself: the same series bit for bit, the same metadata, and the
same files."""

from __future__ import annotations

from dataclasses import astuple
from datetime import datetime

import pytest

import oracles
from diurnal import synth_network, write_metadata, write_records
from diurnal.cli import build_parser, cli
from helpers import HALF_HOUR

# Each case: the options of ``diurnal synth`` and the keywords that give
# ``synth_network`` the same options, any other left at its default. The
# first case sets none, so it checks that the defaults agree.
CASES = [
    ((), {}),
    (("--step", "30m", "--missing-rate", "0.05", "--trend-spread", "0.01",
      "--group-spread", "2"),
     {"step": HALF_HOUR, "missing_rate": 0.05, "trend_spread": 0.01, "group_spread": 2.0}),
    (("--stations", "130", "--years", "1"), {"n_stations": 130, "n_years": 1}),
    (("--noise-sd", "0", "--start-year", "1999"),
     {"noise_sd": 0.0, "start": datetime(1999, 1, 1)}),
]
IDS = ["defaults", "30m-gaps-spread", "130-stations", "no-noise-1999"]


def _loop(options):
    """The former loop's series and metadata for ``diurnal synth``'s options."""
    return oracles.synth_network_loop(build_parser().parse_args(
        ["synth", "--out-dir", "unused", *options]))


@pytest.mark.parametrize("options,keywords", CASES, ids=IDS)
def test_network_matches_former_loop(options, keywords):
    keywords = dict(keywords)
    series, metas = synth_network(keywords.pop("n_stations", 6),
                                  keywords.pop("start", datetime(2000, 1, 1)), **keywords)
    want_series, want_metas = _loop(options)
    assert len(series) == len(want_series)
    for got, want in zip(series, want_series):
        assert (got.station_id, got.start, got.step) == (want.station_id, want.start, want.step)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.missing.tobytes() == want.missing.tobytes()
    assert [repr(astuple(m)) for m in metas] == [repr(astuple(m)) for m in want_metas]


@pytest.mark.parametrize("options", [options for options, _ in CASES], ids=IDS)
def test_cli_writes_former_loop_files(options, tmp_path):
    assert cli(["synth", "--out-dir", str(tmp_path / "cli"), *options]) == 0
    series, metas = _loop(options)
    write_records(tmp_path / "records.csv", series)
    write_metadata(tmp_path / "metadata.csv", metas)
    for name in ("records.csv", "metadata.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_options_after_start_are_keyword_only():
    with pytest.raises(TypeError):
        synth_network(2, datetime(2000, 1, 1), 3)
