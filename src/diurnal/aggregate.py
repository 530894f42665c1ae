"""Hour-of-day aggregation over multi-day calendar windows.

Hourly readings are grouped into (year, window, hour-of-day) cells and
averaged. Four window calendars are supported:

* ``10d``   36 windows per year: days 1-10, 11-20 and 21-end of each month.
* ``30d``   12 windows per year, one per calendar month.
* ``60da``  6 two-month windows starting Jan-Feb.
* ``60db``  6 two-month windows starting Dec-Jan; December readings join
            the following January, so the Dec-Jan window of panel year Y
            covers Dec of year Y and Jan of year Y+1.

The third ten-day window is labeled ``21-31`` for every month even when the
month is shorter; labels stay comparable across months and years that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Iterable

import numpy as np

from ._util import (Piece, check_rows, csv_pieces, csv_prefix, factorize, fmt_column,
                    parse_floats, parse_ints, read_blocks, unique_runs, write_blocks)
from .errors import ContractError, EmptyInputError, ParseError
from .impute import MONTH_ABBR
from .ingest import TemperatureSeries, time_fields

SCALES = ("10d", "30d", "60da", "60db")

PANEL_HEADER = ("station_id", "scale", "year", "window_label", "hour", "mean_temp", "valid")


@dataclass
class WindowCalendar:
    """Maps (month, day) to a window position for one aggregation scale."""

    scale: str
    labels: list[str]
    # month (1-12) -> window index for whole-month scales; the 10d scale
    # additionally splits on day-of-month in window_index().
    _month_window: np.ndarray = field(repr=False, default=None)
    _year_offset: np.ndarray = field(repr=False, default=None)

    @property
    def n_windows(self) -> int:
        return len(self.labels)

    def window_index(self, months: np.ndarray, days: np.ndarray) -> np.ndarray:
        idx = self._month_window[months - 1]
        if self.scale == "10d":
            decade = np.minimum((days - 1) // 10, 2)
            idx = idx * 3 + decade
        return idx

    def panel_years(self, years: np.ndarray, months: np.ndarray) -> np.ndarray:
        return years - self._year_offset[months - 1]


def build_calendar(scale: str) -> WindowCalendar:
    if scale not in SCALES:
        raise ContractError(f"unknown scale {scale!r}, expected one of {SCALES}")
    offsets = np.zeros(12, dtype=np.int64)
    if scale == "10d":
        labels = []
        for abbr in MONTH_ABBR:
            labels += [f"{abbr}01-10", f"{abbr}11-20", f"{abbr}21-31"]
        month_window = np.arange(12)
    elif scale == "30d":
        labels = list(MONTH_ABBR)
        month_window = np.arange(12)
    elif scale == "60da":
        labels = [f"{MONTH_ABBR[m]}-{MONTH_ABBR[m + 1]}" for m in range(0, 12, 2)]
        month_window = np.arange(12) // 2
    else:  # 60db: Dec-Jan, Feb-Mar, ..., Oct-Nov
        labels = ["Dec-Jan"] + [f"{MONTH_ABBR[m]}-{MONTH_ABBR[m + 1]}" for m in range(1, 11, 2)]
        month_window = (np.arange(1, 13) % 12) // 2
        # January readings belong to the Dec-Jan window opened the year before.
        offsets[0] = 1
    return WindowCalendar(scale, labels, month_window, offsets)


_CALENDARS = {scale: build_calendar(scale) for scale in SCALES}
# Seasonal position of each window label, per scale.
_WINDOWS = {scale: {label: i for i, label in enumerate(cal.labels)}
            for scale, cal in _CALENDARS.items()}


def window_index(scale: tuple, label: tuple) -> np.ndarray:
    """Each row's window position in its scale's calendar, from the scale
    and label fields each given as (distinct texts, index of each row's
    text), as ``factorize`` or ``unique_runs`` give them; looked up once per
    distinct (scale, label) pair. -1 where the scale is not one of
    ``SCALES`` or the label is not of its scale."""
    (scales, scale_code), (labels, label_code) = scale, label
    pairs, pair_code = unique_runs(scale_code * len(labels) + label_code)
    window = [_WINDOWS.get(scales[p // len(labels)], {}).get(labels[p % len(labels)], -1)
              for p in pairs.tolist()]
    return np.array(window, dtype=np.int64)[pair_code]


@dataclass
class WindowHourPanel:
    """Per-station (year, window, hour-of-day) mean temperatures.

    ``means`` has shape (len(years), n_windows, 24) with NaN where no
    reading contributed; ``counts`` holds the contributing reading count.
    """

    station_id: str
    scale: str
    years: list[int]
    labels: list[str]
    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        shape = (len(self.years), len(self.labels), 24)
        if self.means.shape != shape or self.counts.shape != shape:
            raise ContractError(f"panel arrays must have shape {shape}")

    def cell_valid(self) -> np.ndarray:
        return self.counts > 0


def hourly_window_means(series: TemperatureSeries, calendar: WindowCalendar,
                        *, skip_missing: bool = False) -> WindowHourPanel:
    """Aggregate an hourly series into a window/hour panel.

    The series is normally expected to be gap-free (imputed first); masked
    slots raise unless ``skip_missing`` is set, in which case they are simply
    left out of the means.
    """
    if series.step != timedelta(hours=1):
        raise ContractError(f"aggregation needs an hourly series, got step {series.step}")
    if series.n == 0:
        raise EmptyInputError("cannot aggregate an empty series")
    if series.missing.any() and not skip_missing:
        raise ContractError(
            f"station {series.station_id}: series has masked slots; impute first "
            "or pass skip_missing=True")
    years, months, days, hours = time_fields(series.index64())
    widx = calendar.window_index(months, days)
    pyears = calendar.panel_years(years, months)
    uniq_years = np.unique(pyears)
    ypos = np.searchsorted(uniq_years, pyears)
    nW = calendar.n_windows
    flat = (ypos * nW + widx) * 24 + hours
    size = len(uniq_years) * nW * 24
    keep = ~series.missing
    sums = np.bincount(flat[keep], weights=series.values[keep], minlength=size)
    counts = np.bincount(flat[keep], minlength=size).astype(np.int64)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    shape = (len(uniq_years), nW, 24)
    return WindowHourPanel(series.station_id, calendar.scale,
                           [int(y) for y in uniq_years], list(calendar.labels),
                           means.reshape(shape), counts.reshape(shape))


def year_series(panel: WindowHourPanel, window_label: str, hour: int) -> tuple[np.ndarray, np.ndarray]:
    """The across-years sequence for one (window, hour) cell.

    Returns (years, means) with invalid years dropped; both arrays are in
    ascending year order.
    """
    if window_label not in panel.labels:
        raise ContractError(f"unknown window label {window_label!r} for scale {panel.scale}")
    if not 0 <= hour <= 23:
        raise ContractError(f"hour {hour} out of range 0-23")
    w = panel.labels.index(window_label)
    valid = panel.counts[:, w, hour] > 0
    years = np.asarray(panel.years, dtype=np.int64)[valid]
    return years, panel.means[valid, w, hour]


def write_panel(path: str | Path, panels: Iterable[WindowHourPanel]) -> None:
    """Write panels as CSV rows, one per (station, year, window, hour).

    Invalid cells keep their row with an empty mean and valid=0 so the grid
    shape survives the round trip. Each panel is one block of
    ``write_blocks``, its columns rendered by ``fmt_column`` from its
    (year, window, hour) grid.
    """
    write_blocks(path, PANEL_HEADER,
                 map(_panel_pieces, sorted(panels, key=lambda p: p.station_id)))


def _panel_pieces(p: WindowHourPanel) -> list[Piece]:
    """The ``write_blocks`` pieces of a panel's rows."""
    year, window, hour = np.indices(p.means.shape).reshape(3, -1)
    ok = (p.counts > 0).ravel()
    return [csv_prefix(p.station_id, p.scale), *csv_pieces([
        fmt_column(np.asarray(p.years, np.int64)[year]),
        fmt_column(np.array(p.labels, dtype=object)[window]), fmt_column(hour),
        fmt_column(np.where(ok, p.means.ravel(), np.nan)), fmt_column(ok)])]


def read_panel(path: str | Path) -> dict[str, WindowHourPanel]:
    """Read a panel CSV back into per-station panels.

    Counts are reduced to the valid flag on the way out, so a re-read panel
    reports count 1 for every valid cell. Besides malformed fields, a row
    with an hour outside 0-23, a valid flag other than 0 or 1, a label
    outside its scale or a valid cell without a finite mean raises
    ``ParseError`` with its line, the first bad row of the file; so does a
    second row for the same (station, year, window, hour) cell, once every
    row has been read.
    """
    scale_of: dict[str, str] = {}
    codes: dict[str, int] = {}
    parts = []
    with open(path, "rb") as fh:
        for block in read_blocks(fh, len(PANEL_HEADER)):
            if not len(block.line_no):
                continue
            sid, scale, year, label, hour, mean, valid = block.columns
            names, station = factorize(sid)
            scales, scale_code = factorize(scale)
            # Each station keeps the scale of its first row in the file.
            first = np.unique(station, return_index=True)[1]
            kept = np.array([scale_of.get(name, scales[scale_code[i]])
                             for name, i in zip(names, first)])
            window = window_index((scales, scale_code), factorize(label))
            year, year_bad = parse_ints(year)
            hour, hour_bad = parse_ints(hour, bound=24)
            value, mean_bad = parse_floats(mean)
            flags, flag = factorize(valid)
            valid = (np.array(flags) == "1")[flag]
            check_rows(block, [
                (~np.isin(scales, SCALES)[scale_code],
                 lambda row: f"unknown scale {row[1].strip()!r}"),
                (np.array(scales)[scale_code] != kept[station],
                 lambda row: f"station {row[0].strip()} appears under two scales"),
                (year_bad | hour_bad | mean_bad, lambda row: "malformed year, hour or mean"),
                ((hour < 0) | (hour > 23), lambda row: f"hour {int(row[4])} out of range 0-23"),
                (~np.isin(flags, ("0", "1"))[flag],
                 lambda row: f"valid flag {row[6].strip()!r} is not 0 or 1"),
                (window < 0, lambda row: f"label {row[3].strip()!r} does not belong to "
                                         f"scale {row[1].strip()}"),
                (valid & ~np.isfinite(value),
                 lambda row: f"valid cell with non-finite mean {row[5].strip()!r}"),
            ])
            for name, sc in zip(names, kept.tolist()):
                scale_of.setdefault(name, sc)
            code = np.array([codes.setdefault(name, len(codes)) for name in names], np.int64)
            parts.append((code[station], year, window, hour, value, valid, block.line_no))
    if not parts:
        raise EmptyInputError(f"no panel rows found in {path}")
    return _build_panels(list(codes), scale_of, *map(np.concatenate, zip(*parts)))


def _build_panels(names: list[str], scale_of: dict[str, str], code: np.ndarray,
                  year: np.ndarray, window: np.ndarray, hour: np.ndarray,
                  value: np.ndarray, valid: np.ndarray,
                  line_no: np.ndarray) -> dict[str, WindowHourPanel]:
    """Per-station panels from every panel row: one stable sort of a cell key
    (station, year, window, hour) finds repeated cells and each station's
    rows, which are then scattered onto its (year, window, hour) grid."""
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), np.int64)
    rank[by_name] = np.arange(len(names))
    station = rank[code]
    # Ranked (station, year) pairs keep the key below 864 x rows in int64 (a
    # pair's code is below rows ** 2). The stable sort keeps a cell's rows in
    # file order, and is adaptive: write_panel's files come in key order.
    pair = unique_runs(station * len(year) + unique_runs(year)[1])[1]
    key = (pair * 36 + window) * 24 + hour
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = order[1:][key[1:] == key[:-1]]
    if len(repeat):
        k = repeat[np.argmin(line_no[repeat])]
        sid = names[code[k]]
        label = _CALENDARS[scale_of[sid]].labels[window[k]]
        raise ParseError(f"station {sid}: second row for year {year[k]}, window {label}, "
                         f"hour {hour[k]}", int(line_no[k]))
    bounds = np.searchsorted(station[order], np.arange(len(names) + 1))
    out = {}
    for r, c in enumerate(by_name):
        rows = order[bounds[r]:bounds[r + 1]]
        sid = names[c]
        cal = _CALENDARS[scale_of[sid]]
        years, yi = np.unique(year[rows], return_inverse=True)
        shape = (len(years), cal.n_windows, 24)
        means = np.full(shape, np.nan)
        counts = np.zeros(shape, dtype=np.int64)
        v = valid[rows]
        cell = (yi[v], window[rows][v], hour[rows][v])
        means[cell] = value[rows][v]
        counts[cell] = 1
        out[sid] = WindowHourPanel(sid, cal.scale, [int(y) for y in years],
                                   list(cal.labels), means, counts)
    return out
