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

from ._util import (Piece, by_station, check_rows, csv_pieces, csv_prefix, factorize,
                    fmt_column, parse_floats, parse_ints, repeats, station_blocks, unique_runs,
                    write_blocks)
from .errors import ContractError, EmptyInputError, ParseError
from .impute import MONTH_ABBR
from .ingest import TemperatureSeries, binned_means, day_fields

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


def window_index(scale: tuple, label: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each row's scale position in ``SCALES`` and window position in its
    scale's calendar, from the scale and label fields each given as
    (distinct texts, index of each row's text), as ``factorize`` or
    ``unique_runs`` give them; looked up once per distinct (scale, label)
    pair. Both are -1 where the scale is not one of ``SCALES``, and the
    window is -1 where the label is not of its scale."""
    (scales, scale_code), (labels, label_code) = scale, label
    pairs, pair_code = unique_runs(scale_code * len(labels) + label_code)
    found = [(SCALES.index(sc), _WINDOWS[sc].get(labels[p % len(labels)], -1))
             if (sc := scales[p // len(labels)]) in SCALES else (-1, -1)
             for p in pairs.tolist()]
    scale_index, window = np.array(found, np.int64).reshape(-1, 2)[pair_code].T
    return scale_index, window


@dataclass
class WindowHourPanel:
    """Per-station (year, window, hour-of-day) mean temperatures.

    ``means`` has shape (len(years), n_windows, 24) with NaN where no
    reading contributed; ``counts`` holds the contributing reading count.
    ``years`` is strictly increasing: the trend tests read its axis as time.
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
        if any(a >= b for a, b in zip(self.years, self.years[1:])):
            raise ContractError(f"station {self.station_id}: panel years must be strictly "
                                f"increasing, got {self.years}")

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
    # Each day's (panel year, window) cell is found once; a slot's bin is
    # its day's cell and its hour.
    (years, months, days), slot_day, hours = day_fields(series.index64())
    uniq_years, ypos = np.unique(calendar.panel_years(years, months), return_inverse=True)
    nW = calendar.n_windows
    day_cell = (ypos * nW + calendar.window_index(months, days)) * 24
    means, counts = binned_means(day_cell[slot_day] + hours, series.values, ~series.missing,
                                 len(uniq_years) * nW * 24)
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
    valid = panel.cell_valid()[:, w, hour]
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
    ok = p.cell_valid().ravel()
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

    Each block's rows are checked and then scattered onto one grid
    (``_PanelGrid``), which holds a mean, a seen mark and a valid flag per
    cell; the block's columns are dropped once it is scattered.
    """
    scale_of = []  # each station's position in SCALES, by station number

    def parse(block, station):
        _, scale, year, label, hour, mean, valid = block.columns
        scale_index, window = window_index(factorize(scale), factorize(label))
        # Each station keeps the scale of its first row in the file; the
        # stations first seen in this block hold the numbers after the others.
        numbers, first = np.unique(station, return_index=True)
        scale_of.extend(scale_index[first[numbers >= len(scale_of)]].tolist())
        year, year_bad = parse_ints(year)
        hour, hour_bad = parse_ints(hour, bound=24)
        value, mean_bad = parse_floats(mean)
        flags, flag = factorize(valid)
        valid = (np.array(flags) == "1")[flag]
        check_rows(block, [
            (scale_index < 0, lambda row: f"unknown scale {row[1].strip()!r}"),
            (scale_index != np.array(scale_of)[station],
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
        return year, window, hour, value, valid

    numbers: dict[str, int] = {}
    grid = _PanelGrid()
    repeat = None  # the error of the first repeated cell of the file
    for block, station in station_blocks(path, len(PANEL_HEADER), "panel rows", numbers):
        year, window, hour, value, valid = parse(block, station)
        if repeat is not None:
            continue
        width = max(_CALENDARS[SCALES[i]].n_windows for i in scale_of)
        k = grid.scatter(station, year, window, hour, value, valid, width)
        if k >= 0:
            sid = list(numbers)[station[k]]
            label = _CALENDARS[SCALES[scale_of[station[k]]]].labels[window[k]]
            repeat = ParseError(f"station {sid}: second row for year {year[k]}, "
                                f"window {label}, hour {hour[k]}", int(block.line_no[k]))
    if repeat is not None:
        raise repeat
    return grid.panels(list(numbers), [_CALENDARS[SCALES[i]] for i in scale_of])


class _PanelGrid:
    """The cells of a panel file as its blocks are read. A grid row is one
    (station number, year) pair, numbered in order of first appearance, and
    holds ``width`` windows × 24 hours, as many windows as the widest
    calendar so far. Per cell it keeps the mean (NaN where invalid),
    whether a row has set it, and the valid flag. Rows grow by doubling,
    and the width grows when a wider calendar comes."""

    def __init__(self):
        self.rows: dict[tuple[int, int], int] = {}
        self.means = np.full((0, 0, 24), np.nan)
        self.seen = np.zeros((0, 0, 24), bool)
        self.valid = np.zeros((0, 0, 24), bool)

    def _fit(self, width: int) -> None:
        """Room for every grid row, ``width`` windows wide."""
        capacity, old_width = self.means.shape[:2]
        if len(self.rows) <= capacity and width <= old_width:
            return
        if len(self.rows) > capacity:
            capacity = max(len(self.rows), 2 * capacity)
        shape = (capacity, max(width, old_width), 24)
        old = self.means, self.seen, self.valid
        self.means = np.full(shape, np.nan)
        self.seen, self.valid = np.zeros(shape, bool), np.zeros(shape, bool)
        for new, grid in zip((self.means, self.seen, self.valid), old):
            new[:len(grid), :grid.shape[1]] = grid

    def scatter(self, station: np.ndarray, year: np.ndarray, window: np.ndarray,
                hour: np.ndarray, value: np.ndarray, valid: np.ndarray, width: int) -> int:
        """Set the cells of a block's rows; returns the index of the block's
        first row whose cell an earlier row, in this block or an earlier
        one, set, or -1. A block without such a row sets as many cells as it
        has rows, and is told by that count."""
        years, year_code = unique_runs(year)
        pairs, pair = unique_runs(station * len(years) + year_code)
        pair_station, pair_year = np.divmod(pairs, len(years))
        grid_row = np.array([self.rows.setdefault(key, len(self.rows)) for key in
                             zip(pair_station.tolist(), years[pair_year].tolist())], np.int64)
        self._fit(width)
        cell = (grid_row[pair] * self.means.shape[1] + window) * 24 + hour
        seen = self.seen.reshape(-1)
        was = seen[cell]
        before = np.count_nonzero(self.seen[grid_row])
        seen[cell] = True
        self.means.reshape(-1)[cell] = np.where(valid, value, np.nan)
        self.valid.reshape(-1)[cell] = valid
        if was.any() or np.count_nonzero(self.seen[grid_row]) - before != len(cell):
            return int(np.argmax(was | repeats(cell)))
        return -1

    def panels(self, names: list[str],
               calendars: list[WindowCalendar]) -> dict[str, WindowHourPanel]:
        """Per-station panels, from the ids and calendars by station number:
        a station's panel is its grid rows in year order, cut to its
        calendar's windows. Where the grid rows came in (station id, year)
        order, as ``write_panel`` writes them, each panel is a slice of the
        grid; else the grid is put in that order once."""
        keys = np.array(list(self.rows), np.int64).reshape(-1, 2)
        by_name, rank = by_station(names, keys[:, 0])
        order = np.lexsort((keys[:, 1], rank))
        means, valid = self.means, self.valid
        if (order != np.arange(len(order))).any():
            means, valid = means[order], valid[order]
        bounds = np.searchsorted(rank[order], np.arange(len(names) + 1))
        years = keys[order, 1]
        out = {}
        for r, c in enumerate(by_name):
            lo, hi = bounds[r], bounds[r + 1]
            sid, cal = names[c], calendars[c]
            out[sid] = WindowHourPanel(sid, cal.scale, years[lo:hi].tolist(), list(cal.labels),
                                       means[lo:hi, :cal.n_windows],
                                       valid[lo:hi, :cal.n_windows].astype(np.int64))
        return out
