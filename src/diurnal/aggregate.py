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

from ._util import (Block, Piece, check_rows, csv_pieces, csv_prefix, factorize, fmt_column,
                    parse_floats, parse_ints, repeated_cells, sorted_ranks, station_blocks,
                    unique_runs, write_blocks)
from .errors import ContractError, EmptyInputError
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
class NetworkPanel:
    """The (year, window, hour-of-day) mean temperatures of a network of
    stations at one scale. ``stations`` are sorted and distinct; ``years``
    is one strictly increasing int64 axis that every station shares, which
    the trend tests read as time. ``means`` has shape (stations, years,
    windows, 24), NaN where no reading contributed; ``counts`` holds the
    contributing reading count, 0 there and in a year a station lacks. A
    panel from ``read_panel`` holds 0/1 bytes (uint8) as its counts, since
    the file keeps only whether a cell is valid."""

    scale: str
    stations: list[str]
    years: np.ndarray
    labels: list[str]
    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.years = np.asarray(self.years, np.int64)
        shape = (len(self.stations), len(self.years), len(self.labels), 24)
        if self.means.shape != shape or self.counts.shape != shape:
            raise ContractError(f"panel arrays must have shape {shape}")
        if (np.diff(self.years) <= 0).any():
            raise ContractError(f"panel years must be strictly increasing, "
                                f"got {self.years.tolist()}")
        if any(a >= b for a, b in zip(self.stations, self.stations[1:])):
            raise ContractError(f"panel stations must be sorted and distinct, got {self.stations}")

    def cell_valid(self) -> np.ndarray:
        return self.counts > 0


def hourly_window_means(series: TemperatureSeries, calendar: WindowCalendar,
                        *, skip_missing: bool = False) -> NetworkPanel:
    """Aggregate an hourly series into a one-station panel.

    The series is normally expected to be gap-free (imputed first); masked
    slots raise unless ``skip_missing`` is set, in which case they are simply
    left out of the means. The first cell in (year, window, hour) order whose
    readings' mean overflows raises ``ContractError`` naming it.
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
    bins = day_cell[slot_day]
    bins += hours
    del slot_day, hours
    means, counts = binned_means(bins, series.values, ~series.missing,
                                 len(uniq_years) * nW * 24)
    shape = (1, len(uniq_years), nW, 24)
    if (overflow := (counts > 0) & ~np.isfinite(means)).any():
        year, w, hour = np.unravel_index(np.argmax(overflow), shape[1:])
        raise ContractError(f"station {series.station_id}, year {uniq_years[year]}, window "
                            f"{calendar.labels[w]}, hour {hour}: mean of the readings is "
                            "not finite")
    return NetworkPanel(calendar.scale, [series.station_id], uniq_years, list(calendar.labels),
                        means.reshape(shape), counts.reshape(shape))


def year_series(panel: NetworkPanel, window_label: str, hour: int) -> tuple[np.ndarray, np.ndarray]:
    """The valid years of one (window, hour) cell of a one-station panel,
    and their means, both in ascending year order."""
    if len(panel.stations) != 1:
        raise ContractError(f"year_series needs a one-station panel, "
                            f"got {len(panel.stations)} stations")
    if window_label not in panel.labels:
        raise ContractError(f"unknown window label {window_label!r} for scale {panel.scale}")
    if not 0 <= hour <= 23:
        raise ContractError(f"hour {hour} out of range 0-23")
    w = panel.labels.index(window_label)
    valid = panel.cell_valid()[0, :, w, hour]
    return panel.years[valid], panel.means[0, valid, w, hour]


def stack_panels(panels: Iterable[NetworkPanel]) -> NetworkPanel:
    """The stations of ``panels``, which share one scale, on one panel over
    the union of their years: a station's cells in a year its own panel
    lacks are NaN with count 0."""
    panels = list(panels)
    if len(scales := sorted({p.scale for p in panels})) != 1:
        raise ContractError(f"panels to stack must share one scale, got {scales}")
    stations = [sid for p in panels for sid in p.stations]
    years = np.unique(np.concatenate([p.years for p in panels]))
    shape = (len(stations), len(years), len(panels[0].labels), 24)
    means, counts = np.full(shape, np.nan), np.zeros(shape, np.int64)
    rows = np.split(sorted_ranks(stations), np.cumsum([len(p.stations) for p in panels]))
    for p, row in zip(panels, rows):
        at = np.ix_(row, np.searchsorted(years, p.years))
        means[at], counts[at] = p.means, p.counts
    return NetworkPanel(panels[0].scale, sorted(stations), years, list(panels[0].labels),
                        means, counts)


def write_panel(path: str | Path, panels: Iterable[NetworkPanel]) -> None:
    """Write panels as CSV rows, one per (station, year, window, hour): the
    stations of every panel in id order, each over its own panel's years.

    Invalid cells keep their row with an empty mean and valid=0 so the grid
    shape survives the round trip. Each station is one block of
    ``write_blocks``, its columns rendered by ``fmt_column`` from its
    (year, window, hour) grid.
    """
    stations = sorted(((sid, p, s) for p in panels for s, sid in enumerate(p.stations)),
                      key=lambda station: station[0])
    write_blocks(path, PANEL_HEADER, (_station_pieces(p, s) for _, p, s in stations))


def _station_pieces(p: NetworkPanel, s: int) -> list[Piece]:
    """The ``write_blocks`` pieces of the rows of station ``s`` of a panel."""
    year, window, hour = np.indices(p.means.shape[1:]).reshape(3, -1)
    ok = p.cell_valid()[s].ravel()
    return [csv_prefix(p.stations[s], p.scale), *csv_pieces([
        fmt_column(p.years[year]),
        fmt_column(np.array(p.labels, dtype=object)[window]), fmt_column(hour),
        fmt_column(np.where(ok, p.means[s].ravel(), np.nan)), fmt_column(ok)])]


def read_panel(path: str | Path) -> NetworkPanel:
    """Read a panel CSV, which holds one scale, into one network panel.

    Counts are reduced to the valid flag, so a re-read panel reports count
    1 for every valid cell, and 0 in a year a station has no row for.
    Besides malformed fields, a row whose scale is not the first row's, with
    an hour outside 0-23, a valid flag other than 0 or 1, a label outside
    its scale, a valid cell without a finite mean or a second row for the
    same (station, year, window, hour) cell raises ``ParseError`` with its
    line, the first bad row of the file. Each block's rows are scattered
    onto one grid (``_PanelGrid``) and checked, and the block and its
    per-row arrays are dropped before the next block is split.
    """
    numbers: dict[str, int] = {}
    grid = None
    for block, station in station_blocks(path, len(PANEL_HEADER), "panel rows", numbers):
        grid = _scatter_block(grid, block, station)
        del block, station
    return grid.panel(list(numbers))


def _scatter_block(grid: _PanelGrid | None, block: Block, station: np.ndarray) -> _PanelGrid:
    """Scatter a block's rows onto the grid (made for the scale of the
    block's first row, if it is the file's first block) and check them; the
    first bad row raises ``ParseError``."""
    _, scale, year, label, hour, mean, valid = block.columns
    scale_index, window = window_index(factorize(scale), factorize(label))
    grid = grid or _PanelGrid(int(scale_index[0]))
    first = grid.first
    year, year_bad = parse_ints(year)
    hour, hour_bad = parse_ints(hour, bound=24)
    value, mean_bad = parse_floats(mean)
    flags, flag = factorize(valid)
    valid = (np.array(flags) == "1")[flag]
    # Rows off the grid (every row, if the first row's scale is unknown)
    # break a rule before the repeat rule.
    on_grid = (scale_index == first) & (window >= 0) & (hour >= 0) & (hour <= 23)
    repeat = grid.scatter(on_grid, station, year, window, hour, value, valid)
    check_rows(block, [
        (scale_index < 0, lambda row: f"unknown scale {row[1].strip()!r}"),
        (scale_index != first,
         lambda row: f"scale {row[1].strip()} differs from the first row's scale "
                     f"{SCALES[first]}; a panel file holds one scale"),
        (year_bad | hour_bad | mean_bad, lambda row: "malformed year, hour or mean"),
        ((hour < 0) | (hour > 23), lambda row: f"hour {int(row[4])} out of range 0-23"),
        (~np.isin(flags, ("0", "1"))[flag],
         lambda row: f"valid flag {row[6].strip()!r} is not 0 or 1"),
        (window < 0, lambda row: f"label {row[3].strip()!r} does not belong to "
                                 f"scale {row[1].strip()}"),
        (valid & ~np.isfinite(value),
         lambda row: f"valid cell with non-finite mean {row[5].strip()!r}"),
        (repeat, lambda row: f"station {row[0].strip()}: second row for year "
                             f"{int(row[2])}, window {row[3].strip()}, hour {int(row[4])}"),
    ])
    return grid


class _PanelGrid:
    """The cells of a panel file as its blocks are read, at the scale of
    its first row (``first``, a position in ``SCALES``; -1 if it is not
    one, which fails the first row). A grid row is one (station number,
    year) pair, numbered in order of first appearance, and holds the
    scale's windows × 24 hours. Per cell it keeps the mean (NaN where
    invalid) and whether a row has set it. The grid grows in place to the
    rows it holds (``ndarray.resize``), so no step holds two copies of it."""

    def __init__(self, first: int):
        self.first = first
        self.calendar = _CALENDARS[SCALES[first]]
        self.rows: dict[tuple[int, int], int] = {}
        self.means = np.full((0, self.calendar.n_windows, 24), np.nan)
        self.seen = np.zeros((0, self.calendar.n_windows, 24), bool)

    def _fit(self) -> None:
        """Room for every grid row, new cells unset."""
        have, shape = len(self.means), (len(self.rows), *self.means.shape[1:])
        if len(self.rows) > have:
            # No refcheck: a trace or profile hook holds extra references
            # to the arrays, which make the check fail. No view of either
            # array outlives the ``scatter`` that made it, so none points
            # into a buffer that the resize moves.
            self.means.resize(shape, refcheck=False)
            self.seen.resize(shape, refcheck=False)
            self.means[have:] = np.nan

    def scatter(self, keyed: np.ndarray, station: np.ndarray, year: np.ndarray,
                window: np.ndarray, hour: np.ndarray, value: np.ndarray,
                valid: np.ndarray) -> np.ndarray:
        """Set the cells of a block's ``keyed`` rows to their values (NaN
        where not valid); returns whether each row repeats a cell
        (``repeated_cells``)."""
        at = np.flatnonzero(keyed)
        years, year_code = unique_runs(year[at])
        pairs, pair = unique_runs(station[at] * len(years) + year_code)
        pair_station, pair_year = np.divmod(pairs, len(years))
        grid_row = np.array([self.rows.setdefault(key, len(self.rows)) for key in
                             zip(pair_station.tolist(), years[pair_year].tolist())], np.int64)
        self._fit()
        cell = (grid_row[pair] * self.means.shape[1] + window[at]) * 24 + hour[at]
        self.means.reshape(-1)[cell] = np.where(valid, value, np.nan)[at]
        return repeated_cells(self.seen.reshape(-1), cell, keyed)

    def panel(self, names: list[str]) -> NetworkPanel:
        """The network panel, from the station ids by number: the grid rows
        scattered onto its stations in sorted order × the union of their
        years, the grid given up once they are. A valid cell, and only a
        valid cell, has a finite mean, so its count is whether it does."""
        keys = np.array(list(self.rows), np.int64).reshape(-1, 2)
        years, year = np.unique(keys[:, 1], return_inverse=True)
        self.seen = None
        means = np.full((len(names), len(years), *self.means.shape[1:]), np.nan)
        means[sorted_ranks(names)[keys[:, 0]], year] = self.means
        self.means = None
        return NetworkPanel(self.calendar.scale, sorted(names), years,
                            list(self.calendar.labels), means,
                            np.isfinite(means).view(np.uint8))
