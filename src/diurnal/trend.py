"""Nonparametric trend detection across years.

Each (window, hour-of-day) cell of a panel yields one short series of
yearly means. The Mann-Kendall test gives the trend's significance, Sen's
slope estimates its magnitude in degrees per year, and the lag-1
autocorrelation of the cell flags series whose significance may be
inflated by serial dependence. Each statistic is one kernel over the rows
of a (cells x years) matrix, S and Sen's slope reading each batch's
year-pair differences from one kernel; the scalar functions are its one-row case.

A trend surface is a ``TrendTable``: one numpy array per ``TREND_HEADER``
field, from the kernels through ``trend.csv`` and back, with no Python
object per cell on the way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._util import (BLOCK_LINES, Block, ColumnTable, Rule, check_rows, csv_pieces,
                    empty_station_id, factorize, first_fault, fmt, fmt_column, parse_bool,
                    parse_each, parse_float, parse_floats, parse_ints, repeated_cells,
                    station_blocks, unique_runs, write_blocks)
from .aggregate import _WINDOWS, NetworkPanel, scale_error, window_index
from .errors import (
    ContractError,
    DegenerateDataError,
    EmptyInputError,
    SampleTooSmallError,
)

TREND_HEADER = ("station_id", "scale", "window_label", "hour", "n", "S", "var_S",
                "z", "p_value", "sen_slope", "lag1", "serial_flag")

MIN_YEARS = 3


@dataclass(frozen=True)
class MKResult:
    n: int
    s: int
    var_s: float
    z: float
    p_value: float


@dataclass(frozen=True)
class SenSlope:
    slope: float


@dataclass(frozen=True, eq=False)
class TrendTable(ColumnTable):
    """Trend cells as columns, one per ``TREND_HEADER`` field (``s`` and
    ``var_s`` are ``S`` and ``var_S``): text as object arrays of ``str``,
    ``hour``, ``n`` and ``s`` as int64, the statistics as float64 and
    ``serial_flag`` as bool. Row ``i`` of every column is one (station,
    scale, window, hour) cell. Iterating yields each row as a ``TrendRow``;
    two tables are equal when their rows are."""

    DTYPES = (object, object, object, np.int64, np.int64, np.int64, np.float64,
              np.float64, np.float64, np.float64, np.float64, bool)

    station_id: np.ndarray
    scale: np.ndarray
    window_label: np.ndarray
    hour: np.ndarray
    n: np.ndarray
    s: np.ndarray
    var_s: np.ndarray
    z: np.ndarray
    p_value: np.ndarray
    sen_slope: np.ndarray
    lag1: np.ndarray
    serial_flag: np.ndarray

    def __iter__(self) -> Iterator[tuple]:
        return map(TrendRow._make, zip(*(column.tolist() for column in self.columns())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrendTable):
            return NotImplemented
        return list(self) == list(other)


# One row of a ``TrendTable``, as iterating over the table yields it.
TrendRow = namedtuple("TrendRow", [f.name for f in fields(TrendTable)])


def _pairs(x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one place year pairs are formed: x[:, j] - x[:, k] of each row and
    t[j] - t[k], pairs k < j in ``np.triu_indices`` order; a difference that
    overflows is an infinity, without a warning."""
    k, j = np.triu_indices(t.size, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return x[:, j] - x[:, k], t[j] - t[k]


def _mk_rows(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mann-Kendall S (the sign-sum of the pair differences ``d``), var_S, z and
    p of each row of ``x``. A value tied t times removes (t - 1)(2t + 5) from
    18 var_S; a row whose values are all tied gets var_S = 0 and NaN z and p."""
    n = x.shape[1]
    s = np.sign(d).sum(axis=1).astype(np.int64)
    t = (x[:, :, None] == x[:, None, :]).sum(axis=2)
    var_s = (n * (n - 1) * (2 * n + 5) - ((t - 1) * (2 * t + 5)).sum(axis=1)) / 18.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (s - np.sign(s)) / np.sqrt(var_s)
    p = np.fromiter(map(math.erfc, (np.abs(z) / math.sqrt(2.0)).tolist()), np.float64, len(z))
    return s, var_s, z, p


def _sen_rows(d: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Sen's slope of each row of pair differences ``d`` over ``dt`` (a dt != 0 at least):
    the middle of the sorted slopes with dt != 0, not finite if a slope or the middle is."""
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.sort(d[:, dt != 0] / dt[dt != 0], axis=1)
        m = slopes.shape[1]
        mid = slopes[:, m // 2] if m % 2 else 0.5 * (slopes[:, m // 2 - 1] + slopes[:, m // 2])
    return np.where(np.isfinite(slopes[:, [0, -1]]).all(axis=1), mid, np.nan)


def _lag1_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-1 autocorrelation of each C-contiguous row, NaN where its centered
    sums are 0 or not finite, and whether its sum of squares is 0. ``np.vecdot``
    rounds each row as ``np.dot`` does; a batched ``sum`` or ``einsum`` does not."""
    with np.errstate(all="ignore"):
        d = x - x.mean(axis=1, keepdims=True)
        num, denom = np.vecdot(d[:, :-1], d[:, 1:]), np.vecdot(d, d)
        return np.where(np.isfinite(num) & np.isfinite(denom), num / denom, np.nan), denom == 0.0


def mk_test(x: Sequence[float]) -> MKResult:
    """Two-sided Mann-Kendall test with tie correction and continuity correction.

    The statistic S counts concordant minus discordant ordered pairs; its
    variance is reduced for tied groups, z applies the +/-1 continuity
    correction, and the p-value uses the normal approximation. A series
    where every pair is tied has zero variance and raises
    ``DegenerateDataError``.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < MIN_YEARS:
        raise SampleTooSmallError(f"Mann-Kendall needs at least {MIN_YEARS} values, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("Mann-Kendall input must be finite")
    row = arr[None]
    s, var_s, z, p = (float(v[0]) for v in _mk_rows(row, _pairs(row, np.arange(n))[0]))
    if var_s <= 0:
        raise DegenerateDataError("all values tied, Mann-Kendall variance is zero")
    return MKResult(n, int(s), var_s, z, p)


def sen_slope(x: Sequence[float], t: Sequence[float] | None = None) -> SenSlope:
    """Sen's slope: the median of all pairwise slopes (x_j - x_k)/(t_j - t_k).

    ``t`` defaults to 0..n-1. Pairs with equal t are skipped; if every pair
    collapses that way the slope is undefined and ``DegenerateDataError`` is
    raised; a pair slope or median that overflows raises ``ContractError``.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise SampleTooSmallError(f"Sen's slope needs at least 2 values, got {n}")
    tt = np.arange(n, dtype=np.float64) if t is None else np.asarray(t, dtype=np.float64)
    if tt.size != n:
        raise ContractError("x and t must have equal length")
    if not (np.all(np.isfinite(arr)) and np.all(np.isfinite(tt))):
        raise ContractError("Sen's slope input must be finite")
    if np.all(tt == tt[0]):
        raise DegenerateDataError("all time points coincide, Sen's slope is undefined")
    slope = float(_sen_rows(*_pairs(arr[None], tt))[0])
    if not math.isfinite(slope):
        raise ContractError("Sen's slope overflows: a pair slope or their median is not finite")
    return SenSlope(slope)


def lag1_autocorrelation(x: Sequence[float]) -> float:
    """Lag-1 autocorrelation r1 = sum(d_t * d_{t+1}) / sum(d_t^2), d = x - mean.
    Finite input whose centered sums overflow raises ``ContractError``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2:
        raise SampleTooSmallError(f"lag-1 autocorrelation needs at least 2 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("lag-1 autocorrelation input must be finite")
    r1, flat = _lag1_rows(arr[None])
    if flat[0]:
        raise DegenerateDataError(
            "centered sum of squares is zero, lag-1 autocorrelation is undefined")
    if math.isnan(r1[0]):
        raise ContractError("lag-1 autocorrelation overflows: centered sums are not finite")
    return float(r1[0])


def serial_flag(r1: float, n: int) -> bool:
    """True when |r1| exceeds the 5% two-sided bound 1.96/sqrt(n)."""
    if n < 1:
        raise SampleTooSmallError("serial flag needs n >= 1")
    return abs(r1) > 1.96 / math.sqrt(n)


def _unique_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a bool matrix and the index of each row's, as
    ``np.unique(mask, axis=0, return_inverse=True)`` gives them but not in
    its order: each row is packed into bytes and sorted as one opaque value,
    which is many times faster than numpy's row-wise sort."""
    key = np.packbits(mask, axis=1)
    key = np.ascontiguousarray(key).view(f"V{key.shape[1]}").ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return mask[first], inverse


# Year pairs that one batch of ``_year_groups`` holds, summed over its
# cells, so that the kernels' (cells x pairs) arrays stay within a few MB
# however many cells a group has.
BATCH_PAIRS = 1 << 16


def _year_groups(years: np.ndarray, means: np.ndarray,
                 valid: np.ndarray) -> Iterator[tuple]:
    """The cells of (..., years) arrays of yearly means and valid flags,
    numbered in C order, grouped by valid-year mask and cut into batches of
    at most ``BATCH_PAIRS`` year pairs: per batch, its cells, their valid
    years and C-contiguous (cells x valid years) matrix of yearly means.
    Every kernel works row by row, so the batches do not change a result."""
    rows = (math.prod(valid.shape[:-1]), len(years))
    means, (masks, group) = means.reshape(rows), _unique_rows(valid.reshape(rows))
    for g, mask in enumerate(masks):
        cells = np.flatnonzero(group.ravel() == g)
        at = np.flatnonzero(mask)
        size = max(1, BATCH_PAIRS // max(1, at.size * (at.size - 1) // 2))
        for lo in range(0, len(cells), size):
            yield cells[lo:lo + size], years[at], means[np.ix_(cells[lo:lo + size], at)]


def _cell_rows(panel: NetworkPanel, windows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The yearly means and valid flags of each (station, window, hour) cell
    of ``windows``, as (stations, windows, 24, years) arrays filled one
    window at a time, so that no larger copy is made on the way."""
    shape = (len(panel.stations), len(windows), 24, len(panel.years))
    means, valid, cell_valid = np.empty(shape), np.empty(shape, bool), panel.cell_valid()
    for k, w in enumerate(windows):
        means[:, k] = panel.means[:, :, w].transpose(0, 2, 1)
        valid[:, k] = cell_valid[:, :, w].transpose(0, 2, 1)
    return means, valid


def trend_surface(panel: NetworkPanel, min_years: int = MIN_YEARS) -> TrendTable:
    """Run MK + Sen + serial-correlation screening over every panel cell.

    Returns one row per kept cell, in (station, window, hour) order. Cells
    with fewer than ``min_years`` valid years, or whose yearly means are all
    tied, are left out of the result rather than reported with unusable
    statistics. A panel's valid cells have finite means (``NetworkPanel``),
    so the first kept cell with a centered sum of squares that underflows
    to zero, or an overflow, raises the error ``lag1_autocorrelation`` or
    ``sen_slope`` raises for it, prefixed with ``station S, window W, hour
    H: ``. A panel with no kept cell gives an empty table, which
    ``write_trend_csv`` refuses to write.
    """
    if min_years < MIN_YEARS:
        raise ContractError(f"min_years must be at least {MIN_YEARS}")
    found, bad = [[np.empty(0, np.int64)] * 9], []  # one empty batch: no cell, no rows
    for cells, years, x in _year_groups(panel.years.astype(np.float64),
                                        *_cell_rows(panel, range(len(panel.labels)))):
        if years.size < min_years:
            continue
        d, dt = _pairs(x, years)
        s, var_s, z, p = _mk_rows(x, d)
        slope, (r1, _) = _sen_rows(d, dt), _lag1_rows(x)
        untied = var_s > 0
        undefined = untied & ~(np.isfinite(slope) & np.isfinite(r1))
        bad += zip(cells[undefined], x[undefined], repeat(years))
        found.append([v[untied] for v in (cells, np.full(len(cells), years.size), s, var_s,
                                          z, p, slope, r1, serial_flag(r1, years.size))])
    if bad:
        cell, row, years = min(bad, key=itemgetter(0))
        station, cell = divmod(int(cell), len(panel.labels) * 24)
        try:
            lag1_autocorrelation(row)
            sen_slope(row, years)
        except ContractError as exc:
            raise type(exc)(f"station {panel.stations[station]}, window "
                            f"{panel.labels[cell // 24]}, hour {cell % 24}: {exc}") from None
    cells, *stats = map(np.concatenate, zip(*found))
    order = np.argsort(cells)
    station, cell = np.divmod(cells[order], len(panel.labels) * 24)
    return TrendTable(np.array(panel.stations, dtype=object)[station],
                      np.full(len(cell), panel.scale, dtype=object),
                      np.array(panel.labels, dtype=object)[cell // 24], cell % 24,
                      *(v[order] for v in stats))


def window_profiles(panel: NetworkPanel, window_labels: Sequence[str],
                    kind: str) -> list[dict[str, np.ndarray]]:
    """Each station's 24-hour profile of each window of ``window_labels``,
    in order and by sorted station: Sen's slope across each cell's valid
    years (``kind="slope"``, two needed) or their mean (``"level"``, one
    needed), from one pass, bitwise as window by window. The first window
    whose label is unknown, or that has a cell short of years, a slope
    ``sen_slope`` rejects or a mean that is not finite, raises; a cell's
    error starts ``station S, window W, hour H: ``."""
    if kind not in ("slope", "level"):
        raise ContractError(f"unknown profile kind {kind!r}, expected 'slope' or 'level'")
    need = 2 if kind == "slope" else 1
    column = _WINDOWS[panel.scale]
    w = np.array([column.get(label, -1) for label in window_labels], np.int64)
    unknown = w < 0
    means, valid = _cell_rows(panel, w)
    valid[:, unknown] = False
    n = valid.sum(axis=3)
    out = np.zeros(means.shape[:3])  # finite where no kernel runs
    # A mean that overflows is inf, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for cells, t, x in _year_groups(panel.years.astype(np.float64), means, valid):
            if t.size >= need:
                out.reshape(-1)[cells] = (_sen_rows(*_pairs(x, t)) if kind == "slope"
                                          else x.mean(axis=1))
    bad = (n < need) | ~np.isfinite(out)
    for w, label in enumerate(window_labels):
        if unknown[w]:
            raise ContractError(f"unknown window label {label!r} for scale {panel.scale}")
        if bad[:, w].any():
            s, hour = np.argwhere(bad[:, w])[0].tolist()
            have, cell = n[s, w, hour], f"station {panel.stations[s]}, window {label}, hour {hour}"
            if kind == "slope" and have >= need:
                try:
                    sen_slope(means[s, w, hour][valid[s, w, hour]],
                              panel.years[valid[s, w, hour]])
                except ContractError as exc:
                    raise type(exc)(f"{cell}: {exc}") from None
            raise ContractError(f"{cell}: " + (
                f"need at least 2 valid years for slope features, have {have}"
                if kind == "slope" else "mean of the valid years is not finite" if have
                else "no valid years for level features"))
    return [dict(zip(panel.stations, out[:, k])) for k in range(len(window_labels))]


def table_windows(table) -> np.ndarray:
    """The window positions (``window_index``) of the rows of a table with
    ``scale`` and ``window_label`` columns, which holds one scale, as a
    trend file does: the scale of its first row. The first row whose scale
    is unknown or differs from the first row's, or whose label is not of
    the scale, raises ``ContractError``."""
    first, off, window = window_index(unique_runs(table.scale), unique_runs(table.window_label))
    if (bad := off | (window < 0)).any():
        k = int(np.argmax(bad))
        raise ContractError(scale_error(table.scale[k], first, "trend table") if off[k] else
                            f"label {table.window_label[k]!r} does not belong to scale "
                            f"{table.scale[k]!r}")
    return window


def write_trend_csv(path: str | Path, table: TrendTable) -> None:
    """Write trend cells, which hold one scale (``table_windows`` raises
    its ``ContractError`` otherwise), in (station, window, hour) order,
    with the bytes of ``csv.writer``. Rows are ordered by one lexsort, and
    each ``BLOCK_LINES`` of them are one block of ``write_blocks``: each
    column rendered once per distinct value by ``fmt_column``.

    A table that ``read_trend_csv`` would reject raises before the file is
    opened: an empty one ``EmptyInputError``, and one with a row whose
    station id is blank, whose hour, p-value or Sen's slope breaks the
    reader's rule, or whose (station, window, hour) cell an earlier row
    holds, ``ContractError`` for the row the reader would name first,
    worded as the reader words it (``trend table row K: hour 24 out of
    range 0-23``, K its position in the table)."""
    if not len(table):
        raise EmptyInputError("no cell had enough usable years for a trend test")
    window = table_windows(table)
    ids, station = unique_runs(table.station_id)
    order = np.lexsort((table.hour, window, station))
    # The reader's view of the file: the rows in order, each station known
    # by its stripped id.
    stripped = [sid.strip() for sid in ids.tolist()]
    number = {sid: i for i, sid in enumerate(dict.fromkeys(stripped))}
    name = np.array([number[sid] for sid in stripped], np.int64)[station[order]]
    blank = np.array([not sid for sid in stripped], bool)[station[order]]
    hour, station_cells = table.hour[order], len(_WINDOWS[table.scale[0]]) * 24
    on_grid = (hour >= 0) & (hour <= 23)
    cell = (name * station_cells + window[order] * 24 + hour)[on_grid]
    repeat = repeated_cells(np.zeros(len(number) * station_cells, bool), cell, on_grid)
    rules = [(blank, lambda row: "empty station_id"),
             *_cell_rules(hour, table.p_value[order], table.sen_slope[order], repeat)]
    if (fault := first_fault(rules)) is not None:
        k, word = int(order[fault[0]]), fault[1]
        row = [v if isinstance(v, str) else fmt(v) for v in next(iter(table.take([k])))]
        raise ContractError(f"trend table row {k}: {word(row)}")
    write_blocks(path, TREND_HEADER, (
        csv_pieces(map(fmt_column, table.take(order[lo:lo + BLOCK_LINES]).columns()))
        for lo in range(0, len(order), BLOCK_LINES)))


def read_trend_csv(path: str | Path) -> TrendTable:
    """Read a trend CSV, which holds one scale, back into a table, rows in
    file order. Besides malformed fields, a row whose scale is not the
    first row's, with an hour outside 0-23, a p-value outside [0, 1], a
    non-finite Sen's slope, a label outside its scale or a second row for
    the same (station, window, hour) cell raises ``ParseError`` with its
    line, the first bad row of the file; so does an n or S outside int64.

    Each block is parsed by columns, every distinct text of a text, int or
    flag field once, and each check runs once on whole columns.
    """
    numbers: dict[str, int] = {}
    first, seen, parts = None, np.zeros(0, bool), []
    for block, station in station_blocks(path, len(TREND_HEADER), "trend rows", numbers):
        first, seen, columns = _trend_columns(block, station, first, seen)
        parts.append((station, *columns))
        del block, station
    station, *columns = map(np.concatenate, zip(*parts))
    return TrendTable(np.array(list(numbers), dtype=object)[station], *columns)


def _cell_rules(hour: np.ndarray, p: np.ndarray, slope: np.ndarray,
                repeat: np.ndarray) -> list[Rule]:
    """The rules of a trend row that its writer checks too, in the reader's
    order, worded from the row's fields as written: its hour is in 0-23,
    its p-value in [0, 1], its Sen's slope finite, and the last, it is not
    a second row of its (station, window, hour) cell (``repeat``)."""
    return [
        ((hour < 0) | (hour > 23), lambda row: f"hour {int(row[3])} out of range 0-23"),
        (~((p >= 0.0) & (p <= 1.0)),
         lambda row: f"p_value {parse_float(row[8].strip())} out of [0, 1]"),
        (~np.isfinite(slope),
         lambda row: f"sen_slope {parse_float(row[9].strip())} is not finite"),
        (repeat,
         lambda row: f"station {row[0].strip()}: second row for scale {row[1].strip()}, "
                     f"window {row[2].strip()}, hour {int(row[3])}"),
    ]


def _trend_columns(block: Block, station: np.ndarray, first: str | None,
                   seen: np.ndarray) -> tuple[str, np.ndarray, list[np.ndarray]]:
    """The file's scale (``first``, or the block's first row's if None),
    ``seen`` grown to every station so far and the columns after
    ``station_id`` of one block's rows (numbered by ``station``), every
    distinct text of a text, int or flag field parsed once. ``seen``, a
    grid of the scale's windows × 24 hours per station, marks the cells of
    the earlier blocks' rows and then of the block's own. The first bad
    row of the block raises ``ParseError``."""
    _, scale, label, hour, n, s, var_s, z, p, slope, lag1, flag = block.columns
    text = [factorize(column) for column in (scale, label)]
    first, off, window = window_index(*text, first)
    station_cells = len(_WINDOWS.get(first, ())) * 24
    if (grow := (int(station.max()) + 1) * station_cells - len(seen)) > 0:
        seen = np.concatenate((seen, np.zeros(grow, bool)))
    ints, int_bad = zip(parse_ints(hour, bound=24), parse_ints(n), parse_ints(s))
    floats, float_bad = zip(*map(parse_floats, (var_s, z, p, slope, lag1)))
    flags, flag_code = factorize(flag)
    flag, flag_bad = (v[flag_code] for v in parse_each(parse_bool, flags, bool))
    malformed = np.logical_or.reduce([*int_bad, *float_bad, flag_bad])
    hour, p, slope = ints[0], floats[2], floats[3]
    # A cell's rows after its first, here or in an earlier block, are
    # repeats. A row off the grid breaks a rule before this one.
    cell = station * station_cells + window * 24 + hour
    on_grid = ~off & (window >= 0) & (hour >= 0) & (hour <= 23)
    repeat = repeated_cells(seen, cell[on_grid], on_grid)
    *fields, repeated = _cell_rules(hour, p, slope, repeat)
    check_rows(block, [
        empty_station_id(block),
        (off, lambda row: scale_error(row[1].strip(), first, "trend file")),
        (malformed, lambda row: "malformed numeric field"),
        *fields,
        (window < 0, lambda row: f"label {row[2].strip()!r} does not belong to "
                                 f"scale {row[1].strip()}"),
        repeated,
    ])
    columns = [np.array(uniq, dtype=object)[index] for uniq, index in text]
    return first, seen, [*columns, *ints, *floats, flag]
