"""Nonparametric trend detection across years.

Each (window, hour-of-day) cell of a panel yields one short series of
yearly means. The Mann-Kendall test gives the trend's significance, Sen's
slope estimates its magnitude in degrees per year, and the lag-1
autocorrelation of the cell flags series whose significance may be
inflated by serial dependence. Each statistic is one kernel over the rows
of a (cells x years) matrix; the scalar functions are its one-row case.

A trend surface is a ``TrendTable``: one numpy array per ``TREND_HEADER``
field, from the kernels through ``trend.csv`` and back, with no Python
object per cell on the way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._util import (BLOCK_LINES, Block, ColumnTable, check_rows, csv_pieces, factorize,
                    fmt_column, parse_bool, parse_each, parse_float, parse_floats,
                    parse_ints, read_station_rows, repeats, unique_runs, write_blocks)
from .aggregate import SCALES, NetworkPanel, window_index
from .errors import (
    ContractError,
    DegenerateDataError,
    ParseError,
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


def _mk_rows(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mann-Kendall S (the sign-sum of the pair differences), var_S, z and p
    of each row. A value tied t times removes (t - 1)(2t + 5) from 18 var_S;
    a row whose values are all tied gets var_S = 0 and NaN z and p."""
    n = x.shape[1]
    k, j = np.triu_indices(n, 1)
    s = np.sign(x[:, j] - x[:, k]).sum(axis=1).astype(np.int64)
    t = (x[:, :, None] == x[:, None, :]).sum(axis=2)
    var_s = (n * (n - 1) * (2 * n + 5) - ((t - 1) * (2 * t + 5)).sum(axis=1)) / 18.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (s - np.sign(s)) / np.sqrt(var_s)
    p = np.fromiter(map(math.erfc, (np.abs(z) / math.sqrt(2.0)).tolist()), np.float64, len(z))
    return s, var_s, z, p


def _sen_rows(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sen's slope of each row against ``t`` (two distinct values at least):
    the middle of the sorted pair slopes, pairs with equal t left out."""
    k, j = np.triu_indices(t.size, 1)
    dt = t[j] - t[k]
    usable = dt != 0
    slopes = np.sort((x[:, j[usable]] - x[:, k[usable]]) / dt[usable], axis=1)
    m = slopes.shape[1]
    if m % 2:
        return slopes[:, m // 2]
    return 0.5 * (slopes[:, m // 2 - 1] + slopes[:, m // 2])


def _lag1_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-1 autocorrelation of each C-contiguous row, and whether its
    centered sum of squares is zero. ``np.vecdot`` rounds each row as
    ``np.dot`` does; a batched ``sum`` or ``einsum`` does not."""
    d = x - x.mean(axis=1, keepdims=True)
    denom = np.vecdot(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.vecdot(d[:, :-1], d[:, 1:]) / denom, denom == 0.0


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
    s, var_s, z, p = (float(v[0]) for v in _mk_rows(arr[None]))
    if var_s <= 0:
        raise DegenerateDataError("all values tied, Mann-Kendall variance is zero")
    return MKResult(n, int(s), var_s, z, p)


def sen_slope(x: Sequence[float], t: Sequence[float] | None = None) -> SenSlope:
    """Sen's slope: the median of all pairwise slopes (x_j - x_k)/(t_j - t_k).

    ``t`` defaults to 0..n-1. Pairs with equal t are skipped; if every pair
    collapses that way the slope is undefined and ``DegenerateDataError``
    is raised.
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
    return SenSlope(float(_sen_rows(arr[None], tt)[0]))


def lag1_autocorrelation(x: Sequence[float]) -> float:
    """Lag-1 autocorrelation r1 = sum(d_t * d_{t+1}) / sum(d_t^2), d = x - mean."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2:
        raise SampleTooSmallError(f"lag-1 autocorrelation needs at least 2 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("lag-1 autocorrelation input must be finite")
    r1, flat = _lag1_rows(arr[None])
    if flat[0]:
        raise DegenerateDataError(
            "centered sum of squares is zero, lag-1 autocorrelation is undefined")
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
    statistics. The first kept cell with a non-finite mean, or a centered
    sum of squares that underflows to zero, raises the error ``mk_test``
    or ``lag1_autocorrelation`` raises for it.
    """
    if min_years < MIN_YEARS:
        raise ContractError(f"min_years must be at least {MIN_YEARS}")
    found, bad = [], []
    for cells, years, x in _year_groups(panel.years.astype(np.float64),
                                        *_cell_rows(panel, range(len(panel.labels)))):
        if years.size < min_years:
            continue
        finite = np.isfinite(x).all(axis=1)
        bad += zip(cells[~finite], x[~finite])
        s, var_s, z, p = _mk_rows(x[finite])
        untied = var_s > 0
        cells, x = cells[finite][untied], x[finite][untied]
        r1, flat = _lag1_rows(x)
        bad += zip(cells[flat], x[flat])
        found.append((cells, np.full(len(cells), years.size), s[untied], var_s[untied],
                      z[untied], p[untied], _sen_rows(x, years), r1,
                      serial_flag(r1, years.size)))
    if bad:
        row = min(bad, key=itemgetter(0))[1]
        mk_test(row)
        lag1_autocorrelation(row)
    if not found:
        found = [(np.empty(0, np.int64),) + (np.empty(0),) * 8]
    cells, *stats = map(np.concatenate, zip(*found))
    order = np.argsort(cells)
    station, cell = np.divmod(cells[order], len(panel.labels) * 24)
    return TrendTable(np.array(panel.stations, dtype=object)[station],
                      np.full(len(cell), panel.scale, dtype=object),
                      np.array(panel.labels, dtype=object)[cell // 24], cell % 24,
                      *(v[order] for v in stats))


def hour_profiles(panel: NetworkPanel, window_label: str, kind: str) -> dict[str, np.ndarray]:
    """Each station's 24-hour profile of one window, in sorted station order:
    Sen's slope across each cell's valid years (``kind="slope"``, two
    needed) or their mean (``"level"``, one needed; no other kind). The first
    station and hour short of years, or with a non-finite slope input, raises.
    This is the one-window case of ``window_profiles``."""
    return next(window_profiles(panel, [window_label], kind))


def window_profiles(panel: NetworkPanel, window_labels: Sequence[str],
                    kind: str) -> Iterator[dict[str, np.ndarray]]:
    """``hour_profiles`` of each window of ``window_labels``, in order, from
    one pass: the cells of every station, selected window and hour are
    grouped by their valid years, with one Sen kernel or mean per group.
    The profiles come out bitwise as window by window. A window that
    ``hour_profiles`` rejects raises its error when its turn comes, after
    the windows before it have been yielded."""
    if kind not in ("slope", "level"):
        raise ContractError(f"unknown profile kind {kind!r}, expected 'slope' or 'level'")
    need = 2 if kind == "slope" else 1
    column = {label: w for w, label in enumerate(panel.labels)}
    w = np.array([column.get(label, -1) for label in window_labels], np.int64)
    unknown = w < 0
    means, valid = _cell_rows(panel, w)
    valid[:, unknown] = False
    n = valid.sum(axis=3)
    bad = n < need
    if kind == "slope":
        bad |= (valid & ~np.isfinite(means)).any(axis=3)
    failed = unknown | bad.any(axis=2)
    # The cells of a failing station and window get no valid year, so they
    # make up a group of their own, which is skipped.
    valid[failed] = False
    out = np.empty(means.shape[:3])
    for cells, t, x in _year_groups(panel.years.astype(np.float64), means, valid):
        if t.size >= need:
            out.reshape(-1)[cells] = _sen_rows(x, t) if kind == "slope" else x.mean(axis=1)
    for w, label in enumerate(window_labels):
        if unknown[w]:
            raise ContractError(f"unknown window label {label!r} for scale {panel.scale}")
        if failed[:, w].any():
            s = int(np.argmax(failed[:, w]))
            hour = int(np.argmax(bad[s, w]))
            if n[s, w, hour] >= need:
                raise ContractError("Sen's slope input must be finite")
            raise ContractError(f"station {panel.stations[s]}, window {label}, hour {hour}: " + (
                f"need at least 2 valid years for slope features, have {n[s, w, hour]}"
                if kind == "slope" else "no valid years for level features"))
        yield {sid: out[s, w] for s, sid in enumerate(panel.stations)}


def table_windows(table) -> np.ndarray:
    """The window positions (``window_index``) of the rows of a table with
    ``scale`` and ``window_label`` columns; the first row whose label is not
    of its scale raises ``ContractError``."""
    window = window_index(unique_runs(table.scale), unique_runs(table.window_label))[1]
    if (window < 0).any():
        k = int(np.argmax(window < 0))
        raise ContractError(f"label {table.window_label[k]!r} does not belong to scale "
                            f"{table.scale[k]!r}")
    return window


def write_trend_csv(path: str | Path, table: TrendTable) -> None:
    """Write trend cells in (station, scale, window, hour) order, with the
    bytes of ``csv.writer``. Rows are ordered by one lexsort, and each
    ``BLOCK_LINES`` of them are one block of ``write_blocks``: each column
    rendered once per distinct value by ``fmt_column``."""
    order = np.lexsort((table.hour, table_windows(table), unique_runs(table.scale)[1],
                        unique_runs(table.station_id)[1]))
    write_blocks(path, TREND_HEADER, (
        csv_pieces(map(fmt_column, table.take(order[lo:lo + BLOCK_LINES]).columns()))
        for lo in range(0, len(order), BLOCK_LINES)))


# (scale, window, hour) cells per station: no scale has more than 36 windows.
_STATION_CELLS = len(SCALES) * 36 * 24


def read_trend_csv(path: str | Path) -> TrendTable:
    """Read a trend CSV back into a table, rows in file order. Besides
    malformed fields, a row with an hour outside 0-23, a p-value outside
    [0, 1], a non-finite Sen's slope, a label outside its scale or a second
    row for the same (station, scale, window, hour) cell raises
    ``ParseError`` with its line, the first bad row of the file; so does an
    n or S outside int64.

    Each block is parsed by columns, every distinct text of a text, int or
    flag field once, and each check runs once on whole columns.
    """
    seen = np.zeros(0, bool)

    def parse(block, station):
        nonlocal seen
        if (grow := (int(station.max()) + 1) * _STATION_CELLS - len(seen)) > 0:
            seen = np.concatenate((seen, np.zeros(grow, bool)))
        return _trend_columns(block, station, seen)

    names, station, columns = read_station_rows(path, len(TREND_HEADER), "trend rows", parse)
    return TrendTable(np.array(names, dtype=object)[station], *columns)


def _trend_columns(block: Block, station: np.ndarray,
                   seen: np.ndarray) -> list[np.ndarray]:
    """The columns after ``station_id`` of one block's rows (numbered by
    ``station``), every distinct text of a text, int or flag field parsed
    once; ``seen``, a grid of ``_STATION_CELLS`` cells per station, marks
    the cells of the earlier blocks' rows and then of the block's own. The
    first bad row of the block raises ``ParseError``."""
    _, scale, label, hour, n, s, var_s, z, p, slope, lag1, flag = block.columns
    text = [factorize(column) for column in (scale, label)]
    scale_index, window = window_index(*text)
    ints, int_bad = zip(parse_ints(hour, bound=24), parse_ints(n), parse_ints(s))
    floats, float_bad = zip(*map(parse_floats, (var_s, z, p, slope, lag1)))
    flags, flag_code = factorize(flag)
    flag, flag_bad = (v[flag_code] for v in parse_each(parse_bool, flags, bool))
    malformed = np.logical_or.reduce([*int_bad, *float_bad, flag_bad])
    hour, p, slope = ints[0], floats[2], floats[3]
    # A cell's rows after its first, here or in an earlier block, are
    # repeats. A row off the grid breaks a rule before this one.
    cell = station * _STATION_CELLS + (scale_index * 36 + window) * 24 + hour
    on_grid = (scale_index >= 0) & (window >= 0) & (hour >= 0) & (hour <= 23)
    repeat = np.zeros(len(cell), bool)
    repeat[on_grid] = seen[cell[on_grid]] | repeats(cell[on_grid])
    seen[cell[on_grid]] = True
    check_rows(block, [
        (scale_index < 0, lambda row: f"unknown scale {row[1].strip()!r}"),
        (malformed, lambda row: "malformed numeric field"),
        ((hour < 0) | (hour > 23), lambda row: f"hour {int(row[3])} out of range 0-23"),
        (~((p >= 0.0) & (p <= 1.0)),
         lambda row: f"p_value {parse_float(row[8].strip())} out of [0, 1]"),
        (~np.isfinite(slope),
         lambda row: f"sen_slope {parse_float(row[9].strip())} is not finite"),
        (window < 0, lambda row: f"label {row[2].strip()!r} does not belong to "
                                 f"scale {row[1].strip()}"),
        (repeat,
         lambda row: f"station {row[0].strip()}: second row for scale {row[1].strip()}, "
                     f"window {row[2].strip()}, hour {int(row[3])}"),
    ])
    columns = [np.array(uniq, dtype=object)[index] for uniq, index in text]
    return [*columns, *ints, *floats, flag]
