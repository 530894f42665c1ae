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
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._util import (Block, ColumnTable, check_rows, csv_pieces, factorize, fmt_column,
                    parse_bool, parse_each, parse_float, parse_floats, parse_ints,
                    read_blocks, unique_runs, write_blocks)
from .aggregate import SCALES, WindowHourPanel, window_index
from .errors import (
    ContractError,
    DegenerateDataError,
    EmptyInputError,
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

    @classmethod
    def concat(cls, tables: Sequence[TrendTable]) -> TrendTable:
        """The rows of every table, in order."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables]) if tables else []
                     for f in fields(cls)))


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


def _year_groups(panel: WindowHourPanel, cells: np.ndarray) -> Iterator[tuple]:
    """Panel cells (flat ``window * 24 + hour`` indices) grouped by valid-year
    mask: per mask, its cells, valid years and C-contiguous (cells x years)
    matrix of yearly means."""
    shape = (len(panel.years), len(panel.labels) * 24)
    means = panel.means.reshape(shape)[:, cells]
    masks, group = _unique_rows(panel.cell_valid().reshape(shape)[:, cells].T)
    years = np.asarray(panel.years, dtype=np.float64)
    for g, mask in enumerate(masks):
        rows = np.flatnonzero(group.ravel() == g)
        yield cells[rows], years[mask], np.ascontiguousarray(means[mask][:, rows].T)


def trend_surface(panel: WindowHourPanel, min_years: int = MIN_YEARS) -> TrendTable:
    """Run MK + Sen + serial-correlation screening over every panel cell.

    Returns one row per kept cell, in (window, hour) order. Cells with
    fewer than ``min_years`` valid years, or whose yearly means are all
    tied, are left out of the result rather than reported with unusable
    statistics. The first kept cell with a non-finite mean, or a centered
    sum of squares that underflows to zero, raises the error ``mk_test``
    or ``lag1_autocorrelation`` raises for it.
    """
    if min_years < MIN_YEARS:
        raise ContractError(f"min_years must be at least {MIN_YEARS}")
    found, bad = [], []
    for cells, years, x in _year_groups(panel, np.arange(len(panel.labels) * 24)):
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
    cells = cells[order]
    return TrendTable(np.full(len(cells), panel.station_id, dtype=object),
                      np.full(len(cells), panel.scale, dtype=object),
                      np.array(panel.labels, dtype=object)[cells // 24], cells % 24,
                      *(v[order] for v in stats))


def hour_profiles(panels: Mapping[str, WindowHourPanel], window_label: str,
                  kind: str) -> dict[str, np.ndarray]:
    """Each station's 24-hour profile of one window, in sorted station order:
    Sen's slope across each cell's valid years (``kind="slope"``, two
    needed) or their mean (``"level"``, one needed). The first station and
    hour short of years, or with a non-finite slope input, raises."""
    need = 2 if kind == "slope" else 1
    out = {}
    for sid in sorted(panels):
        panel = panels[sid]
        if window_label not in panel.labels:
            raise ContractError(f"unknown window label {window_label!r} for scale {panel.scale}")
        w = panel.labels.index(window_label)
        valid = panel.cell_valid()[:, w]
        n = valid.sum(axis=0)
        bad = n < need
        if kind == "slope":
            bad |= ~np.isfinite(np.where(valid, panel.means[:, w], 0.0)).all(axis=0)
        if bad.any():
            hour = int(np.argmax(bad))
            if n[hour] >= need:
                raise ContractError("Sen's slope input must be finite")
            raise ContractError(f"station {sid}, window {window_label}, hour {hour}: " + (
                f"need at least 2 valid years for slope features, have {n[hour]}"
                if kind == "slope" else "no valid years for level features"))
        out[sid] = np.empty(24)
        for cells, years, x in _year_groups(panel, w * 24 + np.arange(24)):
            out[sid][cells - w * 24] = (_sen_rows(x, years) if kind == "slope"
                                        else x.mean(axis=1))
    return out


def table_windows(table) -> np.ndarray:
    """``window_index`` of the rows of a table with ``scale`` and
    ``window_label`` columns; the first row whose label is not of its scale
    raises ``ContractError``."""
    window = window_index(unique_runs(table.scale), unique_runs(table.window_label))
    if (window < 0).any():
        k = int(np.argmax(window < 0))
        raise ContractError(f"label {table.window_label[k]!r} does not belong to scale "
                            f"{table.scale[k]!r}")
    return window


def write_trend_csv(path: str | Path, table: TrendTable) -> None:
    """Write trend cells in (station, scale, window, hour) order, with the
    bytes of ``csv.writer``. Rows are ordered by one lexsort, and written
    as one block of ``write_blocks``: each column rendered once per
    distinct value by ``fmt_column``."""
    order = np.lexsort((table.hour, table_windows(table), unique_runs(table.scale)[1],
                        unique_runs(table.station_id)[1]))
    write_blocks(path, TREND_HEADER,
                 [csv_pieces(map(fmt_column, table.take(order).columns()))])


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
    codes: dict[str, int] = {}
    parts, seen = [], np.empty(0, np.int64)
    with open(path, "rb") as fh:
        for block in read_blocks(fh, len(TREND_HEADER)):
            if len(block.line_no):
                table, seen = _trend_columns(block, codes, seen)
                parts.append(table)
    if not parts:
        raise EmptyInputError(f"no trend rows found in {path}")
    return TrendTable.concat(parts)


def _trend_columns(block: Block, codes: dict[str, int],
                   seen: np.ndarray) -> tuple[TrendTable, np.ndarray]:
    """The table of one block's rows, every distinct text of a text, int or
    flag field parsed once, and ``seen`` with the block's cell keys added.
    ``seen`` holds one integer per cell of the earlier blocks, from
    ``codes``, which numbers the station ids in order of first appearance.
    The first bad row of the block raises ``ParseError``."""
    sid, scale, label, hour, n, s, var_s, z, p, slope, lag1, flag = block.columns
    text = [factorize(column) for column in (sid, scale, label)]
    (names, station), (scales, scale_code) = text[:2]
    window = window_index(text[1], text[2])
    ints, int_bad = zip(parse_ints(hour, bound=24), parse_ints(n), parse_ints(s))
    floats, float_bad = zip(*map(parse_floats, (var_s, z, p, slope, lag1)))
    flags, flag_code = factorize(flag)
    flag, flag_bad = (v[flag_code] for v in parse_each(parse_bool, flags, bool))
    malformed = np.logical_or.reduce([*int_bad, *float_bad, flag_bad])
    hour, p, slope = ints[0], floats[2], floats[3]
    scale_index = np.array([SCALES.index(sc) if sc in SCALES else -1
                            for sc in scales])[scale_code]
    # One integer per cell, below 3456 per station: a cell's rows after its
    # first, here or in an earlier block, are repeats.
    code = np.array([codes.setdefault(name, len(codes)) for name in names], np.int64)
    keys = np.concatenate((seen, ((code[station] * len(SCALES) + scale_index) * 36 + window)
                           * 24 + hour))
    repeat = np.ones(len(keys), bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
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
        (repeat[len(seen):], lambda row: f"station {row[0].strip()}: second row for scale "
                                         f"{row[1].strip()}, window {row[2].strip()}, "
                                         f"hour {int(row[3])}"),
    ])
    columns = [np.array(uniq, dtype=object)[index] for uniq, index in text]
    return TrendTable(*columns, *ints, *floats, flag), keys
