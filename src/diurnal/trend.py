"""Nonparametric trend detection across years.

Each (window, hour-of-day) cell of a panel yields one short series of
yearly means. The Mann-Kendall test gives the trend's significance, Sen's
slope estimates its magnitude in degrees per year, and the lag-1
autocorrelation of the cell flags series whose significance may be
inflated by serial dependence. Each statistic is one kernel over the rows
of a (cells x years) matrix; the scalar functions are its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import fmt, iter_rows, parse_bool, parse_float, write_csv
from .aggregate import SCALES, WindowHourPanel, build_calendar
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


@dataclass(frozen=True)
class TrendCell:
    station_id: str
    scale: str
    window_label: str
    hour: int
    n: int
    s: int
    var_s: float
    z: float
    p_value: float
    sen_slope: float
    lag1: float
    serial_flag: bool


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


def _year_groups(panel: WindowHourPanel, cells: np.ndarray) -> Iterator[tuple]:
    """Panel cells (flat ``window * 24 + hour`` indices) grouped by valid-year
    mask: per mask, its cells, valid years and C-contiguous (cells x years)
    matrix of yearly means."""
    shape = (len(panel.years), len(panel.labels) * 24)
    means = panel.means.reshape(shape)[:, cells]
    masks, group = np.unique(panel.cell_valid().reshape(shape)[:, cells].T, axis=0,
                             return_inverse=True)
    years = np.asarray(panel.years, dtype=np.float64)
    for g, mask in enumerate(masks):
        rows = np.flatnonzero(group.ravel() == g)
        yield cells[rows], years[mask], np.ascontiguousarray(means[mask][:, rows].T)


def trend_surface(panel: WindowHourPanel, min_years: int = MIN_YEARS) -> list[TrendCell]:
    """Run MK + Sen + serial-correlation screening over every panel cell.

    Cells with fewer than ``min_years`` valid years, or whose yearly means
    are all tied, are left out of the result rather than reported with
    unusable statistics. The first kept cell with a non-finite mean, or a
    centered sum of squares that underflows to zero, raises the error
    ``mk_test`` or ``lag1_autocorrelation`` raises for it.
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
        stats = (s[untied], var_s[untied], z[untied], p[untied], _sen_rows(x, years), r1,
                 serial_flag(r1, years.size))
        found += ((c, TrendCell(panel.station_id, panel.scale, panel.labels[c // 24],
                                c % 24, years.size, *v))
                  for c, *v in zip(cells.tolist(), *(a.tolist() for a in stats)))
    if bad:
        row = min(bad, key=itemgetter(0))[1]
        mk_test(row)
        lag1_autocorrelation(row)
    return [cell for _, cell in sorted(found, key=itemgetter(0))]


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


def window_order(scale: str) -> dict[str, int]:
    """Seasonal position of each window label, for stable sorting."""
    return {label: i for i, label in enumerate(build_calendar(scale).labels)}


def write_trend_csv(path: str | Path, cells: Iterable[TrendCell]) -> None:
    orders = {scale: window_order(scale) for scale in SCALES}
    ordered = sorted(cells, key=lambda c: (
        c.station_id, c.scale, orders[c.scale][c.window_label], c.hour))
    write_csv(path, TREND_HEADER, (
        (c.station_id, c.scale, c.window_label, c.hour, c.n, c.s, fmt(c.var_s), fmt(c.z),
         fmt(c.p_value), fmt(c.sen_slope), fmt(c.lag1), fmt(c.serial_flag))
        for c in ordered))


def read_trend_csv(path: str | Path) -> list[TrendCell]:
    """Read a trend CSV back into cells. Besides malformed fields, a row
    with an hour outside 0-23, a p-value outside [0, 1], a non-finite Sen's
    slope, a label outside its scale or a second row for the same (station,
    scale, window, hour) cell raises ``ParseError`` with its line."""
    labels = {scale: window_order(scale) for scale in SCALES}
    cells = []
    seen = set()
    for line_no, row in iter_rows(path, 12):
        sid, scale, label, hour, n, s, var_s, z, p, slope, lag1, flag = (
            f.strip() for f in row)
        if scale not in SCALES:
            raise ParseError(f"unknown scale {scale!r}", line_no)
        try:
            cell = TrendCell(
                sid, scale, label, int(hour), int(n), int(s),
                parse_float(var_s), parse_float(z), parse_float(p),
                parse_float(slope), parse_float(lag1), parse_bool(flag))
        except ValueError:
            raise ParseError("malformed numeric field", line_no) from None
        if not 0 <= cell.hour <= 23:
            raise ParseError(f"hour {cell.hour} out of range 0-23", line_no)
        if not 0.0 <= cell.p_value <= 1.0:
            raise ParseError(f"p_value {cell.p_value} out of [0, 1]", line_no)
        if not math.isfinite(cell.sen_slope):
            raise ParseError(f"sen_slope {cell.sen_slope} is not finite", line_no)
        if label not in labels[scale]:
            raise ParseError(f"label {label!r} does not belong to scale {scale}", line_no)
        key = (sid, scale, label, cell.hour)
        if key in seen:
            raise ParseError(f"station {sid}: second row for scale {scale}, window {label}, "
                             f"hour {cell.hour}", line_no)
        seen.add(key)
        cells.append(cell)
    if not cells:
        raise EmptyInputError(f"no trend rows found in {path}")
    return cells
