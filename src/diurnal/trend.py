"""Nonparametric trend detection across years.

Each (window, hour-of-day) cell of a panel yields one short series of
yearly means. The Mann-Kendall test gives the trend direction and its
significance, Sen's slope estimates the magnitude in degrees per year, and
the lag-1 autocorrelation of the cell flags series whose significance may
be inflated by serial dependence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._util import fmt, iter_rows, parse_bool, parse_float
from .aggregate import SCALES, WindowHourPanel, build_calendar, year_series
from .errors import (
    ContractError,
    DegenerateDataError,
    EmptyInputError,
    ParseError,
    SampleTooSmallError,
)

TREND_HEADER = ("station_id", "scale", "window_label", "hour", "n", "S", "var_S",
                "z", "p_value", "sen_slope", "lag1", "serial_flag")

ALPHA = 0.05
MIN_YEARS = 3


class Direction(str, Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NO_TREND = "no_trend"


@dataclass(frozen=True)
class MKResult:
    n: int
    s: int
    var_s: float
    z: float
    p_value: float
    direction: Direction


@dataclass(frozen=True)
class SenSlope:
    slope: float
    intercept: float
    n_pairs: int


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
    iu = np.triu_indices(n, k=1)
    diffs = arr[iu[1]] - arr[iu[0]]
    s = int(np.sign(diffs).sum())
    var_s = n * (n - 1) * (2 * n + 5)
    _, tie_counts = np.unique(arr, return_counts=True)
    for t in tie_counts:
        if t > 1:
            var_s -= t * (t - 1) * (2 * t + 5)
    var_s /= 18.0
    if var_s <= 0:
        raise DegenerateDataError("all values tied, Mann-Kendall variance is zero")
    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))
    if p >= ALPHA:
        direction = Direction.NO_TREND
    else:
        direction = Direction.INCREASING if s > 0 else Direction.DECREASING
    return MKResult(n, s, float(var_s), float(z), float(p), direction)


def sen_slope(x: Sequence[float], t: Sequence[float] | None = None) -> SenSlope:
    """Sen's slope: the median of all pairwise slopes (x_j - x_k)/(t_j - t_k).

    ``t`` defaults to 0..n-1. Pairs with equal t are skipped; if every pair
    collapses that way the slope is undefined and ``DegenerateDataError``
    is raised. The intercept is median(x) - slope * median(t).
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
    iu = np.triu_indices(n, k=1)
    dt = tt[iu[1]] - tt[iu[0]]
    dx = arr[iu[1]] - arr[iu[0]]
    usable = dt != 0
    if not usable.any():
        raise DegenerateDataError("all time points coincide, Sen's slope is undefined")
    slopes = np.sort(dx[usable] / dt[usable])
    m = slopes.size
    if m % 2:
        slope = float(slopes[m // 2])
    else:
        slope = float(0.5 * (slopes[m // 2 - 1] + slopes[m // 2]))
    intercept = float(np.median(arr) - slope * np.median(tt))
    return SenSlope(slope, intercept, int(m))


def lag1_autocorrelation(x: Sequence[float]) -> float:
    """Lag-1 autocorrelation r1 = sum(d_t * d_{t+1}) / sum(d_t^2), d = x - mean."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2:
        raise SampleTooSmallError(f"lag-1 autocorrelation needs at least 2 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("lag-1 autocorrelation input must be finite")
    d = arr - arr.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateDataError(
            "centered sum of squares is zero, lag-1 autocorrelation is undefined")
    return float(np.dot(d[:-1], d[1:]) / denom)


def serial_flag(r1: float, n: int) -> bool:
    """True when |r1| exceeds the 5% two-sided bound 1.96/sqrt(n)."""
    if n < 1:
        raise SampleTooSmallError("serial flag needs n >= 1")
    return abs(r1) > 1.96 / math.sqrt(n)


def trend_surface(panel: WindowHourPanel, min_years: int = MIN_YEARS) -> list[TrendCell]:
    """Run MK + Sen + serial-correlation screening over every panel cell.

    Cells with fewer than ``min_years`` valid years, or whose yearly means
    are all tied, are left out of the result rather than reported with
    unusable statistics.
    """
    if min_years < MIN_YEARS:
        raise ContractError(f"min_years must be at least {MIN_YEARS}")
    cells = []
    for label in panel.labels:
        for hour in range(24):
            years, vals = year_series(panel, label, hour)
            if years.size < min_years:
                continue
            try:
                mk = mk_test(vals)
            except DegenerateDataError:
                continue
            sen = sen_slope(vals, years)
            r1 = lag1_autocorrelation(vals)
            cells.append(TrendCell(
                panel.station_id, panel.scale, label, hour,
                mk.n, mk.s, mk.var_s, mk.z, mk.p_value,
                sen.slope, r1, serial_flag(r1, int(years.size)),
            ))
    return cells


def window_order(scale: str) -> dict[str, int]:
    """Seasonal position of each window label, for stable sorting."""
    return {label: i for i, label in enumerate(build_calendar(scale).labels)}


def write_trend_csv(path: str | Path, cells: Iterable[TrendCell]) -> None:
    orders = {scale: window_order(scale) for scale in SCALES}
    ordered = sorted(cells, key=lambda c: (
        c.station_id, c.scale, orders[c.scale][c.window_label], c.hour))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TREND_HEADER)
        for c in ordered:
            writer.writerow((c.station_id, c.scale, c.window_label, c.hour,
                             c.n, c.s, fmt(c.var_s), fmt(c.z), fmt(c.p_value),
                             fmt(c.sen_slope), fmt(c.lag1), fmt(c.serial_flag)))


def read_trend_csv(path: str | Path) -> list[TrendCell]:
    cells = []
    for line_no, row in iter_rows(path, 12):
        sid, scale, label, hour, n, s, var_s, z, p, slope, lag1, flag = (
            f.strip() for f in row)
        if scale not in SCALES:
            raise ParseError(f"unknown scale {scale!r}", line_no)
        try:
            cells.append(TrendCell(
                sid, scale, label, int(hour), int(n), int(s),
                parse_float(var_s), parse_float(z), parse_float(p),
                parse_float(slope), parse_float(lag1), parse_bool(flag)))
        except ValueError:
            raise ParseError("malformed numeric field", line_no) from None
    if not cells:
        raise EmptyInputError(f"no trend rows found in {path}")
    return cells
