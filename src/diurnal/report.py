"""Plot-ready outputs: contour bins, cluster tables, radar sheets, plus a
synthetic station generator for demos and self-checks.

Everything here emits plain CSV or text; actual drawing is left to whatever
plotting stack consumes the files. Contour bins are a ``ContourTable`` of
columns, binned from a ``TrendTable`` in whole arrays and written in one
block.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._util import (ColumnTable, csv_pieces, fmt, fmt_column, iter_rows, parse_float,
                    roman, unique_runs, write_blocks, write_csv)
from .errors import ContractError, EmptyInputError, ParseError
from .impute import MONTH_ABBR
from .ingest import HALF_HOUR, HOUR, StationMeta, TemperatureSeries
from .similarity import ClusterReport, Merge
from .trend import TrendTable, table_windows

SLOPE_BANDS = ("(-1.0, -0.03]", "(-0.03, 0.0]", "(0.0, 0.03]", "(0.03, 1.0]")
P_BANDS = ("(0.001, 0.05]", "(0.05, 0.10]", "(0.10, 1]")
# The inner edges of the bands.
_SLOPE_EDGES = (-0.03, 0.0, 0.03)
_P_EDGES = (0.05, 0.10)

CONTOUR_HEADER = ("station_id", "scale", "window_label", "hour",
                  "sen_slope", "p_value", "slope_band", "p_band")
CLUSTER_HEADER = ("station_id", "cluster_id", "silhouette")
MERGES_HEADER = ("step", "clusterA", "clusterB", "height")
RADAR_HEADER = ("month", "cluster", "region", "mean_silhouette", "count")


def bin_cell(sen_slope: float, p_value: float) -> tuple[str, str]:
    """Assign a trend cell to its (slope band, p band).

    Band intervals are left-exclusive, right-inclusive. Slopes beyond
    +/-1 degree per year and p-values below 0.001 land in the nearest
    extreme band rather than falling off the grid.
    """
    if not math.isfinite(sen_slope):
        raise ContractError("sen_slope must be finite")
    if not (math.isfinite(p_value) and 0.0 <= p_value <= 1.0):
        raise ContractError(f"p_value {p_value} out of [0, 1]")
    # bisect_left counts the band edges below the value, so an edge value
    # stays in the band it closes.
    return (SLOPE_BANDS[bisect_left(_SLOPE_EDGES, sen_slope)],
            P_BANDS[bisect_left(_P_EDGES, p_value)])


@dataclass(frozen=True, eq=False)
class ContourTable(ColumnTable):
    """Binned trend cells as columns, one per ``CONTOUR_HEADER`` field:
    text as object arrays of ``str``, ``hour`` as int64, the slope and p as
    float64, and each band as its int64 index into ``SLOPE_BANDS`` or
    ``P_BANDS``. ``contour_grid`` gives the rows by station, then in
    seasonal window order and by hour."""

    DTYPES = (object, object, object, np.int64, np.float64, np.float64, np.int64, np.int64)

    station_id: np.ndarray
    scale: np.ndarray
    window_label: np.ndarray
    hour: np.ndarray
    sen_slope: np.ndarray
    p_value: np.ndarray
    slope_band: np.ndarray
    p_band: np.ndarray


def contour_grid(table: TrendTable) -> ContourTable:
    """Bin trend cells (``bin_cell`` row by row) and order them by station,
    then in seasonal window order and by hour. The first row of a station
    whose scale differs from the station's first row raises
    ``ContractError``, and so does the first row in that order that
    ``bin_cell`` rejects."""
    station = unique_runs(table.station_id)[1]
    scale = unique_runs(table.scale)[1]
    first = np.unique(station, return_index=True)[1]
    mixed = scale != scale[first[station]]
    if mixed.any():
        sid = table.station_id[np.argmax(mixed)]
        raise ContractError(f"station {sid} mixes scales in one contour grid")
    t = table.take(np.lexsort((table.hour, table_windows(table), station)))
    slope, p = t.sen_slope, t.p_value
    bad = ~np.isfinite(slope) | ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        bin_cell(float(slope[k]), float(p[k]))
    # searchsorted on the left counts the band edges below the value, as
    # bin_cell's bisect_left does.
    return ContourTable(t.station_id, t.scale, t.window_label, t.hour, slope, p,
                        np.searchsorted(_SLOPE_EDGES, slope, side="left"),
                        np.searchsorted(_P_EDGES, p, side="left"))


def write_contour_csv(path: str | Path, table: ContourTable) -> None:
    """Write binned cells in table order, with the bytes of ``csv.writer``:
    one block of ``write_blocks``, each column rendered as in
    ``write_trend_csv`` and each band as its text."""
    write_blocks(path, CONTOUR_HEADER, [csv_pieces(map(fmt_column, (
        *table.columns()[:6], np.array(SLOPE_BANDS, dtype=object)[table.slope_band],
        np.array(P_BANDS, dtype=object)[table.p_band])))])


def write_cluster_csv(path: str | Path, report: ClusterReport,
                      scores: Mapping[str, float]) -> None:
    write_csv(path, CLUSTER_HEADER, ((sid, report.assignment[sid], fmt(float(scores[sid])))
                                     for sid in sorted(report.labels)))


def read_cluster_csv(path: str | Path) -> dict[str, tuple[int, float]]:
    """Read station -> (cluster_id, silhouette) from a cluster CSV. A row
    with a cluster id below 1, or a silhouette that is empty or outside
    [-1, 1], raises ``ParseError`` with its line, as a malformed one does."""
    out: dict[str, tuple[int, float]] = {}
    for line_no, row in iter_rows(path, 3):
        sid = row[0].strip()
        if sid in out:
            raise ParseError(f"duplicate station_id {sid!r}", line_no)
        try:
            cid, score = int(row[1]), parse_float(row[2])
        except ValueError:
            raise ParseError("malformed cluster id or silhouette", line_no) from None
        if cid < 1:
            raise ParseError(f"cluster id {cid} is not positive", line_no)
        if not -1.0 <= score <= 1.0:
            raise ParseError(f"silhouette {score} out of [-1, 1]", line_no)
        out[sid] = (cid, score)
    if not out:
        raise EmptyInputError(f"no cluster rows found in {path}")
    return out


def write_merges_csv(path: str | Path, merges: Iterable[Merge]) -> None:
    write_csv(path, MERGES_HEADER, ((m.step, m.cluster_a, m.cluster_b, fmt(m.height))
                                    for m in sorted(merges, key=lambda m: m.step)))


def cluster_table(report: ClusterReport, scores: Mapping[str, float],
                  meta: Mapping[str, StationMeta] | None = None) -> str:
    """Human-readable cluster membership table.

    One block per cluster with its size and mean silhouette, then one line
    per member station with group, region and individual silhouette.
    Stations missing from ``meta`` show '-' in those columns.
    """
    lines = []
    for cid in sorted(set(report.assignment.values())):
        members = report.members(cid)
        mean = sum(scores[m] for m in members) / len(members)
        lines.append(f"Cluster {roman(cid).lower()} (n={len(members)}, mean silhouette {mean:.3f})")
        for sid in members:
            m = meta.get(sid) if meta else None
            group = m.group.value if m else "-"
            region = m.region.value if m else "-"
            lines.append(f"  {sid:<16} {group:<4} {region:<12} {scores[sid]:+.3f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RadarRow:
    month: str
    cluster: int
    region: str
    mean_silhouette: float
    count: int


@dataclass
class RadarSheet:
    """Month x cluster x region silhouette summary for radar plots."""

    rows: list[RadarRow]


def radar_sheet(monthly: Mapping[str, Mapping[str, tuple[int, float]]],
                meta: Mapping[str, StationMeta]) -> RadarSheet:
    """Summarize monthly clusterings by region.

    ``monthly`` maps a month label to that month's station ->
    (cluster_id, silhouette) assignment. Each output row covers the
    stations of one region inside one cluster of one month: their count
    and mean silhouette.
    """
    if not monthly:
        raise EmptyInputError("no monthly clusterings given")
    rows: list[RadarRow] = []
    for month in [m for m in MONTH_ABBR if m in monthly]:
        groups: dict[tuple[int, str], list[float]] = {}
        for sid, (cid, score) in monthly[month].items():
            if sid not in meta:
                raise ContractError(f"station {sid} missing from metadata")
            groups.setdefault((cid, meta[sid].region.value), []).append(score)
        for (cid, region), vals in sorted(groups.items()):
            rows.append(RadarRow(month, cid, region, sum(vals) / len(vals), len(vals)))
    unknown = set(monthly) - set(MONTH_ABBR)
    if unknown:
        raise ContractError(f"unknown month labels: {sorted(unknown)}")
    return RadarSheet(rows)


def write_radar_csv(path: str | Path, sheet: RadarSheet) -> None:
    write_csv(path, RADAR_HEADER, ((r.month, r.cluster, r.region, fmt(r.mean_silhouette),
                                   r.count) for r in sheet.rows))


def synth_station(station_id: str,
                  start: datetime,
                  n_years: int = 10,
                  step: timedelta = HOUR,
                  base: float = 10.0,
                  diurnal_amplitude: float = 5.0,
                  annual_amplitude: float = 0.0,
                  trend_per_year: float = 0.0,
                  noise_sd: float = 0.0,
                  missing_rate: float = 0.0,
                  seed: int | Sequence[int] = 0) -> TemperatureSeries:
    """Generate a synthetic station series with known structure.

    temp(t) = base
            + diurnal_amplitude * sin(2*pi * hour_of_day / 24)
            + annual_amplitude  * sin(2*pi * day_of_year / 365.25)
            + trend_per_year * (year - start year)
            + Normal(0, noise_sd)

    The series runs from ``start`` (naive UTC, on the step grid) up to but
    not including the same instant ``n_years`` calendar years later; a
    series that starts on 29 February and whose end year is not a leap
    year ends at the same time on 1 March of that year instead. With
    ``noise_sd`` zero no random numbers are drawn at all, so the output is
    a pure closed-form surface; ``missing_rate`` masks slots independently
    at that rate, after the noise draw.
    """
    if start.tzinfo is not None:
        raise ContractError("start must be a naive UTC datetime")
    if step not in (HOUR, HALF_HOUR):
        raise ContractError("step must be one hour or 30 minutes")
    if n_years < 1:
        raise ContractError(f"n_years must be at least 1, got {n_years}")
    if start.year + n_years > 9999:
        raise ContractError(
            f"start year {start.year} plus {n_years} years passes year 9999")
    if noise_sd < 0:
        raise ContractError("noise_sd must be non-negative")
    if not 0.0 <= missing_rate < 1.0:
        raise ContractError("missing_rate must be in [0, 1)")
    try:
        end = start.replace(year=start.year + n_years)
    except ValueError:  # 29 February, and the end year is not a leap year
        end = start.replace(year=start.year + n_years, month=3, day=1)
    step_s = int(step.total_seconds())
    n = int((end - start).total_seconds()) // step_s
    idx = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(step_s, "s")
    sec_of_day = (idx - idx.astype("datetime64[D]").astype("datetime64[s]")).astype(np.int64)
    hour_of_day = sec_of_day / 3600.0
    year_start = idx.astype("datetime64[Y]").astype("datetime64[s]")
    day_of_year = (idx - year_start).astype(np.int64) / 86400.0
    years = idx.astype("datetime64[Y]").astype(np.int64) + 1970
    temp = (base
            + diurnal_amplitude * np.sin(2.0 * np.pi * hour_of_day / 24.0)
            + annual_amplitude * np.sin(2.0 * np.pi * day_of_year / 365.25)
            + trend_per_year * (years - start.year))
    rng = None
    if noise_sd > 0.0:
        rng = np.random.default_rng(seed)
        temp = temp + rng.normal(0.0, noise_sd, n)
    missing = np.zeros(n, dtype=bool)
    if missing_rate > 0.0:
        if rng is None:
            rng = np.random.default_rng(seed)
        missing = rng.random(n) < missing_rate
    return TemperatureSeries(station_id, start, step, temp, missing)

