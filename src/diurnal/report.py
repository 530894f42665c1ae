"""Plot-ready outputs: contour bins, cluster tables, radar sheets, plus a
synthetic station generator for demos and self-checks.

Everything here emits plain CSV or text; actual drawing is left to whatever
plotting stack consumes the files.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._util import fmt, iter_rows, parse_float, roman, write_csv
from .errors import ContractError, EmptyInputError, ParseError
from .impute import MONTH_ABBR
from .ingest import HALF_HOUR, HOUR, StationMeta, TemperatureSeries
from .similarity import ClusterReport, Merge
from .trend import TrendCell, window_order

SLOPE_BANDS = ("(-1.0, -0.03]", "(-0.03, 0.0]", "(0.0, 0.03]", "(0.03, 1.0]")
P_BANDS = ("(0.001, 0.05]", "(0.05, 0.10]", "(0.10, 1]")

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
    return (SLOPE_BANDS[bisect_left((-0.03, 0.0, 0.03), sen_slope)],
            P_BANDS[bisect_left((0.05, 0.10), p_value)])


@dataclass(frozen=True)
class ContourCell:
    window_label: str
    hour: int
    sen_slope: float
    p_value: float
    slope_band: str
    p_band: str


@dataclass
class ContourGrid:
    """Binned trend cells for one station, in seasonal window order."""

    station_id: str
    scale: str
    cells: list[ContourCell]


def contour_grid(cells: Iterable[TrendCell]) -> list[ContourGrid]:
    """Bin trend cells and group them into per-station contour grids."""
    by_station: dict[str, list[TrendCell]] = {}
    scales: dict[str, str] = {}
    for c in cells:
        by_station.setdefault(c.station_id, []).append(c)
        if scales.setdefault(c.station_id, c.scale) != c.scale:
            raise ContractError(f"station {c.station_id} mixes scales in one contour grid")
    grids = []
    for sid in sorted(by_station):
        order = window_order(scales[sid])
        rows = sorted(by_station[sid], key=lambda c: (order[c.window_label], c.hour))
        grids.append(ContourGrid(sid, scales[sid], [
            ContourCell(c.window_label, c.hour, c.sen_slope, c.p_value,
                        *bin_cell(c.sen_slope, c.p_value)) for c in rows]))
    return grids


def write_contour_csv(path: str | Path, grids: Iterable[ContourGrid]) -> None:
    write_csv(path, CONTOUR_HEADER, (
        (g.station_id, g.scale, c.window_label, c.hour, fmt(c.sen_slope), fmt(c.p_value),
         c.slope_band, c.p_band)
        for g in sorted(grids, key=lambda g: g.station_id) for c in g.cells))


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
    not including the same instant ``n_years`` calendar years later. With
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
    if noise_sd < 0:
        raise ContractError("noise_sd must be non-negative")
    if not 0.0 <= missing_rate < 1.0:
        raise ContractError("missing_rate must be in [0, 1)")
    end = start.replace(year=start.year + n_years)
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

