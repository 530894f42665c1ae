"""Plot-ready outputs: contour bins, cluster tables and radar rows.

Everything here emits plain CSV or text; actual drawing is left to whatever
plotting stack consumes the files. Contour bins are a ``ContourTable`` of
columns, binned from a ``TrendTable`` in whole arrays and written in one
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._util import (ColumnTable, csv_pieces, fmt, fmt_column, iter_rows, parse_float,
                    roman, unique_runs, write_blocks, write_csv)
from .errors import ContractError, EmptyInputError, ParseError
from .impute import MONTH_ABBR
from .ingest import Region, StationGroup, StationMeta, station_codes
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
    """Assign a trend cell to its (slope band, p band): the one-row case of
    ``contour_grid``'s banding.

    Band intervals are left-exclusive, right-inclusive. Slopes beyond
    +/-1 degree per year and p-values below 0.001 land in the nearest
    extreme band rather than falling off the grid.
    """
    slope_band, p_band = _bands(np.array([sen_slope], np.float64),
                                np.array([p_value], np.float64))
    return SLOPE_BANDS[slope_band[0]], P_BANDS[p_band[0]]


def _bands(slope: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slope and p band index of each cell, into ``SLOPE_BANDS`` and
    ``P_BANDS``. The first cell whose slope is not finite, or whose p-value
    is outside [0, 1], raises ``ContractError``; the slope is checked first."""
    bad = ~np.isfinite(slope) | ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(slope[k]):
            raise ContractError("sen_slope must be finite")
        raise ContractError(f"p_value {float(p[k])} out of [0, 1]")
    # searchsorted on the left counts the band edges below the value, so an
    # edge value stays in the band it closes.
    return (np.searchsorted(_SLOPE_EDGES, slope, side="left"),
            np.searchsorted(_P_EDGES, p, side="left"))


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
    """Bin trend cells, which hold one scale, into slope and p bands and
    order them by station, then in seasonal window order and by hour. A
    table of more than one scale, or with a label outside its scale, raises
    the ``ContractError`` of ``table_windows``; so does the first row in
    that order that ``bin_cell`` would reject."""
    order = (table.hour, table_windows(table), unique_runs(table.station_id)[1])
    t = table.take(np.lexsort(order))
    return ContourTable(t.station_id, t.scale, t.window_label, t.hour, t.sen_slope,
                        t.p_value, *_bands(t.sen_slope, t.p_value))


def write_contour_csv(path: str | Path, table: ContourTable) -> None:
    """Write binned cells in table order, with the bytes of ``csv.writer``:
    one block of ``write_blocks``, each column rendered as in
    ``write_trend_csv`` and each band as its text: each band's field
    rendered once, then picked by the band index."""
    bands = [np.array(fmt_column(np.array(texts, dtype=object)), dtype=object)[index].tolist()
             for index, texts in ((table.slope_band, SLOPE_BANDS), (table.p_band, P_BANDS))]
    write_blocks(path, CONTOUR_HEADER,
                 [csv_pieces([*map(fmt_column, table.columns()[:6]), *bands])])


def write_cluster_csv(path: str | Path, report: ClusterReport,
                      scores: Mapping[str, float]) -> None:
    write_csv(path, CLUSTER_HEADER, ((sid, report.assignment[sid], fmt(float(scores[sid])))
                                     for sid in sorted(report.labels)))


def read_cluster_csv(path: str | Path) -> dict[str, tuple[int, float]]:
    """Read station -> (cluster_id, silhouette) from a cluster CSV. A row
    with an empty station id, a cluster id below 1, or a silhouette that is
    empty or outside [-1, 1], raises ``ParseError`` with its line, as a
    malformed one does."""
    out: dict[str, tuple[int, float]] = {}
    for line_no, row in iter_rows(path, 3):
        sid = row[0].strip()
        if not sid:
            raise ParseError("empty station_id", line_no)
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
                  meta: Mapping[str, StationMeta]) -> str:
    """Human-readable cluster membership table.

    One block per cluster with its size and mean silhouette, then one line
    per member station with group, region and individual silhouette. The
    group and region come from ``station_codes``, the one join of stations
    to ``meta`` and the home of its rule: the first station of
    ``report.labels`` that ``meta`` lacks raises ``ContractError``.
    """
    groups, regions = tuple(StationGroup), tuple(Region)
    names = {sid: (groups[g].value, regions[r].value)
             for sid, g, r in zip(report.labels, *station_codes(report.labels, meta))}
    lines = []
    for cid in sorted(set(report.assignment.values())):
        members = report.members(cid)
        mean = sum(scores[m] for m in members) / len(members)
        lines.append(f"Cluster {roman(cid).lower()} (n={len(members)}, mean silhouette {mean:.3f})")
        for sid in members:
            group, region = names[sid]
            lines.append(f"  {sid:<16} {group:<4} {region:<12} {scores[sid]:+.3f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RadarRow:
    month: str
    cluster: int
    region: str
    mean_silhouette: float
    count: int


def radar_sheet(monthly: Mapping[str, Mapping[str, tuple[int, float]]],
                meta: Mapping[str, StationMeta]) -> list[RadarRow]:
    """Summarize monthly clusterings by region: month x cluster x region
    silhouette rows for radar plots.

    ``monthly`` maps a month label to that month's station ->
    (cluster_id, silhouette) assignment. Each output row covers the
    stations of one region inside one cluster of one month: their count
    and mean silhouette; a month's rows are ordered by cluster, then by
    region text. Regions come from ``station_codes``, the one join of
    stations to ``meta`` and the home of its rule: the first station, in
    month order and then in each month's own order, that ``meta`` lacks
    raises ``ContractError``.
    """
    if not monthly:
        raise EmptyInputError("no monthly clusterings given")
    regions = tuple(Region)
    rows: list[RadarRow] = []
    for month in [m for m in MONTH_ABBR if m in monthly]:
        groups: dict[tuple[int, str], list[float]] = {}
        _, codes = station_codes(monthly[month], meta)
        for (cid, score), code in zip(monthly[month].values(), codes):
            groups.setdefault((cid, regions[code].value), []).append(score)
        for (cid, region), vals in sorted(groups.items()):
            rows.append(RadarRow(month, cid, region, sum(vals) / len(vals), len(vals)))
    unknown = set(monthly) - set(MONTH_ABBR)
    if unknown:
        raise ContractError(f"unknown month labels: {sorted(unknown)}")
    return rows


def write_radar_csv(path: str | Path, rows: Iterable[RadarRow]) -> None:
    write_csv(path, RADAR_HEADER, ((r.month, r.cluster, r.region, fmt(r.mean_silhouette),
                                   r.count) for r in rows))
