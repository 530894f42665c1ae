"""Station metadata and raw temperature record ingestion.

Raw records arrive as CSV rows ``station_id,timestamp,temp_c`` with ISO-8601
UTC timestamps; an empty temperature field marks a missing reading. Parsing
produces a dense fixed-step series: every slot between the first and last
timestamp exists, and slots without a usable reading are masked rather than
omitted. Half-hourly series are normalized to hourly means with
:func:`to_hourly`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._util import (
    BLOCK_LINES,
    Block,
    Column,
    Piece,
    check_rows,
    csv_prefix,
    factorize,
    fmt,
    fmt_column,
    gather,
    iter_rows,
    parse_each,
    parse_floats,
    read_blocks,
    write_blocks,
    write_csv,
)
from .errors import (
    ContractError,
    DuplicateTimestampError,
    EmptyInputError,
    ParseError,
)

RECORDS_HEADER = ("station_id", "timestamp", "temp_c")
METADATA_HEADER = (
    "station_id", "name", "group", "region", "latitude", "longitude", "altitude_m",
)

HOUR = timedelta(hours=1)
HALF_HOUR = timedelta(minutes=30)


class StationGroup(str, Enum):
    UKH = "UKH"
    UKL = "UKL"
    IH = "IH"
    IL = "IL"


class Region(str, Enum):
    UK = "UK"
    PIEMONTE = "Piemonte"
    VALLE_DAOSTA = "ValleDAosta"


_GROUP_REGIONS = {
    StationGroup.UKH: {Region.UK},
    StationGroup.UKL: {Region.UK},
    StationGroup.IH: {Region.PIEMONTE, Region.VALLE_DAOSTA},
    StationGroup.IL: {Region.PIEMONTE, Region.VALLE_DAOSTA},
}


@dataclass(frozen=True)
class StationMeta:
    """One station's descriptive record."""

    station_id: str
    name: str
    group: StationGroup
    region: Region
    latitude: float
    longitude: float
    altitude_m: float

    def __post_init__(self):
        if not self.station_id:
            raise ContractError("station_id must be non-empty")
        if not -90.0 <= self.latitude <= 90.0:
            raise ContractError(
                f"station {self.station_id}: latitude {self.latitude} out of [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ContractError(
                f"station {self.station_id}: longitude {self.longitude} out of [-180, 180]")
        if self.altitude_m < 0:
            raise ContractError(
                f"station {self.station_id}: altitude {self.altitude_m} is negative")
        if self.region not in _GROUP_REGIONS[self.group]:
            raise ContractError(
                f"station {self.station_id}: group {self.group.value} is inconsistent "
                f"with region {self.region.value}")


@dataclass
class TemperatureSeries:
    """A dense fixed-step temperature series with an explicit missing mask.

    The timestamp of slot ``k`` is ``start + k * step``; gaps are masked,
    never dropped, so the index itself never has holes. Masked slots hold
    NaN in ``values``.
    """

    station_id: str
    start: datetime
    step: timedelta
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.missing = np.asarray(self.missing, dtype=bool)
        if self.values.shape != self.missing.shape or self.values.ndim != 1:
            raise ContractError("values and missing must be equal-length 1-D arrays")
        if self.step <= timedelta(0):
            raise ContractError("step must be positive")
        observed = self.values[~self.missing]
        if observed.size and not np.all(np.isfinite(observed)):
            raise ContractError("non-missing values must be finite")
        self.values = np.where(self.missing, np.nan, self.values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def index64(self) -> np.ndarray:
        """Slot timestamps as a ``datetime64[us]`` array."""
        step = np.timedelta64(self.step // _US, "us")
        return np.datetime64(self.start, "us") + np.arange(self.n) * step

    def timestamp(self, k: int) -> datetime:
        return self.start + k * self.step


@dataclass(frozen=True)
class MissingReport:
    station_id: str
    total_slots: int
    missing_slots: int
    missing_pct: float


def time_fields(index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a datetime64 index into (year, month, day, hour) integer arrays."""
    months64 = index.astype("datetime64[M]")
    days64 = index.astype("datetime64[D]")
    years = index.astype("datetime64[Y]").astype(np.int64) + 1970
    months = months64.astype(np.int64) % 12 + 1
    days = (days64 - months64.astype("datetime64[D]")).astype(np.int64) + 1
    hours = (index.astype("datetime64[h]") - days64.astype("datetime64[h]")).astype(np.int64)
    return years, months, days, hours


_US = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1)
_DAY_US = 86_400_000_000


def timestamp_us(text: str) -> int:
    """UTC microseconds since 1970 of a stripped timestamp, as
    ``datetime.fromisoformat`` reads it, with ``Z`` or ``z`` for UTC; a time
    without an offset is UTC. Raises ``ValueError`` where ``fromisoformat``
    does, and ``OverflowError`` where the offset moves the time outside
    years 1-9999."""
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return (ts - _EPOCH) // _US


def parse_timestamps(column: Column) -> tuple[np.ndarray, np.ndarray]:
    """``timestamp_us`` of every row of a column of stripped timestamps.

    Rows laid out as ``YYYY-MM-DD``, then ``T`` or a space, then
    ``HH:MM:SS`` and an optional ``Z``, from year 1 on, go through numpy's
    datetime64 cast in bulk, which rejects the dates and times
    ``fromisoformat`` rejects. Any other row (another ISO 8601 spelling, or
    no timestamp at all), and every row of a column the cast refuses, goes
    through ``timestamp_us`` one at a time. Returns the microseconds and a
    mask of the rows ``timestamp_us`` rejects (those rows hold 0).
    """
    c = np.pad(column.codes, ((0, 0), (0, max(20 - column.codes.shape[1], 0))))
    ok = (column.length == 19) | ((column.length == 20) & (c[:, 19] == 90))  # 'Z'
    head = c[:, :19]
    # Positions as rows: with every digit read as '0' and a space as 'T',
    # the layout is one compare.
    codes = np.ascontiguousarray(head.T)
    layout = np.where(codes - codes.dtype.type(48) <= 9, 48, codes)
    layout[10, layout[10] == 32] = 84
    ok &= (layout == np.frombuffer(b"0000-00-00T00:00:00", np.uint8)[:, None]).all(axis=0)
    # numpy reads year 0; fromisoformat does not.
    ok &= (codes[:4] != 48).any(axis=0)
    us = np.empty(len(column), np.int64)
    # numpy warns on a trailing 'Z', so only the first 19 bytes are cast.
    stamps = np.ascontiguousarray(head if ok.all() else head[ok], dtype=np.uint8)
    try:
        us[ok] = stamps.view("S19").ravel().astype("datetime64[us]").view(np.int64)
    except ValueError:
        ok[:] = False
    bad = np.zeros(len(column), bool)
    if not ok.all():
        other = np.flatnonzero(~ok)
        us[other], bad[other] = parse_each(timestamp_us, column[other].text().tolist(), np.int64)
    return us, bad


def _to_datetime(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=int(us))


def _read_record_columns(blocks: Iterable[Block]) -> tuple:
    """Every row of a records file's blocks as columns, in file order: ``(names,
    code, us, value, line_no)`` with the station ids by code in order of
    first appearance, each row's station code, UTC microseconds since 1970,
    temperature (NaN where the field is empty) and line number."""
    codes: dict[str, int] = {}
    parts = []
    for block in blocks:
        if not len(block.line_no):
            continue
        us, value = _parse_records(block)
        names, inv = factorize(block.columns[0])
        code = np.array([codes.setdefault(s, len(codes)) for s in names], np.int64)
        parts.append((code[inv], us, value, block.line_no))
    if not parts:
        return [], None, None, None, None
    return (list(codes), *map(np.concatenate, zip(*parts)))


def _parse_records(block: Block) -> tuple[np.ndarray, np.ndarray]:
    """The UTC microseconds and temperatures of a block's rows; the first
    bad row raises ``ParseError``."""
    sid, stamp, temp = block.columns
    us, stamp_bad = parse_timestamps(stamp)
    value, temp_bad = parse_floats(temp)
    check_rows(block, [
        (sid.length == 0, lambda row: "empty station_id"),
        (stamp_bad, lambda row: f"malformed timestamp {row[1]!r}"),
        (temp_bad, lambda row: f"malformed temperature {row[2]!r}"),
        ((temp.length > 0) & ~np.isfinite(value),
         lambda row: f"non-finite temperature {row[2]!r}"),
    ])
    return us, value


def _build_series(step: timedelta | None, names: list[str], code: np.ndarray,
                  us: np.ndarray, value: np.ndarray,
                  line_no: np.ndarray) -> dict[str, TemperatureSeries]:
    """Dense series for every station, in station-id order, from the columns
    of ``_read_record_columns``: one lexsort by (station, time) orders all
    rows, then each station's slice is checked and scattered onto its slot
    grid. ``step=None`` infers each station's step as the smallest positive
    gap between its records."""
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(by_name), np.int64)
    rank[by_name] = np.arange(len(by_name))
    key = rank[code]
    order = np.lexsort((us, key))
    bounds = np.searchsorted(key[order], np.arange(len(by_name) + 1))
    out = {}
    for r, c in enumerate(by_name):
        rows = order[bounds[r]:bounds[r + 1]]
        sid = names[c]
        stamps = us[rows]
        gaps = np.diff(stamps)
        step_us = (_smallest_gap(gaps) if step is None else step) // _US
        delta = stamps - stamps[0]
        n = int(delta[-1]) // step_us + 1
        bad = np.concatenate(([False], gaps == 0)) | (delta % step_us != 0)
        if bad.any():
            k = int(np.argmax(bad))
            stamp = _to_datetime(stamps[k]).isoformat()
            if k and gaps[k - 1] == 0:
                raise DuplicateTimestampError(f"station {sid}: duplicate timestamp {stamp}")
            raise ParseError(
                f"timestamp {stamp} not aligned to the "
                f"{int((step_us * _US).total_seconds())}s step", int(line_no[rows[k]]))
        slot = delta // step_us
        reading = value[rows]
        present = ~np.isnan(reading)
        values = np.full(n, np.nan)
        values[slot[present]] = reading[present]
        missing = np.ones(n, dtype=bool)
        missing[slot[present]] = False
        out[sid] = TemperatureSeries(sid, _to_datetime(stamps[0]), step_us * _US,
                                     values, missing)
    return out


def _smallest_gap(gaps: np.ndarray) -> timedelta:
    """The smallest positive gap (microseconds) as a step; an hour if none is."""
    positive = gaps[gaps > 0]
    return timedelta(microseconds=int(positive.min())) if positive.size else HOUR


def read_records(path: str | Path,
                 expected_step: timedelta | None = None) -> dict[str, TemperatureSeries]:
    """Read a (possibly multi-station) records CSV into per-station series.

    With ``expected_step=None`` the step is inferred per station from the
    smallest gap between its records.
    """
    with open(path, "rb") as fh:
        columns = _read_record_columns(read_blocks(fh, len(RECORDS_HEADER)))
    if not columns[0]:
        raise EmptyInputError(f"no records found in {path}")
    return _build_series(expected_step or None, *columns)


def write_records(path: str | Path, series: Iterable[TemperatureSeries]) -> None:
    """Write series back out in the records CSV layout (masked slots stay empty).

    Each ``BLOCK_LINES`` slots of a series are one block of
    ``write_blocks``: the block's distinct days, times of day and
    temperatures are each formatted once (``np.datetime_as_string``, and
    ``fmt_column``) and then gathered per row.
    """
    def blocks() -> Iterator[list[Piece]]:
        for s in sorted(series, key=lambda s: s.station_id):
            for lo in range(0, s.n, BLOCK_LINES):
                k = np.arange(lo, min(lo + BLOCK_LINES, s.n))
                day, tod = np.divmod((s.start - _EPOCH) // _US + k * (s.step // _US), _DAY_US)
                # Every masked slot, and only those, holds NaN.
                yield [csv_prefix(s.station_id), gather(day, _day_text),
                       gather(tod, _time_text), "Z,", fmt_column(s.values[k])]

    write_blocks(path, RECORDS_HEADER, blocks())


def _day_text(days: np.ndarray) -> list[str]:
    """``YYYY-MM-DD`` of days since 1970-01-01."""
    return np.datetime_as_string(days.astype("datetime64[D]")).tolist()


def _time_text(tods: np.ndarray) -> list[str]:
    """``THH:MM:SS`` of microseconds into a day, with ``.ffffff`` where they
    are not whole seconds, as ``datetime.isoformat`` writes them."""
    stamps = tods.astype("datetime64[us]")
    whole = np.datetime_as_string(stamps, unit="s")
    exact = np.datetime_as_string(stamps, unit="us")
    return [t[10:] for t in np.where(tods % 1_000_000 == 0, whole, exact).tolist()]


def to_hourly(series: TemperatureSeries) -> TemperatureSeries:
    """Collapse a 30-minute series to hourly means.

    Each output hour averages its available half-hour readings; one present
    half is used as-is, and an hour with both halves missing stays masked.
    Hours are left-labeled: readings at H:00 and H:30 both feed hour H.
    """
    if series.step != HALF_HOUR:
        raise ContractError(f"to_hourly needs a 30-minute step, got {series.step}")
    first_hour = series.start.replace(minute=0, second=0, microsecond=0)
    offset_min = int((series.start - first_hour).total_seconds()) // 60
    slot_min = offset_min + 30 * np.arange(series.n)
    hour_idx = slot_min // 60
    n_out = int(hour_idx[-1]) + 1 if series.n else 0
    keep = ~series.missing
    sums = np.bincount(hour_idx[keep], weights=series.values[keep], minlength=n_out)
    counts = np.bincount(hour_idx[keep], minlength=n_out)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return TemperatureSeries(series.station_id, first_hour, HOUR, means, counts == 0)


def missing_report(series: TemperatureSeries,
                   span: tuple[datetime, datetime] | None = None) -> MissingReport:
    """Quantify missingness over the series' own dense span.

    ``span=(start, end)`` pins the denominator to a fixed period instead;
    slots outside the series count as missing. Span bounds must sit on the
    series' step grid.
    """
    if series.n == 0:
        raise EmptyInputError("cannot report missingness of an empty series")
    if span is None:
        total = series.n
        miss = int(series.missing.sum())
    else:
        start, end = span
        if end < start:
            raise ContractError("span end precedes span start")
        if (start - series.start) % series.step or (end - start) % series.step:
            raise ContractError("span bounds must align to the series step grid")
        total = (end - start) // series.step + 1
        first_k = (start - series.start) // series.step
        ks = first_k + np.arange(total)
        inside = (ks >= 0) & (ks < series.n)
        present = np.zeros(total, dtype=bool)
        present[inside] = ~series.missing[ks[inside]]
        miss = int(total - present.sum())
    return MissingReport(series.station_id, int(total), miss, 100.0 * miss / total)


def read_metadata(path: str | Path) -> dict[str, StationMeta]:
    """Read the station metadata CSV, validating every row."""
    out: dict[str, StationMeta] = {}
    for line_no, row in iter_rows(path, len(METADATA_HEADER)):
        sid = row[0].strip()
        try:
            group = StationGroup(row[2].strip())
            region = Region(row[3].strip())
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        try:
            lat, lon, alt = (float(row[i]) for i in (4, 5, 6))
        except ValueError:
            lat = lon = alt = math.nan
        if not np.isfinite([lat, lon, alt]).all():
            raise ParseError("malformed coordinate or altitude", line_no)
        if sid in out:
            raise ParseError(f"duplicate station_id {sid!r}", line_no)
        out[sid] = StationMeta(sid, row[1].strip(), group, region, lat, lon, alt)
    if not out:
        raise EmptyInputError(f"no station metadata found in {path}")
    return out


def write_metadata(path: str | Path, stations: Iterable[StationMeta]) -> None:
    write_csv(path, METADATA_HEADER, (
        (m.station_id, m.name, m.group.value, m.region.value,
         fmt(m.latitude), fmt(m.longitude), fmt(m.altitude_m))
        for m in sorted(stations, key=lambda m: m.station_id)))
