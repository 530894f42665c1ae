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
    fmt,
    fmt_column,
    gather,
    iter_rows,
    parse_each,
    parse_floats,
    repeats,
    run_heads,
    station_blocks,
    unique_runs,
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
    NaN in ``values``: a float64 ``values`` that already does is kept as
    given, not copied.
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
        if not (np.isfinite(self.values) | self.missing).all():
            raise ContractError("non-missing values must be finite")
        # Observed slots are finite now, so a slot's NaN-ness differs from
        # its mask only where a masked slot holds a number.
        if (np.isnan(self.values) != self.missing).any():
            self.values = np.where(self.missing, np.nan, self.values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def index64(self) -> np.ndarray:
        """Slot timestamps as a ``datetime64[us]`` array, worked out in
        place in one int64 array."""
        index = np.arange(self.n, dtype=np.int64)
        index *= self.step // _US
        index += (self.start - _EPOCH) // _US
        return index.view("datetime64[us]")

    def timestamp(self, k: int) -> datetime:
        return self.start + k * self.step


@dataclass(frozen=True)
class MissingReport:
    station_id: str
    total_slots: int
    missing_slots: int
    missing_pct: float


def day_fields(index: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                                             np.ndarray, np.ndarray]:
    """The calendar of a datetime64 index (any unit, any order), worked out
    once per distinct day: ``((year, month, day) of each distinct day in
    ascending order, each slot's position among those days, each slot's
    hour)``, all int64.

    The days come from one cast to days and ``unique_runs`` (an hourly
    index holds runs of 24 slots a day), so only the distinct days go
    through the year, month and day casts, and the hours from one cast to
    hours, taken modulo 24 in place. A unit finer than microseconds
    is first floor-divided to microseconds as integers: numpy's casts of
    such a unit to a coarser one overflow near the int64 minimum (a cast of
    nanoseconds to hours reads 1677-09-21T01 as 2262-04-11T23).
    """
    unit = np.datetime_data(index.dtype)
    if unit[0] in ("ns", "ps", "fs", "as"):
        since_epoch = index - np.datetime64(0, unit)
        index = (since_epoch // np.timedelta64(1, "us")).astype("datetime64[us]")
    days, slot_day = unique_runs(index.astype("datetime64[D]").view(np.int64))
    hours = index.astype("datetime64[h]").view(np.int64)
    hours %= 24
    days64 = days.astype("datetime64[D]")
    months64 = days64.astype("datetime64[M]")
    years = days64.astype("datetime64[Y]").astype(np.int64) + 1970
    months = months64.astype(np.int64) % 12 + 1
    dom = (days64 - months64.astype("datetime64[D]")).astype(np.int64) + 1
    return (years, months, dom), slot_day, hours


def time_fields(index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a datetime64 index into (year, month, day, hour) integer arrays,
    each slot given its day's ``day_fields``."""
    (years, months, days), slot_day, hours = day_fields(index)
    return years[slot_day], months[slot_day], days[slot_day], hours


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
    c = column.codes
    if c.shape[1] < 20:
        c = np.pad(c, ((0, 0), (0, 20 - c.shape[1])))
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


# A run of one station's rows in a block: their time stamps, their
# temperatures and their lines (a ``range`` where the rows are consecutive
# lines). Stamps that step by one positive constant are kept as
# ``(first, step, count)`` in microseconds, with step 0 for one row; any
# others as the microseconds of each row.
_Run = tuple[tuple[int, int, int] | np.ndarray, np.ndarray, range | np.ndarray]


def _station_pieces(block: Block, station: np.ndarray,
                    pieces: dict[int, list[_Run]]) -> None:
    """Parse a block and append each station's run of its rows to
    ``pieces[station number]``, rows in file order. A block whose stations
    do not each come in one run is grouped by one stable argsort first."""
    us, value = _parse_records(block)
    lines = block.line_no
    heads = run_heads(station)
    if repeats(station[heads]).any():
        order = np.argsort(station, kind="stable")
        station, us, value, lines = station[order], us[order], value[order], lines[order]
        heads = run_heads(station)
    for lo, hi in zip(heads.tolist(), [*heads[1:].tolist(), len(station)]):
        first, last = int(lines[lo]), int(lines[hi - 1])
        rows = range(first, last + 1) if last - first == hi - lo - 1 else lines[lo:hi]
        pieces.setdefault(int(station[lo]), []).append(
            (_compact(us[lo:hi]), value[lo:hi], rows))


def _compact(us: np.ndarray) -> tuple[int, int, int] | np.ndarray:
    """A run's stamps as ``(first, step, count)`` where they step by one
    positive constant (step 0 for one row), else as they are."""
    first = int(us[0])
    step = int(us[1]) - first if len(us) > 1 else 0
    if len(us) > 1 and (step <= 0 or (np.diff(us) != step).any()):
        return us
    return first, step, len(us)


def _chained_series(sid: str, pieces: list[_Run],
                    step: timedelta | None) -> TemperatureSeries | None:
    """The series of a station whose runs are all compact and chain at one
    step, ``step`` if it is given: each run starts one step after the one
    before ends. Its slots are then its rows, so its temperatures are its
    values, NaN where missing, and the pieces are emptied: the general
    path would infer that step as the smallest gap, meet no error and give
    the same series. None, with the pieces kept, if the runs do not chain."""
    if not all(isinstance(stamps, tuple) for stamps, _, _ in pieces):
        return None
    first, steps, counts = np.array([stamps for stamps, _, _ in pieces], np.int64).T
    known = steps[counts > 1]
    if step is not None:
        step_us = step // _US
    elif len(known):
        step_us = int(known[0])
    else:
        step_us = int(first[1] - first[0]) if len(first) > 1 else HOUR // _US
    if step_us <= 0 or (known != step_us).any() or (
            first[1:] != first[:-1] + step_us * counts[:-1]).any():
        return None
    values = np.concatenate([value for _, value, _ in pieces])
    pieces.clear()
    return TemperatureSeries(sid, _to_datetime(int(first[0])), step_us * _US, values,
                             np.isnan(values))


def _station_series(sid: str, pieces: list[_Run],
                    step: timedelta | None) -> TemperatureSeries:
    """A station's dense series from its pieces, in file order, which it
    empties: runs that chain at one step are joined (``_chained_series``);
    any other station's rows are sorted by time (stable) only where they
    are out of order, then checked and scattered onto its slot grid.
    ``step=None`` infers the step as the smallest positive gap between its
    records. Each per-row array is dropped once the next step no longer
    needs it."""
    if (series := _chained_series(sid, pieces, step)) is not None:
        return series
    stamps = np.concatenate([stamps if isinstance(stamps, np.ndarray)
                             else stamps[0] + stamps[1] * np.arange(stamps[2])
                             for stamps, _, _ in pieces])
    reading = np.concatenate([value for _, value, _ in pieces])
    lines = [rows for _, _, rows in pieces]
    pieces.clear()
    order = None
    if (stamps[1:] < stamps[:-1]).any():
        order = np.argsort(stamps, kind="stable")
        stamps, reading = stamps[order], reading[order]
    start = int(stamps[0])
    stamps -= start
    gaps = np.diff(stamps)
    step_us = (_smallest_gap(gaps) if step is None else step) // _US
    repeat = gaps == 0
    del gaps
    slot, offset = np.divmod(stamps, step_us)
    bad = offset != 0
    del offset
    bad[1:] |= repeat
    if bad.any():
        k = int(np.argmax(bad))
        stamp = _to_datetime(start + int(stamps[k])).isoformat()
        if k and repeat[k - 1]:
            raise DuplicateTimestampError(f"station {sid}: duplicate timestamp {stamp}")
        raise ParseError(
            f"timestamp {stamp} not aligned to the "
            f"{int((step_us * _US).total_seconds())}s step",
            _line_of(lines, k if order is None else int(order[k])))
    n = int(slot[-1]) + 1
    del stamps, order
    present = ~np.isnan(reading)
    slot = slot[present]
    values = np.full(n, np.nan)
    values[slot] = reading[present]
    missing = np.ones(n, dtype=bool)
    missing[slot] = False
    return TemperatureSeries(sid, _to_datetime(start), step_us * _US, values, missing)


def _line_of(lines: list[range | np.ndarray], i: int) -> int:
    """The line of row ``i`` of the runs whose lines are ``lines``, in order."""
    for rows in lines:
        if i < len(rows):
            break
        i -= len(rows)
    return int(rows[i])


def _smallest_gap(gaps: np.ndarray) -> timedelta:
    """The smallest positive gap (microseconds) as a step; an hour if none is."""
    positive = gaps[gaps > 0]
    return timedelta(microseconds=int(positive.min())) if positive.size else HOUR


def read_records(path: str | Path,
                 expected_step: timedelta | None = None) -> dict[str, TemperatureSeries]:
    """Read a (possibly multi-station) records CSV into per-station series,
    in station-id order.

    With ``expected_step=None`` the step is inferred per station from the
    smallest gap between its records.

    Each block's rows are parsed and grouped by station as the block is
    read; a row keeps only its temperature where its run's stamps step by
    one constant (8 bytes), else its microseconds too (16 bytes), and its
    line only where the lines of its run are not consecutive. The block
    and its per-row arrays are dropped before the next block is split. Each
    station's series is then built from its own pieces, which are dropped
    once it is: a station whose runs chain at one step is its temperatures
    joined, with no stamp array, sort or scatter.
    """
    numbers: dict[str, int] = {}
    pieces: dict[int, list[_Run]] = {}
    for block, station in station_blocks(path, len(RECORDS_HEADER), "records", numbers):
        _station_pieces(block, station, pieces)
        del block, station
    return {sid: _station_series(sid, pieces[numbers[sid]], expected_step or None)
            for sid in sorted(numbers)}


def write_records(path: str | Path, series: Iterable[TemperatureSeries]) -> None:
    """Write series back out in the records CSV layout (masked slots stay empty).

    Each ``BLOCK_LINES`` slots of a series are one block of
    ``write_blocks``: the block's distinct days and temperatures are each
    formatted once (``np.datetime_as_string``, and ``fmt_column``) and then
    gathered per row. A series' times of day repeat every
    ``DAY / gcd(step, DAY)`` slots, so they are formatted once per series,
    for its first slots up to that period, and looked up per row.
    """
    def blocks() -> Iterator[list[Piece]]:
        for s in sorted(series, key=lambda s: s.station_id):
            start, step = (s.start - _EPOCH) // _US, s.step // _US
            period = _DAY_US // math.gcd(step, _DAY_US)
            tod_text = np.array(_time_text((start + np.arange(min(period, s.n)) * step)
                                           % _DAY_US), dtype=object)
            prefix = csv_prefix(s.station_id)
            for lo in range(0, s.n, BLOCK_LINES):
                k = np.arange(lo, min(lo + BLOCK_LINES, s.n))
                # Every masked slot, and only those, holds NaN.
                yield [prefix, gather((start + k * step) // _DAY_US, _day_text),
                       tod_text[k % period].tolist(), "Z,", fmt_column(s.values[k])]

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
    """An hourly series as it is, and a 30-minute series collapsed to hourly
    means; any other step raises ``ContractError`` naming the station.

    Each output hour averages its available half-hour readings; one present
    half is used as-is, and an hour with both halves missing stays masked.
    Hours are left-labeled: readings at H:00 and H:30 both feed hour H.
    """
    if series.step == HOUR:
        return series
    if series.step != HALF_HOUR:
        raise ContractError(
            f"station {series.station_id}: cannot collapse step {series.step} to hourly")
    first_hour = series.start.replace(minute=0, second=0, microsecond=0)
    offset_min = int((series.start - first_hour).total_seconds()) // 60
    hour_idx = np.arange(series.n)
    hour_idx *= 30
    hour_idx += offset_min
    hour_idx //= 60
    n_out = int(hour_idx[-1]) + 1 if series.n else 0
    means, counts = binned_means(hour_idx, series.values, ~series.missing, n_out)
    return TemperatureSeries(series.station_id, first_hour, HOUR, means, counts == 0)


def binned_means(bins: np.ndarray, values: np.ndarray, keep: np.ndarray,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """The mean of the kept values in each of ``size`` bins, NaN where no
    kept value falls, and the count of kept values in each bin."""
    every = keep.all()
    # A value left out adds +0.0, which leaves each sum's bits as they are:
    # a sum that starts at +0.0 is never -0.0. bincount of no bins is int64.
    means = np.bincount(bins, weights=values if every else np.where(keep, values, 0.0),
                        minlength=size).astype(np.float64, copy=False)
    counts = np.bincount(bins if every else bins[keep], minlength=size)
    means /= np.maximum(counts, 1)
    means[counts == 0] = np.nan
    return means, counts


def missing_report(series: TemperatureSeries) -> MissingReport:
    """Quantify missingness over the series' own slots, first to last."""
    if series.n == 0:
        raise EmptyInputError("cannot report missingness of an empty series")
    miss = int(series.missing.sum())
    return MissingReport(series.station_id, series.n, miss, 100.0 * miss / series.n)


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
        try:
            out[sid] = StationMeta(sid, row[1].strip(), group, region, lat, lon, alt)
        except ContractError as exc:
            raise ParseError(str(exc), line_no) from None
    if not out:
        raise EmptyInputError(f"no station metadata found in {path}")
    return out


def write_metadata(path: str | Path, stations: Iterable[StationMeta]) -> None:
    write_csv(path, METADATA_HEADER, (
        (m.station_id, m.name, m.group.value, m.region.value,
         fmt(m.latitude), fmt(m.longitude), fmt(m.altitude_m))
        for m in sorted(stations, key=lambda m: m.station_id)))
