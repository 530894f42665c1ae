"""The columnar records, panel, trend and contour I/O against the former
per-row code.

Readers must give bitwise-equal arrays, or raise the same exception type
with the same message (so the same ``line N``), on any file; writers must
write the same bytes. The per-row reference code lives in ``oracles.py``.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import random
import weakref
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from diurnal import (
    NetworkPanel,
    ParseError,
    TemperatureSeries,
    TrendTable,
    build_calendar,
    contour_grid,
    read_panel,
    read_records,
    stack_panels,
    write_panel,
    write_records,
)
from diurnal import _util, ingest, trend
from diurnal.report import P_BANDS, SLOPE_BANDS, write_contour_csv
from diurnal.trend import read_trend_csv, write_trend_csv
from helpers import HALF_HOUR, HOUR, grid_panel, profile_settings


SETTINGS = profile_settings(60)

# (field as written, station id it stands for)
STATION_FIELDS = [("T01", "T01"), ("B2", "B2"), (" S3 ", "S3"), ('"Q,1"', "Q,1"),
                  ('"Q""2"', 'Q"2'), ("Zürich", "Zürich"), ('"M\nL"', "M\nL"),
                  ("N\0", "N\0"), ("N\0\0", "N\0\0"), ('"T01"', "T01")]
BAD_RECORD_LINES = [
    "T01,not-a-time,1.0",
    "T01,2001-02-30T00:00:00Z,1.0",
    "T01,2001-01-01T24:00:00Z,1.0",
    "T01,2001-001,1.0",
    "T01,2001-01-01T00:00:00+2:00,1.0",
    "T01,0001-01-01T00:00:00+01:00,1.0",
    'T01,2001-01-01T00:00:00Z,"1\n.5"',
    "T01,2001-01-01T00:00:00Z,1\0",
    "T01,2001-01-01T00:00:00Z,abc",
    "T01,2001-01-01T00:00:00Z,nan",
    "T01,2001-01-01T00:00:00Z, -inf",
    "T01,2001-01-01T00:00:00Z",
    "T01,2001-01-01T00:00:00Z,1,2",
    " ,2001-01-01T00:00:00Z,1.0",
    # Lines that break several rules: the first rule in the row order names them.
    " ,bad,abc",
    "T01,bad,inf",
]
FILLER_LINES = ["", "   ", "\t", "station_id,timestamp,temp_c", "station_id",
                " station_id ,x"]


def _outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return "error", type(exc), str(exc)


def _same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_series(got, want):
    assert list(got) == list(want)
    for sid in want:
        g, w = got[sid], want[sid]
        assert (g.station_id, g.start, g.step) == (w.station_id, w.start, w.step)
        assert _same_array(g.values, w.values)
        assert _same_array(g.missing, w.missing)


def _assert_same_panels(got, want):
    assert (got.scale, got.stations, got.labels) == (want.scale, want.stations, want.labels)
    assert _same_array(got.years, want.years)
    assert _same_array(got.means, want.means)
    assert _same_array(got.counts, want.counts)


def _assert_same_outcome(got, want, same):
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1:] == want[1:]
    else:
        same(got[1], want[1])


# (offset as written, its minutes east of UTC); None writes a naive time.
OFFSETS = [(None, 0), ("Z", 0), ("z", 0), ("+00:00", 0), ("+02:00", 120), ("-05:30", -330),
           ("+0200", 120), ("-0530", -330), ("+02", 120), ("-05", -300)]


@st.composite
def _stamp(draw, ts: datetime) -> str:
    """``ts`` (naive UTC) in one of the ISO 8601 spellings that
    ``datetime.fromisoformat`` reads: extended or basic format, any date-time
    separator, seconds and minutes left out where they are zero, a ``.`` or
    ``,`` fraction, and a ``Z`` or numeric offset."""
    offset, minutes = draw(st.sampled_from(OFFSETS))
    local = ts + timedelta(minutes=minutes)
    basic = draw(st.booleans())
    date = local.strftime("%Y%m%d" if basic else "%Y-%m-%d")
    hhmm = local.strftime("%H%M" if basic else "%H:%M")
    seconds = local.strftime("%S" if basic else ":%S")
    if local.microsecond:
        digits = f"{local.microsecond:06d}"
        seconds += draw(st.sampled_from(".,")) + draw(st.sampled_from(
            [digits, digits.rstrip("0"), digits + "123"]))
    elif draw(st.booleans()):
        seconds += draw(st.sampled_from([".0", ".000000"]))
    elif seconds.endswith("00") and draw(st.booleans()):
        seconds = ""
        if hhmm in ("00:00", "0000") and not offset and draw(st.booleans()):
            hhmm = None  # a date alone is its midnight
    text = date if hhmm is None else date + draw(st.sampled_from("Tt x")) + hhmm + seconds
    text += offset or ""
    return draw(st.sampled_from(["{}", " {} ", '"{}"'])).format(text)


_TEMPS = st.one_of(
    st.sampled_from(["", " ", "-0.0", "1e-05", "1E3", "+4", ".5", "5.", "1_0", " 12.5 ",
                     "0.30000000000000004", "007.250", "٣.٥", "1.5°"]),
    st.floats(-60, 60).map(repr),
    st.floats(-60, 60).map(lambda v: f"{v:.1f}"),
)


@st.composite
def records_file(draw, max_stations=3, runs=False):
    """Record lines for 1-3 stations, shuffled, with blank and header lines,
    duplicate or misaligned timestamps now and then, and 0-2 bad lines.
    With ``runs``, the stations come one after another, each with its rows
    in time order but for a swap now and then, and the last rows of the
    first station now and then move to the end of the file."""
    stations = []
    for field, _ in draw(st.lists(st.sampled_from(STATION_FIELDS), min_size=1,
                                  max_size=max_stations, unique_by=lambda f: f[1])):
        step = draw(st.sampled_from([HOUR, HALF_HOUR, timedelta(milliseconds=500)]))
        start = datetime(2000, 12, 31, 22) + draw(st.sampled_from(
            [timedelta(0), timedelta(microseconds=500000), timedelta(minutes=30)]))
        slots = draw(st.lists(st.integers(0, 30), min_size=1, max_size=25))
        if runs:
            slots.sort()
            for _ in range(draw(st.integers(0, 2))):
                i, j = (draw(st.integers(0, len(slots) - 1)) for _ in range(2))
                slots[i], slots[j] = slots[j], slots[i]
        stations.append([f"{field},{draw(_stamp(start + k * step))},{draw(_TEMPS)}"
                         for k in slots])
    rows = [row for station in stations for row in station]
    if runs:
        cut = len(stations[0]) - draw(st.integers(0, len(stations[0]) - 1))
        rows = rows[:cut] + rows[len(stations[0]):] + rows[cut:len(stations[0])]
    else:
        random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
    for line in draw(st.lists(st.sampled_from(FILLER_LINES + BAD_RECORD_LINES), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    if draw(st.booleans()):
        rows.insert(0, "station_id,timestamp,temp_c")
    return draw(_terminated(rows))


@st.composite
def _terminated(draw, rows):
    """The rows as lines, all ending in one of the terminators text mode
    reads, now and then after a UTF-8 byte order mark (which both readers
    skip) or without a final terminator."""
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [row + ending for row in rows]
    if lines and draw(st.integers(0, 3)) == 0:
        lines[0] = "\ufeff" + lines[0]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].removesuffix(ending)
    return lines


# Read size for each block size, so that lines straddle reads of the file.
READ_SIZES = {2: 1, 3: 5, 7: 64}


@pytest.fixture(params=[2, 3, 7, _util.BLOCK_LINES])
def block_lines(request):
    """Block and read sizes small enough to put block edges, read edges and
    errors anywhere."""
    read_bytes = READ_SIZES.get(request.param, _util.READ_BYTES)
    with mock.patch.object(_util, "BLOCK_LINES", request.param), \
            mock.patch.object(_util, "READ_BYTES", read_bytes):
        yield request.param


def _assert_same_read(tmp_path, lines, expected_step):
    """Write ``lines`` as a records file; ``read_records`` must read it as
    the row reader does."""
    path = tmp_path / "records.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)
    _assert_same_outcome(_outcome(read_records, path, expected_step),
                         _outcome(oracles.read_records_rows, path, expected_step),
                         _assert_same_series)


def _hour_row(field, h, late=(7,)):
    """A record at hour ``h`` of 1 January 2001, at half past for the hours
    in ``late``."""
    return f"{field},2001-01-01T{h:02d}:{30 if h in late else 0:02d}:00Z,{h}.5"


class TestRecordsReader:
    @given(lines=records_file(), expected=st.sampled_from([None, HOUR, HALF_HOUR]))
    @SETTINGS
    def test_read_records_matches_row_reader(self, tmp_path, block_lines, lines, expected):
        _assert_same_read(tmp_path, lines, expected)

    @given(lines=records_file(max_stations=1), step=st.sampled_from([HOUR, HALF_HOUR]))
    @SETTINGS
    def test_single_station_read_matches_row_reader(self, tmp_path, block_lines, lines, step):
        _assert_same_read(tmp_path, lines, step)

    @given(lines=records_file(runs=True), expected=st.sampled_from([None, HOUR, HALF_HOUR]))
    @SETTINGS
    def test_station_runs_read_as_the_row_reader(self, tmp_path, block_lines, lines,
                                                 expected):
        # A block whose stations each come in one run is cut into slices,
        # and a station's rows are sorted only when they are out of order.
        _assert_same_read(tmp_path, lines, expected)

    @pytest.mark.parametrize("rows,line", [
        # In order: row k of T01 is line k + 2.
        ([_hour_row("T01", h) for h in range(12)], 9),
        # T01 in two runs with blocks between them.
        ([_hour_row("T01", h) for h in range(4)] + [_hour_row("B2", h) for h in range(6)]
         + [_hour_row("T01", h) for h in range(4, 12)], 15),
        # T01's rows backwards, with 09:30 as well: the first bad row in
        # time is the second bad row in the file.
        ([_hour_row("T01", h, late=(7, 9)) for h in range(11, -1, -1)], 6),
        # A header row and a blank line mid-file: the data rows are not
        # consecutive lines.
        ([_hour_row("T01", h) for h in range(4)] + ["station_id,timestamp,temp_c", ""]
         + [_hour_row("T01", h) for h in range(4, 12)], 11),
        # A quoted id over two lines after each T01 row: every block goes to
        # csv.reader, and lines count csv rows.
        ([row for h in range(12) for row in (_hour_row("T01", h),
                                              _hour_row('"M\nL"', h, late=()))], 16),
    ], ids=["ordered", "split-station", "out-of-order", "header-mid-file", "csv-split"])
    def test_misaligned_timestamp_names_its_line(self, tmp_path, block_lines, rows, line):
        path = tmp_path / "records.csv"
        path.write_text("station_id,timestamp,temp_c\n" + "\n".join(rows) + "\n")
        message = f"line {line}: timestamp 2001-01-01T07:30:00 not aligned to the 3600s step"
        with pytest.raises(ParseError) as exc:
            read_records(path, HOUR)
        assert str(exc.value) == message
        assert _outcome(oracles.read_records_rows, path, HOUR) == ("error", ParseError, message)

    def test_first_of_two_bad_lines_wins_across_blocks(self, tmp_path, block_lines):
        good = [f"T01,2001-01-01T{h:02d}:00:00Z,{h}.5\n" for h in range(20)]
        lines = ["station_id,timestamp,temp_c\n"] + good[:15] + [
            "T01,2001-01-01T99:00:00Z,1.0\n"] + good[15:] + ["T01,2001-01-02,x\n"]
        path = tmp_path / "records.csv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=r"^line 17: malformed timestamp"):
            read_records(path)

    @pytest.mark.parametrize("text", [
        'T01,2001-01-01T00:00:00Z,"1\n.5"\n',
        '"T\n01",2001-01-01T00:00:00Z,1.5\nT01,2001-01-01T01:00:00Z,x\n',
        'T01,2001-01-01T00:00:00Z,"1.5\n',
        "T01,2001-01-01T00:00:00Z,1\x00\n",
        "T\x00,2001-01-01T00:00:00Z,1\nT,2001-01-01T00:00:00Z,2\n",
        "T01,2001-01-01\x0000:00:00\x00,1\n",
        "T01,0001-01-01T00:00:00+01:00,1\n",
        "T01,0000-01-01T00:00:00Z,1\n",
        "T01,+001-01-01T00:00:00,1\n",
        "T01,-001-01-01 00:00:00Z,1\n",
        "T01,2001-01-01 05:00:00,1\nT01,2001-01-01T06:00:00Z,2\n",
        "T01,2001-01-01T05 00:00,1\n",
        "T01,2001-01-01T05:00:0İ,1\n",
        "T01,2001-01-01T05:00:0١,1\n",
    ])
    def test_csv_and_timestamp_corners_read_as_before(self, tmp_path, block_lines, text):
        path = tmp_path / "records.csv"
        path.write_text("station_id,timestamp,temp_c\n" + text, encoding="utf-8")
        _assert_same_outcome(_outcome(read_records, path, None),
                             _outcome(oracles.read_records_rows, path, None),
                             _assert_same_series)

    @pytest.mark.parametrize("before", ["", "T01,2001-01-01,x\n"])
    @pytest.mark.parametrize("long", ['"ABCDEFGHIJKLMN",2001-01-02,1\n',
                                      "ABCDEFGHIJKLMN,2001-01-02,1\n"])
    def test_csv_error_comes_after_the_rows_before_it(self, tmp_path, block_lines,
                                                      before, long):
        path = tmp_path / "records.csv"
        path.write_text("station_id,timestamp,temp_c\nT01,2001-01-01,1.5\n"
                        + before + long + "T01,2001-01-03,2\n")
        limit = csv.field_size_limit(12)  # ABCDEFGHIJKLMN is a field too large
        try:
            got = _outcome(read_records, path, None)
            want = _outcome(oracles.read_records_rows, path, None)
        finally:
            csv.field_size_limit(limit)
        assert want[1] is ParseError
        if not before:
            assert want[2] == "line 3: field larger than field limit (12)"
        _assert_same_outcome(got, want, _assert_same_series)

    @pytest.mark.parametrize("data", [
        b"T01,2001-01-01T00:00:00Z,1\nT01,2001-01-01T01:00:00Z,\xff\n",
        b"T01,2001-01-01T00:00:00Z,1\r\nT\xc3,2001-01-01T01:00:00Z,2\r\n",
        b"T01,2001-01-01T00:00:00Z,\xed\xa0\x80\n",
        b'"T\n\xff",2001-01-01T00:00:00Z,1\nT01,2001-01-01T01:00:00Z,2\n',
        b'T01,2001-01-01T00:00:00Z,"1\n.5"\nT01,2001-01-01T01:00:00Z,\xff\n',
        b"T01,bad,1\nT01,2001-01-01T01:00:00Z,\xff\n",
        b"T01,2001-01-01T00:00:00Z,1\n\xff" + b"T" * 40 + b",2001-01-01,1\n",
        b"\xef\xbb\xbfT01,2001-01-01T00:00:00Z,1\n",
        b"T01,2001-01-01T00:00:00Z,1\rT01,2001-01-01T01:00:00Z,2\r",
        b"T01,2001-01-01T00:00:00Z,1\r\r\nT01,2001-01-01T01:00:00Z,2",
        b"T01,2001-01-01T00:00:00Z,1\n\rT01,2001-01-01T01:00:00Z,2\n",
        b"T01,2001-01-01T00:00:00Z,1\x00\r\n",
    ], ids=["bad-byte", "cut-sequence", "encoded-surrogate", "bad-byte-in-quotes",
            "bad-byte-after-quotes", "earlier-bad-row", "bad-byte-and-long-field", "bom",
            "cr", "cr-then-crlf", "lf-then-cr", "nul"])
    def test_bytes_read_as_the_row_reader(self, tmp_path, block_lines, data):
        path = tmp_path / "records.csv"
        path.write_bytes(b"station_id,timestamp,temp_c\n" + data)
        limit = csv.field_size_limit(32)  # the 41-byte station id is over it
        try:
            got = _outcome(read_records, path, None)
            want = _outcome(oracles.read_records_rows, path, None)
        finally:
            csv.field_size_limit(limit)
        _assert_same_outcome(got, want, _assert_same_series)

    def test_invalid_utf8_is_a_parse_error_with_its_line(self, tmp_path, block_lines):
        path = tmp_path / "records.csv"
        path.write_bytes(b"station_id,timestamp,temp_c\nT01,2001-01-01T00:00:00Z,1\n"
                         b"T01,2001-01-01T01:00:00Z,2\xff\nT01,2001-01-01T02:00:00Z,3\n")
        with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xff$"):
            read_records(path)

    @pytest.mark.parametrize("head", ["station_id,timestamp,temp_c\n", ""])
    def test_byte_order_mark_at_file_start_is_skipped(self, tmp_path, block_lines, head):
        text = head + "T01,2001-01-01T00:00:00Z,1.5\nT01,2001-01-01T01:00:00Z,2.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        series = read_records(marked)
        assert list(series) == ["T01"] and series["T01"].values.tolist() == [1.5, 2.5]
        _assert_same_series(read_records(plain, HOUR), series)

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path, block_lines):
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 * 2 + b"station_id,timestamp,temp_c\n"
                         b"T01,2001-01-01T00:00:00Z,1.5\n")
        with pytest.raises(ParseError, match=r"^line 1: malformed timestamp 'timestamp'$"):
            read_records(path)

    def test_quoted_field_across_a_block_edge(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_util, "BLOCK_LINES", 2)
        path = tmp_path / "records.csv"
        head = 'station_id,timestamp,temp_c\n"A\nB\nC",2001-01-01T00:00:00Z,1.5\n'
        path.write_text(head + "D,2001-01-01T00:00:00Z,2.5\n")
        assert {sid: s.values.tolist() for sid, s in read_records(path).items()} == {
            "A\nB\nC": [1.5], "D": [2.5]}
        path.write_text(head + "D,bad,2.5\n")  # row 3, on line 5
        with pytest.raises(ParseError, match=r"^line 3: malformed timestamp 'bad'$"):
            read_records(path)

    @pytest.mark.parametrize("stamp,utc", [
        ("2001-01-01T05:00", datetime(2001, 1, 1, 5)),
        ("2001-01-01", datetime(2001, 1, 1)),
        ("20010101T050000", datetime(2001, 1, 1, 5)),
        ("2001-01-01T05:00:00+0200", datetime(2001, 1, 1, 3)),
        ("2001-01-01T05:00:00+02", datetime(2001, 1, 1, 3)),
        ("2001-01-01x05:00:00", datetime(2001, 1, 1, 5)),
        ("2001-01-01T05:00:00,5", datetime(2001, 1, 1, 5, 0, 0, 500000)),
        ("2001-W01-1T05:00:00", datetime(2001, 1, 1, 5)),
    ])
    def test_other_iso_spellings_read_as_before(self, tmp_path, stamp, utc):
        path = tmp_path / "records.csv"
        path.write_text(f'T01,"{stamp}",1.0\nT01,{(utc + HOUR).isoformat()}Z,2.0\n')
        series = read_records(path, HOUR)
        assert series["T01"].start == utc
        _assert_same_series(series, oracles.read_records_rows(path, HOUR))


REGULAR_TEMPS = ["", "1.5", "-0.0", "12.25", "0.30000000000000004", "-7"]


@st.composite
def regular_records_file(draw):
    """Record lines for 1-3 stations, each a run of rows one step apart,
    every slot written as a row (empty temperatures now and then), now and
    then with one fault inside the run: a duplicate row, a step change, a
    slot left out or a misaligned stamp. Now and then the first station's
    last rows are resumed at the end of the file, or the first two
    stations' rows are interleaved, which puts one-row runs in a block."""
    stations = []
    for field, _ in draw(st.lists(st.sampled_from(STATION_FIELDS), min_size=1, max_size=3,
                                  unique_by=lambda f: f[1])):
        step = draw(st.sampled_from([HOUR, HALF_HOUR, timedelta(milliseconds=500)]))
        start = datetime(2000, 12, 31, 22) + draw(st.sampled_from(
            [timedelta(0), timedelta(minutes=30)]))
        n = draw(st.integers(1, 30))
        stamps = [start + k * step for k in range(n)]
        fault = draw(st.sampled_from([None, None, "duplicate", "step", "gap", "misaligned"]))
        if fault and n > 2:
            k = draw(st.integers(1, n - 2))
            if fault == "duplicate":
                stamps.insert(k, stamps[k])
            elif fault == "step":
                new = draw(st.sampled_from([2 * step, step / 2]))
                stamps[k:] = [stamps[k - 1] + (j + 1) * new for j in range(n - k)]
            elif fault == "gap":
                del stamps[k]
            else:
                stamps[k] += step / 2
        temps = draw(st.lists(st.sampled_from(REGULAR_TEMPS), min_size=len(stamps),
                              max_size=len(stamps)))
        stations.append([f"{field},{ts.isoformat()}Z,{t}" for ts, t in zip(stamps, temps)])
    arrange = draw(st.sampled_from(["runs", "resumed", "interleaved"]))
    if arrange == "interleaved" and len(stations) > 1:
        a, b = stations[:2]
        merged = [row for pair in zip(a, b) for row in pair]
        stations[:2] = [merged + a[len(b):] + b[len(a):]]
    rows = [row for station in stations for row in station]
    if arrange == "resumed":
        cut = draw(st.integers(1, len(stations[0])))
        rows = rows[:cut] + rows[len(stations[0]):] + rows[cut:len(stations[0])]
    if draw(st.booleans()):
        rows.insert(0, "station_id,timestamp,temp_c")
    return draw(_terminated(rows))


class TestCompactRuns:
    """A run of a station's rows in a block whose stamps step by one
    constant keeps only its first stamp, step and count, and a station whose
    runs all chain at one step is built from its temperatures alone
    (``ingest._chained_series``). Any other station materializes its stamps
    and goes through the general path. With the compact path switched off,
    the general path must read every file to the same series, or fail with
    the same error."""

    @given(lines=regular_records_file(), expected=st.sampled_from([None, HOUR, HALF_HOUR]))
    @SETTINGS
    def test_compact_runs_read_as_the_general_path(self, tmp_path, block_lines, lines,
                                                    expected):
        path = tmp_path / "records.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(lines)
        got = _outcome(read_records, path, expected)
        with mock.patch.object(ingest, "_chained_series", return_value=None):
            general = _outcome(read_records, path, expected)
        _assert_same_outcome(got, general, _assert_same_series)
        _assert_same_outcome(got, _outcome(oracles.read_records_rows, path, expected),
                             _assert_same_series)

    @pytest.mark.parametrize("expected", [None, HOUR])
    def test_regular_stations_take_the_compact_path(self, tmp_path, block_lines, expected):
        # Two hourly stations, the first resumed after the second: every run
        # is compact and each station chains, block edges anywhere.
        rows = ([_hour_row("T01", h, late=()) for h in range(5)]
                + [_hour_row("B2", h, late=()) for h in range(9)]
                + [_hour_row("T01", h, late=()) for h in range(5, 12)])
        path = tmp_path / "records.csv"
        path.write_text("station_id,timestamp,temp_c\n" + "\n".join(rows) + "\n")
        built, chained_series = [], ingest._chained_series

        def chained(sid, pieces, step):
            assert all(isinstance(stamps, tuple) for stamps, _, _ in pieces)
            series = chained_series(sid, pieces, step)
            built.append((sid, series is not None))
            return series

        with mock.patch.object(ingest, "_chained_series", chained):
            series = read_records(path, expected)
        assert built == [("B2", True), ("T01", True)]
        assert series["T01"].values.tolist() == [h + 0.5 for h in range(12)]
        _assert_same_series(series, oracles.read_records_rows(path, expected))


def _panel_cell_rows(draw, field, sid_scale, years):
    cal = build_calendar(sid_scale)
    cells = draw(st.lists(st.tuples(st.sampled_from(years), st.sampled_from(cal.labels),
                                    st.integers(0, 23)),
                          min_size=1, max_size=30, unique=True))
    rows = []
    for year, label, hour in cells:
        mean = draw(st.one_of(st.sampled_from(["", "٣.٥"]), st.floats(-40, 40).map(repr),
                              st.floats(-40, 40).map(lambda v: f"{v:.1f}")))
        valid = "1" if mean and draw(st.booleans()) else "0"
        pad = draw(st.sampled_from(["{}", " {} "]))
        # Zero-padded years of 5 and 12 bytes: a plain block's year column
        # then holds rows of one word and of two.
        year = draw(st.sampled_from([pad, "{:05d}", "{:012d}"])).format(year)
        rows.append(",".join([field, sid_scale, year, label,
                              pad.format(hour), pad.format(mean), valid]))
    return rows


# Plain station ids of 9-16 bytes: wider than one word, so a plain block
# mixes columns keyed by one word with columns keyed by their text.
PLAIN_LONG_IDS = st.text("ABCZ019_", min_size=9, max_size=16)

BAD_PANEL_LINES = [
    "T01,45d,2000,Jan,0,1.0,1",
    "T01,30d,20x0,Jan,0,1.0,1",
    "T01,30d,2000,Jan,a,1.0,1",
    "T01,30d,2000,Jan,0,zz,0",
    "T01,30d,2000,Jan,0,1.0",
    "T01,60da,2000,Jan-Feb,0,1.0,1",
    "T01,30d,2000,Jan,24,1.0,1",
    "T01,30d,2000,Jan,0,1.0,2",
    "T01,30d,2000,Smarch,0,1.0,1",
    "T01,30d,2000,Jan,0,,1",
    "T01,45d,20x0,Smarch,99,zz,7",
    "T01,30d,2000,Smarch,24,,2",
    "T01,30d,2000,Smarch,0,,2",
    "T01,30d,2000,Smarch,0,,1",
]


@st.composite
def panel_file(draw):
    """Panel lines for 1-3 stations of one scale, now and then one station
    under a scale of its own, shuffled, now and then with a repeated cell,
    and with blank and header lines and 0-3 bad lines."""
    rows = []
    stations = [("T01", "T01")] + draw(st.lists(st.sampled_from(STATION_FIELDS[1:-1])
                                                | PLAIN_LONG_IDS.map(lambda t: (t, t)),
                                                max_size=2, unique_by=lambda f: f[1]))
    scales = st.sampled_from(["30d", "60db", "10d"])
    file_scale = draw(scales)
    for field, sid in stations:
        scale = file_scale if draw(st.integers(0, 4)) else draw(scales)
        years = draw(st.lists(st.integers(1998, 2003), min_size=1, max_size=3, unique=True))
        rows += _panel_cell_rows(draw, field, scale, years)
    random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    fillers = ["", "  ", "station_id,scale,year,window_label,hour,mean_temp,valid"]
    for line in draw(st.lists(st.sampled_from(fillers) | st.sampled_from(BAD_PANEL_LINES),
                              max_size=3, unique=True)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    rows.insert(0, "station_id,scale,year,window_label,hour,mean_temp,valid")
    return draw(_terminated(rows))


class TestPanelReader:
    @given(lines=panel_file())
    @SETTINGS
    def test_read_panel_matches_row_reader(self, tmp_path, block_lines, lines):
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(lines)
        _assert_same_outcome(_outcome(read_panel, path),
                             _outcome(oracles.read_panel_rows, path),
                             _assert_same_panels)


    def test_panel_arrays_hold_only_their_own_bytes(self, tmp_path, monkeypatch):
        # Three stations over the same three years, as write_panel writes
        # them: 9 grid rows of 288 lines, read 50 lines a block, grow the
        # grid to 16 rows.
        rng = np.random.default_rng(5)
        panels = [grid_panel(rng, sid, "30d", years=[2001, 2002, 2003])
                  for sid in ("S1", "S2", "S3")]
        write_panel(tmp_path / "panel.csv", panels)
        monkeypatch.setattr(_util, "BLOCK_LINES", 50)
        back = read_panel(tmp_path / "panel.csv")
        want = stack_panels(panels)
        want.counts = want.counts.astype(np.uint8)  # a read panel's counts are 0/1 bytes
        _assert_same_panels(back, want)
        for array in (back.means, back.counts):
            assert array.base is None or array.base.nbytes == array.nbytes

    def test_row_order_does_not_change_the_panel(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        panels = [grid_panel(rng, sid, "10d", years=[2001, 2002]) for sid in ("S1", "S2")]
        write_panel(tmp_path / "ordered.csv", panels)
        head, *rows = (tmp_path / "ordered.csv").read_bytes().splitlines(keepends=True)
        random.Random(7).shuffle(rows)
        (tmp_path / "shuffled.csv").write_bytes(head + b"".join(rows))
        monkeypatch.setattr(_util, "BLOCK_LINES", 50)
        _assert_same_panels(read_panel(tmp_path / "shuffled.csv"),
                            read_panel(tmp_path / "ordered.csv"))

    def test_byte_order_mark_at_file_start_is_skipped(self, tmp_path, block_lines):
        text = ("station_id,scale,year,window_label,hour,mean_temp,valid\n"
                "T01,30d,2000,Jan,0,1.5,1\nT01,30d,2000,Jan,1,,0\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        _assert_same_panels(read_panel(marked), read_panel(plain))

    def test_invalid_utf8_is_a_parse_error_with_its_line(self, tmp_path, block_lines):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"station_id,scale,year,window_label,hour,mean_temp,valid\n"
                         b"T01,30d,2000,Jan,0,1.5,1\nT01,30d,2000,Jan,1,\xe9,0\n")
        with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xe9$"):
            read_panel(path)

    @pytest.mark.parametrize("first,second,message", [
        ("T01,30d,2000,Jan,24,1.5,1", "T01,30d,2000,Feb,0,1.5,2",
         "line 6: hour 24 out of range 0-23"),
        ("T01,30d,2000,Feb,0,1.5,2", "T01,30d,2000,Jan,24,1.5,1",
         "line 6: valid flag '2' is not 0 or 1"),
        ("T01,30d,2000,Feb,0,,1", "T01,30d,2000,Smarch,0,1.5,1",
         "line 6: valid cell with non-finite mean ''"),
    ])
    def test_first_of_two_bad_lines_wins_across_blocks(self, tmp_path, block_lines,
                                                       first, second, message):
        good = [f"T01,30d,2001,Jan,{h},{h}.5,1\n" for h in range(10)]
        path = tmp_path / "panel.csv"
        path.write_text("station_id,scale,year,window_label,hour,mean_temp,valid\n"
                        + "".join(good[:4]) + first + "\n" + "".join(good[4:])
                        + second + "\n")
        with pytest.raises(ParseError) as exc:
            read_panel(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("row,message", [
        (f"T01,30d,{2**63},Jan,0,1.5,1", "line 2: malformed year, hour or mean"),
        (f"T01,30d,{2**63 - 1},Jan,0,1.5,1", None),
        (f"T01,30d,2000,Jan,{2**64},1.5,1", f"line 2: hour {2**64} out of range 0-23"),
        (f"T01,30d,2000,Jan,-{2**64},1.5,1", f"line 2: hour -{2**64} out of range 0-23"),
    ])
    def test_numbers_outside_int64(self, tmp_path, row, message):
        path = tmp_path / "panel.csv"
        path.write_text(f"station_id,scale,year,window_label,hour,mean_temp,valid\n{row}\n")
        if message is None:
            assert read_panel(path).years.tolist() == [2**63 - 1]
        else:
            with pytest.raises(ParseError) as exc:
                read_panel(path)
            assert str(exc.value) == message

    @pytest.mark.parametrize("block", [4, 1 << 14], ids=["later-block", "same-block"])
    def test_repeat_beats_a_later_malformed_row(self, tmp_path, monkeypatch, block):
        # Line 4 repeats line 2's cell and line 6 is malformed. At 4 lines
        # a block, line 6 is in the second block; else both are in one.
        path = tmp_path / "panel.csv"
        path.write_text("station_id,scale,year,window_label,hour,mean_temp,valid\n"
                        "T01,30d,2000,Jan,0,1.5,1\nT01,30d,2000,Jan,1,1.5,1\n"
                        "T01,30d,2000,Jan,0,2.5,1\nT01,30d,2000,Jan,2,1.5,1\n"
                        "T01,30d,2000,Jan,3,zz,1\n")
        monkeypatch.setattr(_util, "BLOCK_LINES", block)
        with pytest.raises(ParseError) as exc:
            read_panel(path)
        assert str(exc.value) == "line 4: station T01: second row for year 2000, window Jan, hour 0"

    def test_repeated_cell_across_blocks_reports_its_lowest_line(self, tmp_path, block_lines):
        # The last station's last cell repeats at line 6 and the first
        # station's first cell at line 7; the first in key order is not the
        # first in the file.
        path = tmp_path / "panel.csv"
        path.write_text("station_id,scale,year,window_label,hour,mean_temp,valid\n"
                        "A,30d,1,Jan,0,1.5,1\n"
                        "ZZZ_LAST_STATION,30d,9999,Dec,23,2.5,1\n"
                        "ZZZ_LAST_STATION,30d,1,Jan,0,3.5,1\n"
                        "A,30d,9999,Dec,23,4.5,1\n"
                        "ZZZ_LAST_STATION,30d,000000009999,Dec,23,5.5,1\n"
                        "A,30d,00001,Jan,0,6.5,1\n")
        with pytest.raises(ParseError) as exc:
            read_panel(path)
        assert str(exc.value) == ("line 6: station ZZZ_LAST_STATION: second row for "
                                  "year 9999, window Dec, hour 23")


# Fields of the small tables as written: plain ones, and ones the bulk split
# refuses (padded, quoted, spanning lines, non-ASCII, holding a NUL).
PLAIN_TABLE_FIELDS = ["S1", "", "0.5", "-1", "Jan", "30d", "nan"]
ODD_TABLE_FIELDS = [" 0.5 ", '"Q,1"', '"Q""2"', '"M\nL"', '"A\r\nB\rC"', "Zürich", "N\0"]


@st.composite
def table_file(draw):
    """A field count of 3 or 12, and the lines of a small table with that
    many fields: rows of plain fields, or of any fields, with blank and
    header lines, and now and then a row holding a byte that is not UTF-8
    (as its surrogate escape) or a row with another field count."""
    n_fields = draw(st.sampled_from([3, 12]))
    fields = PLAIN_TABLE_FIELDS + draw(st.sampled_from([[], ODD_TABLE_FIELDS]))
    rows = draw(st.lists(st.lists(st.sampled_from(fields), min_size=n_fields,
                                  max_size=n_fields).map(",".join), max_size=20))
    fillers = ["", "  ", ",".join(["station_id"] + ["x"] * (n_fields - 1)),
               ",".join(["S\udcff"] + ["x"] * (n_fields - 1)), "S1,x",
               ",".join(["S1"] * (n_fields + 1))]
    for line in draw(st.lists(st.sampled_from(fillers), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    return n_fields, draw(_terminated(rows))


def _rows_until_error(rows):
    """The items an iterator of rows yields, and the ``ParseError`` that
    ends it, if one does."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except ParseError as exc:
        return got, str(exc)
    return got, None


class TestSmallTableRows:
    @given(table=table_file())
    @SETTINGS
    def test_iter_rows_matches_row_reader(self, tmp_path, block_lines, table):
        n_fields, lines = table
        path = tmp_path / "table.csv"
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            want = _rows_until_error(oracles.table_rows(fh, n_fields))
        assert _rows_until_error(_util.iter_rows(path, n_fields)) == want


# Trend values as the writers meet them: signed zeros, infinities, NaN and
# values on the band edges.
TREND_VALUES = [-0.0, 0.0, 0.03, -0.03, 0.05, 0.1, 1.0, 1e-05, 0.1 + 0.2, 1 / 3,
                math.inf, -math.inf, math.nan, 5e-324]
_TREND_FLOATS = st.one_of(st.sampled_from(TREND_VALUES),
                          st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def trend_rows(draw, finite=False):
    """Trend row tuples for 1-3 stations (ids csv has to quote among them),
    cells of one or several scales per station, in any order, now and then
    a cell twice. With ``finite``, each station keeps one scale and every
    slope is finite and every p-value in [0, 1], as ``contour_grid`` needs."""
    rows = []
    for sid in draw(st.lists(st.sampled_from(ODD_IDS + ["S1", "S10", "S9"]), min_size=1,
                             max_size=3, unique=True)):
        scales = draw(st.lists(st.sampled_from(["10d", "30d", "60da", "60db"]), min_size=1,
                               max_size=1 if finite else 2, unique=True))
        for _ in range(draw(st.integers(1, 12))):
            scale = draw(st.sampled_from(scales))
            p = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.05, 0.1, 1.0]))
            slope = draw(_TREND_FLOATS.filter(math.isfinite))
            if not finite:
                p, slope = draw(st.sampled_from([p, math.nan])), draw(_TREND_FLOATS)
            rows.append((sid, scale, draw(st.sampled_from(build_calendar(scale).labels)),
                         draw(st.integers(0, 23)), draw(st.integers(3, 60)),
                         draw(st.integers(-900, 900)), draw(_TREND_FLOATS),
                         draw(_TREND_FLOATS), p, slope, draw(_TREND_FLOATS),
                         draw(st.booleans())))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return rows


def _trend_table(rows):
    return TrendTable(*zip(*rows))


def _same_rows(got, want):
    """Row tuples alike field by field: types, and floats by repr."""
    assert repr([tuple(row) for row in got]) == repr(want)


# Fields of a trend row as a file may spell them.
_HOURS = st.sampled_from(["{}", "{}", " {} ", "+{}", "0{}"])
_COUNTS = st.sampled_from(["12", "+5", "05", " 9 ", "-3", "1_0", "-0"])
_TREND_TEXTS = st.sampled_from(["0.5", "-0.0", "1e-05", " 0.25 ", "0.30000000000000004",
                                "inf", "-inf", "nan", "", ".5", "1_0", "٣.٥"]) | st.floats(
    -1000, 1000).map(repr)
_P_TEXTS = st.sampled_from(["0", "0.05", "1", "1.0", "0.001", " 0.1 ", "5e-324", "-0.0"]) | (
    st.floats(0.0, 1.0).map(repr))
_SLOPE_TEXTS = st.sampled_from(["0.03", "-0.03", "-0.0", "0.25", "1e-05", "2"]) | (
    st.floats(-1.0, 1.0).map(repr))
_FLAGS = st.sampled_from(["0", "1", "true", "FALSE", " True "])
_GOOD = "5,3,8.5,0.7,0.49,0.1,0.2,0"
BAD_TREND_LINES = [
    f"T01,45d,Jan,0,{_GOOD}", f"T01,30d,Smarch,0,{_GOOD}", f"T01,10d,Jan,0,{_GOOD}",
    f"T01,30d,Jan,24,{_GOOD}", f"T01,30d,Jan,-1,{_GOOD}", f"T01,30d,Jan,0x1,{_GOOD}",
    f"T01,30d,Jan,3.0,{_GOOD}", "T01,30d,Jan,0,,3,8.5,0.7,0.49,0.1,0.2,0",
    "T01,30d,Jan,0,5,3,abc,0.7,0.49,0.1,0.2,0", "T01,30d,Jan,0,5,3,8.5,0.7,1.5,0.1,0.2,0",
    "T01,30d,Jan,0,5,3,8.5,0.7,nan,0.1,0.2,0", "T01,30d,Jan,0,5,3,8.5,0.7,,0.1,0.2,0",
    "T01,30d,Jan,0,5,3,8.5,0.7,-0.01,0.1,0.2,0", "T01,30d,Jan,0,5,3,8.5,0.7,0.49,inf,0.2,0",
    "T01,30d,Jan,0,5,3,8.5,0.7,0.49,,0.2,0", "T01,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,yes",
    "T01,30d,Jan,0", "T01,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,0,0",
    f"T\udcff1,30d,Jan,0,{_GOOD}",  # a byte that is not UTF-8
    "T01,45d,Smarch,99,x,3,8.5,0.7,1.5,inf,0.2,0", "T01,30d,Smarch,99,x,3,8.5,0.7,1.5,inf,0.2,0",
    "T01,30d,Smarch,99,5,3,8.5,0.7,1.5,inf,0.2,0", "T01,30d,Smarch,0,5,3,8.5,0.7,1.5,inf,0.2,0",
    "T01,30d,Smarch,0,5,3,8.5,0.7,0.5,inf,0.2,0",
]


@st.composite
def trend_file(draw):
    """Trend lines for 1-3 stations, with header, blank and repeated header
    lines and odd but valid spellings (padding, ``+5``, ``true``), shuffled,
    and now and then a repeated cell or 1-2 bad lines."""
    rows = []
    for field, _ in draw(st.lists(st.sampled_from(STATION_FIELDS), min_size=1, max_size=3,
                                  unique_by=lambda f: f[1])):
        scale = draw(st.sampled_from(["30d", "10d", "60db"]))
        cells = draw(st.lists(st.tuples(st.sampled_from(build_calendar(scale).labels),
                                        st.integers(0, 23)),
                              min_size=1, max_size=10, unique=True))
        for label, hour in cells:
            rows.append(",".join([field, scale, label, draw(_HOURS).format(hour),
                                  draw(_COUNTS), draw(_COUNTS),
                                  draw(_TREND_TEXTS), draw(_TREND_TEXTS), draw(_P_TEXTS),
                                  draw(_SLOPE_TEXTS), draw(_TREND_TEXTS), draw(_FLAGS)]))
    rows = draw(st.permutations(rows))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    fillers = ["", "  ", ",".join(oracles.TREND_HEADER)]
    for line in draw(st.lists(st.sampled_from(fillers), max_size=3)
                     ) + draw(st.lists(st.sampled_from(BAD_TREND_LINES), max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    return draw(_terminated([",".join(oracles.TREND_HEADER)] + rows))


class TestTrendTables:
    @given(rows=trend_rows(), block_lines=st.sampled_from([1, 3, 7, _util.BLOCK_LINES]))
    @SETTINGS
    def test_write_trend_csv_bytes_match_row_writer(self, tmp_path, rows, block_lines):
        with mock.patch.object(trend, "BLOCK_LINES", block_lines):
            write_trend_csv(tmp_path / "new.csv", _trend_table(rows))
        oracles.write_trend_rows(tmp_path / "old.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(rows=trend_rows(finite=True))
    @SETTINGS
    def test_contour_matches_row_code(self, tmp_path, rows):
        grid = contour_grid(_trend_table(rows))
        want = oracles.contour_rows(rows)
        bands = [SLOPE_BANDS[i] for i in grid.slope_band] + [P_BANDS[i] for i in grid.p_band]
        got = list(zip(*(c.tolist() for c in grid.columns()[:6]), bands[:len(grid)],
                       bands[len(grid):]))
        _same_rows(got, [(sid, scale, *cell) for sid, scale, cells in want for cell in cells])
        write_contour_csv(tmp_path / "new.csv", grid)
        oracles.write_contour_rows(tmp_path / "old.csv", want)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(rows=trend_rows())
    @SETTINGS
    def test_contour_errors_match_row_code(self, rows):
        got = _outcome(contour_grid, _trend_table(rows))
        want = _outcome(oracles.contour_rows, rows)
        assert got[0] == want[0]
        if want[0] == "error":
            assert got[1:] == want[1:]

    @given(lines=trend_file())
    @SETTINGS
    def test_read_trend_csv_matches_row_reader(self, tmp_path, block_lines, lines):
        path = tmp_path / "trend.csv"
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        _assert_same_outcome(_outcome(read_trend_csv, path),
                             _outcome(oracles.read_trend_rows, path), _same_rows)

    @given(rows=trend_rows(finite=True))
    @SETTINGS
    def test_round_trip_through_both_readers(self, tmp_path, rows):
        write_trend_csv(tmp_path / "trend.csv", _trend_table(rows))
        _assert_same_outcome(_outcome(read_trend_csv, tmp_path / "trend.csv"),
                             _outcome(oracles.read_trend_rows, tmp_path / "trend.csv"),
                             _same_rows)

    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-row-first",
                                                              "repeat-first"])
    def test_first_error_of_the_file_wins_across_blocks(self, tmp_path, block_lines,
                                                        bad_first):
        # A row with hour 99 and a second row for an earlier cell, ten rows
        # apart: whichever comes first in the file names the error.
        rows = [f"S1,30d,{label},{h},5,3,8.5,0.7,0.49,0.1,0.2,0"
                for label in ("Jan", "Feb") for h in range(6)]
        bad, repeat = "S1,30d,Mar,99,5,3,8.5,0.7,0.49,0.1,0.2,0", rows[0]
        rows[1:1] = [bad if bad_first else repeat]
        rows[11:11] = [repeat if bad_first else bad]
        path = tmp_path / "trend.csv"
        path.write_text(",".join(oracles.TREND_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as exc:
            read_trend_csv(path)
        assert str(exc.value) == (
            "line 3: hour 99 out of range 0-23" if bad_first else
            "line 3: station S1: second row for scale 30d, window Jan, hour 0")
        assert _outcome(oracles.read_trend_rows, path) == _outcome(read_trend_csv, path)

    def test_repeated_cell_across_blocks_reports_its_lowest_line(self, tmp_path, block_lines):
        # The last cell of the last station repeats at line 7 and the first
        # cell of the first station at line 8; station C first appears in
        # a later block, after the repeated cells were first seen.
        rows = [f"{sid},{scale},{label},{h},5,3,8.5,0.7,0.49,0.1,0.2,0"
                for sid, scale, label, h in [
                    ("A", "10d", "Jan01-10", 0), ("Z", "60db", "Oct-Nov", 23),
                    ("Z", "10d", "Jan01-10", 0), ("A", "60db", "Oct-Nov", 23),
                    ("C", "30d", "Jun", 12), ("Z", "60db", "Oct-Nov", 23),
                    ("A", "10d", "Jan01-10", 0), ("C", "30d", "Jun", 12)]]
        path = tmp_path / "trend.csv"
        path.write_text(",".join(oracles.TREND_HEADER) + "\n" + "\n".join(rows) + "\n")
        message = "line 7: station Z: second row for scale 60db, window Oct-Nov, hour 23"
        with pytest.raises(ParseError) as exc:
            read_trend_csv(path)
        assert str(exc.value) == message
        assert _outcome(oracles.read_trend_rows, path) == ("error", ParseError, message)

    def test_bad_row_before_a_reader_error_wins(self, tmp_path, block_lines):
        # The reader stops at the byte that is not UTF-8, blocks after the
        # row with hour 99; the row comes first in the file.
        rows = [f"S1,30d,Jan,{h},5,3,8.5,0.7,0.49,0.1,0.2,0".encode() for h in range(8)]
        rows[2] = b"S1,30d,Feb,99,5,3,8.5,0.7,0.49,0.1,0.2,0"
        rows[7] = b"S\xff,30d,Feb,0,5,3,8.5,0.7,0.49,0.1,0.2,0"
        path = tmp_path / "trend.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ParseError, match="^line 3: hour 99 out of range 0-23$"):
            read_trend_csv(path)
        rows[2] = rows[1].replace(b",1,", b",2,")
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ParseError, match="^line 8: invalid UTF-8 byte 0xff$"):
            read_trend_csv(path)

    def test_counts_outside_int64_are_a_parse_error(self, tmp_path):
        path = tmp_path / "trend.csv"
        path.write_text(f"S1,30d,Jan,0,5,{2**63},8.5,0.7,0.49,0.1,0.2,0\n"
                        f"S1,30d,Jan,1,5,{2**63 - 1},8.5,0.7,0.49,0.1,0.2,0\n")
        with pytest.raises(ParseError, match="^line 1: malformed numeric field$"):
            read_trend_csv(path)
        path.write_text(f"S1,30d,Jan,{2**64},5,3,8.5,0.7,0.49,0.1,0.2,0\n")
        with pytest.raises(ParseError, match=f"^line 1: hour {2**64} out of range 0-23$"):
            read_trend_csv(path)

    def test_clean_files_stay_columnar(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the row-by-row path ran on a well-formed file")

        monkeypatch.setattr(_util, "BLOCK_LINES", 50)
        monkeypatch.setattr(_util, "_raise_first_bad", refuse)
        monkeypatch.setattr(_util.Block, "rows", refuse)
        monkeypatch.setattr(_util, "_split_rows", refuse)
        rows = [(sid, "10d", label, h, 12, -5, 162.5, -0.2, 0.8, -0.01, 0.3, False)
                for sid in ("S1", "S2") for label in ("Jan01-10", "Dec21-31") for h in range(24)]
        write_trend_csv(tmp_path / "trend.csv", _trend_table(rows))
        text = (tmp_path / "trend.csv").read_bytes()
        for ending in (b"\r\n", b"\n", b"\r"):
            (tmp_path / "trend.csv").write_bytes(text.replace(b"\r\n", ending))
            back = read_trend_csv(tmp_path / "trend.csv")
            assert sorted(back) == sorted(_trend_table(rows))


class TestByteLines:
    @given(data=st.lists(st.sampled_from([b"a", b",", b"\r", b"\n", b"\r\n", b"\xc3\xa9"]),
                         max_size=40).map(b"".join),
           read_bytes=st.integers(1, 9), take=st.integers(1, 4))
    @SETTINGS
    def test_lines_end_where_text_mode_ends_them(self, data, read_bytes, take):
        with mock.patch.object(_util, "READ_BYTES", read_bytes):
            lines = _util._ByteLines(io.BytesIO(data))
            got = []
            while (cut := lines.take(take)) is not None:
                chunk, ends = cut
                assert 0 < len(ends) <= take and ends[-1] == len(chunk)
                got += [bytes(chunk[b:e]) for b, e in zip([0, *ends[:-1].tolist()], ends.tolist())]
        text = io.StringIO(data.decode("utf-8"), newline="")
        assert got == [line.encode("utf-8") for line in text]


class TestBlockLifetime:
    """Each block, with its columns, is freed before the next block is
    split, once its consumer drops it: neither ``read_blocks``,
    ``station_blocks`` nor a reader's block loop holds it on. Checked at
    the start of each split, bulk or by ``csv.reader``."""

    @pytest.fixture
    def split_checks(self, monkeypatch):
        """Records, at the start of each split, whether a block that
        ``read_blocks`` yielded before, or its first column, is alive."""
        monkeypatch.setattr(_util, "BLOCK_LINES", 40)
        read_blocks, split_plain, refs, alive = _util.read_blocks, _util._split_plain, [], []

        def blocks(*args):
            for block in read_blocks(*args):
                refs.extend((weakref.ref(block), weakref.ref(block.columns[0])))
                yield block
                del block

        def split(*args):
            alive.append(any(ref() is not None for ref in refs))
            return split_plain(*args)

        monkeypatch.setattr(_util, "read_blocks", blocks)
        monkeypatch.setattr(_util, "_split_plain", split)
        return alive

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "csv-reader"])
    @pytest.mark.parametrize("reader", ["read_blocks", "station_blocks"])
    def test_generators(self, tmp_path, split_checks, reader, quoted):
        path = tmp_path / "t.csv"
        field = '"q"' if quoted else "q"
        path.write_text("".join(f"S{i % 3},{field}{i}\n" for i in range(200)))
        with open(path, "rb") as fh:
            blocks = (_util.read_blocks(fh, 2) if reader == "read_blocks"
                      else _util.station_blocks(path, 2, "rows", {}))
            for item in blocks:
                del item
        assert len(split_checks) == 5 and not any(split_checks)

    def test_readers(self, tmp_path, split_checks):
        rng = np.random.default_rng(3)
        write_records(tmp_path / "r.csv", [TemperatureSeries(
            sid, datetime(2000, 1, 1), HOUR, np.round(rng.normal(5, 3, 100), 1),
            np.zeros(100, bool)) for sid in ("S1", "S2")])
        read_records(tmp_path / "r.csv")
        write_panel(tmp_path / "p.csv", [grid_panel(rng, "S1", "60da", n_years=2)])
        read_panel(tmp_path / "p.csv")
        rows = [(sid, "10d", label, h, 12, -5, 162.5, -0.2, 0.8, -0.01, 0.3, False)
                for sid in ("S1", "S2") for label in ("Jan01-10", "Dec21-31") for h in range(24)]
        write_trend_csv(tmp_path / "t.csv", _trend_table(rows))
        read_trend_csv(tmp_path / "t.csv")
        # 201, 289 and 97 lines: 6 + 8 + 3 splits.
        assert len(split_checks) == 17 and not any(split_checks)


ODD_VALUES = [-0.0, 1e16, 1e-05, 0.1 + 0.2, 1 / 3, -273.15, 5e-324, 1.7976931348623157e308]
ODD_IDS = ["T01", "a,b", 'q"x', "Zürich", " pad ", "line\nbreak"]


@st.composite
def series_list(draw):
    """Up to three series, some longer than the small ``BLOCK_LINES`` the
    writer test draws, with steps that divide a day and steps that do not
    (7 min; 5 h, whose times of day repeat every 24 slots)."""
    out = []
    for sid in draw(st.lists(st.sampled_from(ODD_IDS), min_size=1, max_size=3, unique=True)):
        n = draw(st.integers(1, 100))
        values = draw(st.lists(st.one_of(st.sampled_from(ODD_VALUES),
                                         st.floats(allow_nan=False, allow_infinity=False)),
                               min_size=n, max_size=n))
        missing = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        start = datetime(1999, 12, 31, 23) + timedelta(
            microseconds=draw(st.sampled_from([0, 500000, 1])))
        step = draw(st.sampled_from([HOUR, HALF_HOUR, timedelta(milliseconds=250),
                                     timedelta(seconds=1.5), timedelta(minutes=7),
                                     timedelta(hours=5)]))
        out.append(TemperatureSeries(sid, start, step, values, missing))
    return out


@st.composite
def panel_list(draw):
    """Panels of 1-3 stations in all, one or two to a panel."""
    out = []
    ids = draw(st.lists(st.sampled_from(ODD_IDS), min_size=1, max_size=3, unique=True))
    while ids:
        k = draw(st.integers(1, min(2, len(ids))))
        stations, ids = sorted(ids[:k]), ids[k:]
        scale = draw(st.sampled_from(["30d", "60db", "10d"]))
        labels = list(build_calendar(scale).labels)
        if draw(st.booleans()):
            labels[0] = "Dec,Jan"  # a label csv has to quote
        n_years = draw(st.integers(1, 3))
        shape = (len(stations), n_years, len(labels), 24)
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        odd = np.array(ODD_VALUES + [math.nan])
        means = np.where(rng.random(shape) < 0.2, rng.choice(odd, shape),
                         rng.normal(0.0, 20.0, shape))
        counts = rng.choice([0, 1, 3], shape)
        years = sorted(draw(st.lists(st.integers(1, 9999), min_size=n_years,
                                     max_size=n_years, unique=True)))
        out.append(NetworkPanel(scale, stations, years, labels, means, counts))
    return out


class TestWriters:
    @given(series=series_list(), block_lines=st.sampled_from([7, 16, _util.BLOCK_LINES]))
    @settings(profile_settings(100), suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_records_bytes_match_row_writer(self, tmp_path, series, block_lines):
        with mock.patch.object(ingest, "BLOCK_LINES", block_lines):
            write_records(tmp_path / "new.csv", series)
        oracles.write_records_rows(tmp_path / "old.csv", series)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_write_records_odd_cases(self, tmp_path):
        series = [TemperatureSeries("a,b", datetime(2000, 1, 1, 0, 0, 0, 500000), HALF_HOUR,
                                    ODD_VALUES[:4] + [0.0], [False] * 4 + [True])]
        write_records(tmp_path / "new.csv", series)
        text = (tmp_path / "new.csv").read_text()
        assert text.splitlines()[1:] == [
            '"a,b",2000-01-01T00:00:00.500000Z,-0.0', '"a,b",2000-01-01T00:30:00.500000Z,1e+16',
            '"a,b",2000-01-01T01:00:00.500000Z,1e-05',
            '"a,b",2000-01-01T01:30:00.500000Z,0.30000000000000004',
            '"a,b",2000-01-01T02:00:00.500000Z,']

    def test_write_records_long_series(self, tmp_path):
        n = 3 * _util.BLOCK_LINES + 5
        rng = np.random.default_rng(3)
        series = [TemperatureSeries("S1", datetime(2000, 1, 1), HOUR, rng.normal(10, 5, n),
                                    rng.random(n) < 0.1)]
        write_records(tmp_path / "new.csv", series)
        oracles.write_records_rows(tmp_path / "old.csv", series)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(panels=panel_list())
    @settings(SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_panel_bytes_match_row_writer(self, tmp_path, panels):
        write_panel(tmp_path / "new.csv", panels)
        oracles.write_panel_rows(tmp_path / "old.csv", panels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("series", [
        [TemperatureSeries("S1", datetime(2000, 1, 1), HOUR, [], [])], [],
    ], ids=["zero-slot series", "no series"])
    def test_empty_records_write_only_the_header(self, tmp_path, series):
        write_records(tmp_path / "new.csv", series)
        oracles.write_records_rows(tmp_path / "old.csv", series)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 1

    @pytest.mark.parametrize("panels", [
        [NetworkPanel("30d", ["S1"], [], list(build_calendar("30d").labels),
                      np.empty((1, 0, 12, 24)), np.empty((1, 0, 12, 24), np.int64))], [],
    ], ids=["panel without years", "no panels"])
    def test_empty_panels_write_only_the_header(self, tmp_path, panels):
        write_panel(tmp_path / "new.csv", panels)
        oracles.write_panel_rows(tmp_path / "old.csv", panels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 1

    def test_empty_trend_and_contour_tables_write_only_the_header(self, tmp_path):
        table = TrendTable(*[[]] * len(TrendTable.DTYPES))
        write_trend_csv(tmp_path / "new.csv", table)
        oracles.write_trend_rows(tmp_path / "old.csv", [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 1
        write_contour_csv(tmp_path / "new.csv", contour_grid(table))
        oracles.write_contour_rows(tmp_path / "old.csv", [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 1


class TestFastPath:
    """Well-formed files must never reach the row-by-row code."""

    def test_clean_files_stay_columnar(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_util, "BLOCK_LINES", 50)

        def refuse(*args, **kwargs):
            raise AssertionError("the row-by-row path ran on a well-formed file")

        monkeypatch.setattr(_util, "_raise_first_bad", refuse)
        monkeypatch.setattr(ingest, "timestamp_us", refuse)
        monkeypatch.setattr(_util.Block, "rows", refuse)
        monkeypatch.setattr(_util, "_split_rows", refuse)
        monkeypatch.setattr(_util, "_text_rows", refuse)  # the decode path
        n = 240
        rng = np.random.default_rng(1)
        series = [TemperatureSeries(sid, datetime(2001, 1, 1), HOUR, rng.normal(5, 3, n),
                                    rng.random(n) < 0.2) for sid in ("S1", "S2")]
        panels = [NetworkPanel("30d", ["S1"], [2001], list(build_calendar("30d").labels),
                               rng.normal(5, 3, (1, 1, 12, 24)), np.ones((1, 1, 12, 24), int))]
        write_records(tmp_path / "records.csv", series)
        write_panel(tmp_path / "panel.csv", panels)
        records, panel = ((tmp_path / name).read_bytes() for name in ("records.csv", "panel.csv"))
        for ending in (b"\r\n", b"\n", b"\r"):
            (tmp_path / "records.csv").write_bytes(records.replace(b"\r\n", ending))
            back = read_records(tmp_path / "records.csv")
            assert [s.n for s in back.values()] == [n, n]
            (tmp_path / "panel.csv").write_bytes(panel.replace(b"\r\n", ending))
            assert read_panel(tmp_path / "panel.csv").counts.sum() == 288
        # Means at 0.1 degC: every field below the header is at most 8 bytes,
        # so each one is read as one integer key and never as text.
        short = NetworkPanel("30d", ["S1"], [2001], list(build_calendar("30d").labels),
                             np.round(rng.normal(5, 3, (1, 1, 12, 24)), 1),
                             np.ones((1, 1, 12, 24), int))
        write_panel(tmp_path / "short.csv", [short])
        monkeypatch.setattr(_util.Column, "text", refuse)
        assert _same_array(read_panel(tmp_path / "short.csv").means, short.means)


def _bytes(lines):
    """A binary file holding ``lines``, for ``read_blocks``."""
    return io.BytesIO("".join(lines).encode())


# Texts of at most 8 bytes, exactly 8 and 9 bytes, and longer.
NARROW_TEXTS = ["-0.0", "+4", ".5", "5.", "1E3", "1_0", "12.5", "-12.3456", "12.5", "+4"]
WIDE_TEXTS = ["-123.4567", "0.30000000000000004", "1.7976931348623157e+308", "-123.4567"]


class TestHeaderLines:
    """A header line is dropped wherever it sits in a bulk-split block, and
    the data rows keep their own line numbers."""

    @pytest.mark.parametrize("headers", [(), (0,), (2,), (0, 3), (0, 1), (4,)],
                             ids=["none", "first", "middle", "first-and-middle",
                                  "first-two", "last"])
    def test_header_dropped_line_numbers_kept(self, monkeypatch, headers):
        def refuse(*args):
            raise AssertionError("a plain block went to csv.reader")

        monkeypatch.setattr(_util, "_split_rows", refuse)
        rows = [f"S{k},{k}.5\n" for k in range(5)]
        for k in headers:
            rows[k] = "station_id,temp_c\n"
        (block,) = _util.read_blocks(_bytes(rows), 2)
        kept = [k for k in range(5) if k not in headers]
        assert block.line_no.tolist() == [k + 1 for k in kept]
        assert [c.text().tolist() for c in block.columns] == [
            [f"S{k}" for k in kept], [f"{k}.5" for k in kept]]


class TestParseFloats:
    @pytest.mark.parametrize("texts", [NARROW_TEXTS, WIDE_TEXTS,
                                       NARROW_TEXTS + WIDE_TEXTS + ["", "7"]],
                             ids=["narrow", "wide", "mixed"])
    def test_bits_match_float(self, texts):
        (block,) = _util.read_blocks(_bytes(f"x,{t}\n" for t in texts), 2)
        assert block.csv_rows is None  # split in bulk
        want = np.array([math.nan if t == "" else float(t) for t in texts])
        for column in (block.columns[1], _util.Column.of(texts)):
            values, bad = _util.parse_floats(column)
            assert _same_array(values, want) and not bad.any()

    @pytest.mark.parametrize("text", ["abc", "abcdefghi", "1.5.1"])
    def test_malformed_text_is_marked(self, text):
        (block,) = _util.read_blocks(_bytes(["x,1.5\n", f"x,{text}\n", "x,2.5\n"]), 2)
        values, bad = _util.parse_floats(block.columns[1])
        assert values.tolist() == [1.5, 0.0, 2.5] and bad.tolist() == [False, True, False]

    @pytest.mark.parametrize("text,message", [
        ("nan", "line 3: non-finite temperature 'nan'"),
        ("abc", "line 3: malformed temperature 'abc'"),
        ("-123.4567e", "line 3: malformed temperature '-123.4567e'"),
    ])
    def test_records_reader_words_the_bad_row(self, tmp_path, text, message):
        path = tmp_path / "records.csv"
        path.write_text(f"station_id,timestamp,temp_c\nT01,2001-01-01T00:00:00Z,1.5\n"
                        f"T01,2001-01-01T01:00:00Z,{text}\n")
        with pytest.raises(ParseError) as exc:
            read_records(path)
        assert str(exc.value) == message


# Plain text: printable ASCII but the quote and the comma. A small alphabet
# gives shared prefixes and ties; lengths 7, 8 and 9 straddle one word.
PLAIN = "".join(chr(c) for c in range(33, 127) if chr(c) not in '",')
PLAIN_TEXTS = st.one_of(st.text(PLAIN, max_size=16), st.text("!09Az~", max_size=16),
                        st.integers(7, 9).flatmap(lambda n: st.text("!09Az~", min_size=n,
                                                                    max_size=n)))
NUMBER_TEXTS = st.one_of(
    st.sampled_from(["", "0", "-0", "+.5", "1e5", "1_0", "nan", "inf", "-Infinity", "1E-07"]),
    st.floats().map(repr), st.integers(-10**15, 10**15).map(str),
    st.tuples(st.floats(-1000, 1000), st.integers(0, 12)).map(lambda v: f"{v[0]:.{v[1]}f}"))


@st.composite
def runs(draw, texts):
    """Texts in runs of 1-4 equal rows, or each on its own."""
    values = draw(st.lists(texts, min_size=1, max_size=40))
    if not draw(st.booleans()):
        return values
    return [v for v in values for _ in range(draw(st.integers(1, 4)))]


def _plain_column(texts):
    """The second field of lines ``s,<text>``, split in bulk."""
    (block,) = _util.read_blocks(_bytes(f"s,{t}\n" for t in texts), 2)
    assert block.csv_rows is None
    return block.columns[1]


class TestKeyPath:
    """Short fields of a plain block are keyed by one word; the keys must
    give what the text gives."""

    @given(texts=runs(PLAIN_TEXTS))
    @SETTINGS
    def test_factorize_matches_the_text(self, texts):
        distinct = sorted(set(texts))
        want = (distinct, [distinct.index(t) for t in texts])
        for column in (_plain_column(texts), _util.Column.of(texts)):
            names, index = _util.factorize(column)
            assert (names, index.tolist()) == want

    @given(texts=runs(st.text(st.sampled_from("a0\0é,\"") | st.sampled_from(PLAIN),
                              max_size=10)))
    @SETTINGS
    def test_factorize_of_csv_split_columns(self, texts):
        distinct = sorted(set(texts))
        names, index = _util.factorize(_util.Column.of(texts))
        assert (names, index.tolist()) == (distinct, [distinct.index(t) for t in texts])

    @given(texts=runs(NUMBER_TEXTS))
    @SETTINGS
    def test_parse_floats_keeps_the_bits_of_float(self, texts):
        # The texts as drawn, then their rows of at most 8 bytes alone and
        # their wider rows alone: a column of one kind is parsed whole.
        for part in (texts, [t for t in texts if len(t) <= 8],
                     [t for t in texts if len(t) > 8]):
            if not part:
                continue
            want = np.array([math.nan if t == "" else float(t) for t in part])
            for column in (_plain_column(part), _util.Column.of(part)):
                values, bad = _util.parse_floats(column)
                assert _same_array(values, want) and not bad.any()

    @given(rows=st.integers(2, 4).flatmap(lambda n: st.lists(
               st.lists(st.text(PLAIN, min_size=1, max_size=24), min_size=n, max_size=n),
               min_size=1, max_size=20)),
           ending=st.sampled_from(["\n", "\r\n", "\r"]))
    @SETTINGS
    def test_word_gather_text_matches_csv_reader(self, rows, ending):
        rows = [row for row in rows if row[0] != "station_id"] or [["x"] * len(rows[0])]
        lines = [",".join(row) + ending for row in rows]
        (block,) = _util.read_blocks(_bytes(lines), len(rows[0]))
        assert block.csv_rows is None
        fields = list(csv.reader(lines))
        for j, column in enumerate(block.columns):
            assert column.codes.flags.c_contiguous and column.codes.shape[1] % 8 == 0
            assert column.text().tolist() == [row[j] for row in fields]
