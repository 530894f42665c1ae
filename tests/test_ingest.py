"""Record parsing, dense series construction and hourly collapsing."""

from __future__ import annotations

import csv
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diurnal import (
    ContractError,
    DuplicateTimestampError,
    EmptyInputError,
    ParseError,
    Region,
    StationGroup,
    StationMeta,
    missing_report,
    read_metadata,
    read_panel,
    read_records,
    time_fields,
    to_hourly,
    write_metadata,
    write_panel,
    write_records,
)
from diurnal import aggregate
from diurnal._util import BLOCK_LINES
from diurnal.report import read_cluster_csv
from diurnal.trend import read_trend_csv
from helpers import HALF_HOUR, HOUR, grid_panel, make_series, read_peak


def _lines(*rows):
    return ["station_id,timestamp,temp_c"] + list(rows)


def _read_one(tmp_path, *rows):
    """The one series of a records file holding a header and ``rows``,
    read with an hourly step."""
    path = tmp_path / "records.csv"
    path.write_text("\n".join(_lines(*rows)) + "\n")
    (series,) = read_records(path, HOUR).values()
    return series


class TestReadRecords:
    def test_dense_happy_path(self, tmp_path):
        s = _read_one(tmp_path,
                      "T01,2001-05-02T00:00:00Z,1.5",
                      "T01,2001-05-02T01:00:00Z,2.5",
                      "T01,2001-05-02T02:00:00Z,-3.25")
        assert s.station_id == "T01"
        assert s.start == datetime(2001, 5, 2)
        assert s.n == 3
        assert not s.missing.any()
        assert s.values.tolist() == [1.5, 2.5, -3.25]

    def test_gap_slots_are_masked_not_dropped(self, tmp_path):
        s = _read_one(tmp_path,
                      "T01,2001-05-02T00:00:00Z,1.0",
                      "T01,2001-05-02T03:00:00Z,4.0")
        assert s.n == 4
        assert s.missing.tolist() == [False, True, True, False]
        assert np.isnan(s.values[1]) and np.isnan(s.values[2])

    def test_empty_temperature_field_is_missing(self, tmp_path):
        s = _read_one(tmp_path,
                      "T01,2001-05-02T00:00:00Z,1.0",
                      "T01,2001-05-02T01:00:00Z,",
                      "T01,2001-05-02T02:00:00Z,3.0")
        assert s.missing.tolist() == [False, True, False]

    def test_rows_sorted_before_building(self, tmp_path):
        s = _read_one(tmp_path,
                      "T01,2001-05-02T01:00:00Z,2.0",
                      "T01,2001-05-02T00:00:00Z,1.0")
        assert s.values.tolist() == [1.0, 2.0]

    def test_timezone_forms_normalized_to_utc(self, tmp_path):
        s = _read_one(tmp_path,
                      "T01,2001-05-02T00:00:00Z,1.0",
                      "T01,2001-05-02T01:00:00+00:00,2.0",
                      "T01,2001-05-02T04:00:00+02:00,3.0",  # 02:00 UTC
                      "T01,2001-05-02T03:00:00,4.0")        # naive treated as UTC
        assert s.n == 4
        assert s.values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        with pytest.raises(DuplicateTimestampError, match="2001-05-02T01:00:00"):
            _read_one(tmp_path,
                      "T01,2001-05-02T01:00:00Z,1.0",
                      "T01,2001-05-02T01:00:00Z,1.0")

    def test_misaligned_timestamp_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            _read_one(tmp_path,
                      "T01,2001-05-02T00:00:00Z,1.0",
                      "T01,2001-05-02T00:30:00Z,2.0")

    @pytest.mark.parametrize("row", [
        "T01,2001-05-02T00:00:00Z,abc",
        "T01,2001-05-02T00:00:00Z,inf",
        "T01,2001-05-02T00:00:00Z,nan",
        "T01,not-a-time,1.0",
        "T01,2001-05-02T00:00:00Z",
        "T01,2001-05-02T00:00:00Z,1.0,extra",
        ",2001-05-02T00:00:00Z,1.0",
    ])
    def test_malformed_rows_rejected(self, tmp_path, row):
        with pytest.raises(ParseError):
            _read_one(tmp_path, row)

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            _read_one(tmp_path)


class TestRecordsRoundTrip:
    def test_write_read_is_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        vals = rng.normal(10.0, 7.0, 48)
        miss = rng.random(48) < 0.2
        original = make_series(vals, miss, sid="RT01")
        path = tmp_path / "records.csv"
        write_records(path, [original])
        back = read_records(path)
        assert list(back) == ["RT01"]
        s = back["RT01"]
        assert s.start == original.start and s.step == original.step
        assert s.missing.tolist() == miss.tolist()
        keep = ~miss
        assert s.values[keep].tolist() == vals[keep].tolist()

    def test_write_is_deterministic(self, tmp_path):
        series = make_series([1.0, float(1 / 3), 2.0], [False, False, True])
        write_records(tmp_path / "a.csv", [series])
        write_records(tmp_path / "b.csv", [series])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_multi_station_read_sorted(self, tmp_path):
        b = make_series([1.0], sid="B01")
        a = make_series([2.0], sid="A01")
        write_records(tmp_path / "r.csv", [b, a])
        back = read_records(tmp_path / "r.csv")
        assert list(back) == ["A01", "B01"]

    def test_step_inference(self, tmp_path):
        half = make_series([1.0, 2.0, 3.0], step=HALF_HOUR, sid="H01")
        write_records(tmp_path / "r.csv", [half])
        back = read_records(tmp_path / "r.csv")
        assert back["H01"].step == HALF_HOUR

    def test_step_inference_smallest_gap(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("\n".join(_lines("G01,2000-01-01T00:00:00Z,1.0",
                                          "G01,2000-01-01T03:00:00Z,3.0",
                                          "G01,2000-01-01T02:00:00Z,2.0",
                                          "S01,2000-01-01T00:00:00Z,4.0")))
        back = read_records(path)
        assert (back["G01"].step, back["G01"].missing.tolist()) == (
            HOUR, [False, True, False, False])
        assert back["S01"].step == HOUR  # a single record defaults to an hour


class TestRecordsMemory:
    def test_peak_grows_by_at_most_40_bytes_a_row(self, tmp_path):
        # A row is held as its temperature (8 bytes; its microseconds too,
        # 16 bytes, where its run's stamps do not step by one constant) until
        # its station's series is built. The peak also holds one block's
        # working memory, which does not grow with the file, so the bound is
        # on the peak's growth from 100k rows to 200k: the reader that held
        # 32 bytes a row twice and sorted the whole file grew by 66-86
        # bytes a row.
        rng = np.random.default_rng(7)
        peaks = []
        for n in (25_000, 50_000):
            series = [make_series(np.round(rng.normal(5, 3, n), 1), rng.random(n) < 0.02,
                                  sid=sid) for sid in ("S1", "S2", "S3", "S4")]
            write_records(tmp_path / f"{n}.csv", series)
            read_records(tmp_path / f"{n}.csv")
            peaks.append(read_peak(read_records, tmp_path / f"{n}.csv")[0])
        assert (peaks[1] - peaks[0]) / 100_000 <= 40


class TestPanelMemory:
    def test_peak_grows_by_at_most_40_bytes_a_row(self, tmp_path):
        # A row is one grid cell, held as its mean and seen mark (9 bytes,
        # in a grid that grows in place to the rows it holds) until the
        # panels are built with their int64 counts. The bound is on the
        # peak's growth from 345 600 rows (10 stations x 40 years of 10d
        # cells) to 691 200, past one block's working memory: the reader
        # that kept every row's seven columns until the end grew by 106
        # bytes a row.
        rng = np.random.default_rng(7)
        peaks = []
        for n in (10, 20):
            panels = [grid_panel(rng, f"S{k:02d}", "10d", n_years=40) for k in range(n)]
            write_panel(tmp_path / f"{n}.csv", panels)
            read_panel(tmp_path / f"{n}.csv")
            peaks.append(read_peak(read_panel, tmp_path / f"{n}.csv")[0])
        assert (peaks[1] - peaks[0]) / 345_600 <= 40

    def test_growing_grid_never_holds_two_copies(self):
        # Each scatter adds one (station, year) grid row. A grid whose rows
        # doubled held the old and the new buffer at once, 1.5 times its
        # final size at 100 rows.
        grid = aggregate._PanelGrid(aggregate.SCALES.index("10d"))
        one, zero = np.ones(1, bool), np.zeros(1, np.int64)

        def grow():
            for k in range(100):
                grid.scatter(one, np.array([k]), np.array([2000]), zero, zero, np.ones(1), one)

        peak, held = read_peak(grow)
        assert len(grid.means) == 100
        assert peak - held <= 36 * 24 * 9  # one grid row


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_panel_read_under_a_trace_or_profile_hook(tmp_path, hook):
    # A hook (coverage, a debugger, cProfile) holds extra references to the
    # growing grid, which ndarray.resize's reference check refused.
    rng = np.random.default_rng(7)
    # 69 120 rows: five blocks, so the grid grows four times.
    write_panel(tmp_path / "p.csv", [grid_panel(rng, f"S{k}", "10d", n_years=20)
                                     for k in range(4)])
    want = read_panel(tmp_path / "p.csv")
    get, set_hook = (getattr(sys, "get" + hook[3:]), getattr(sys, hook))
    before = get()
    set_hook(lambda frame, event, arg: None)
    try:
        got = read_panel(tmp_path / "p.csv")
    finally:
        set_hook(before)
    assert got.stations == want.stations
    assert np.array_equal(got.years, want.years)
    assert np.array_equal(got.means, want.means, equal_nan=True)
    assert np.array_equal(got.counts, want.counts)


class TestBlockMemory:
    """A reader holds one block's working memory at a time: its peak above
    what it returns, on a file of four blocks of ``BLOCK_LINES`` rows, stays
    within 224 bytes a block line, loose over the 131 (records) and 173
    (panel) measured on numpy 2.4. A reader that holds the last block while
    it splits the next takes 338 and 484."""

    BOUND = 224 * BLOCK_LINES

    def test_records(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 4 * BLOCK_LINES
        write_records(tmp_path / "r.csv", [
            make_series(np.round(rng.normal(5, 3, n), 1), rng.random(n) < 0.02)])
        peak, held = read_peak(read_records, tmp_path / "r.csv")
        assert peak - held <= self.BOUND

    def test_records_of_many_blocks_and_stations(self, tmp_path):
        # 4 stations of 8 blocks each, every slot a row: a row keeps only
        # its temperature (8 bytes), which becomes its station's values, so
        # the peak above what is returned stays within one block's working
        # memory and the largest station's series (9 bytes a slot). Measured
        # 110 bytes a block line; a reader that keeps 16 bytes a row until
        # every station is built takes 375, past the bound's 296.
        rng = np.random.default_rng(7)
        n = 8 * BLOCK_LINES
        write_records(tmp_path / "r.csv", [
            make_series(np.round(rng.normal(5, 3, n), 1), rng.random(n) < 0.02, sid=f"S{k}")
            for k in range(4)])
        peak, held = read_peak(read_records, tmp_path / "r.csv")
        assert peak - held <= self.BOUND + 9 * n

    def test_panel(self, tmp_path):
        rng = np.random.default_rng(7)
        # 4 stations x 20 years of 10d cells, 69 120 rows, whose means
        # (-1.0 to 1.0 by 0.25) are short texts, as in a panel of rounded means.
        write_panel(tmp_path / "p.csv", [
            grid_panel(rng, f"S{k}", "10d", levels=9, valid_rate=1.0,
                       years=np.arange(1980, 2000)) for k in range(4)])
        peak, held = read_peak(read_panel, tmp_path / "p.csv")
        assert peak - held <= self.BOUND


class TestToHourly:
    def test_means_pairs_and_masks_empty_hours(self):
        s = make_series([1.0, 3.0, 5.0, np.nan, np.nan, np.nan],
                        [False, False, False, True, True, True],
                        step=HALF_HOUR)
        h = to_hourly(s)
        assert h.step == HOUR
        assert h.n == 3
        assert h.values[0] == 2.0
        assert h.values[1] == 5.0  # lone half-hour reading stands in for the hour
        assert h.missing.tolist() == [False, False, True]

    def test_start_on_half_hour(self):
        s = make_series([4.0, 1.0, 3.0], step=HALF_HOUR,
                        start=datetime(2000, 1, 1, 0, 30))
        h = to_hourly(s)
        assert h.start == datetime(2000, 1, 1, 0, 0)
        assert h.values.tolist() == [4.0, 2.0]

    def test_rejects_non_half_hour_step(self):
        # A 15-minute series cannot be collapsed; an hourly one comes back
        # as it is, the same object.
        with pytest.raises(ContractError) as info:
            to_hourly(make_series([1.0, 2.0], step=timedelta(minutes=15), sid="Q1"))
        assert str(info.value) == "station Q1: cannot collapse step 0:15:00 to hourly"
        hourly = make_series([1.0, 2.0], step=HOUR)
        assert to_hourly(hourly) is hourly


class TestMissingReport:
    def test_counts_over_own_span(self):
        miss = np.zeros(10000, dtype=bool)
        miss[:774] = True
        rep = missing_report(make_series(np.ones(10000), miss))
        assert rep.total_slots == 10000
        assert rep.missing_slots == 774
        assert rep.missing_pct == pytest.approx(7.74)


class TestTemperatureSeries:
    @pytest.mark.parametrize("held", [7.5, 0.0, np.inf, -np.inf])
    def test_masked_slot_holding_a_number_becomes_nan(self, held):
        values = np.array([1.0, held, 3.0])
        s = make_series(values, [False, True, False])
        assert s.values[0] == 1.0 and np.isnan(s.values[1]) and s.values[2] == 3.0
        assert values[1] == held  # the caller's array is left as it was

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_value_raises(self, bad):
        with pytest.raises(ContractError, match="^non-missing values must be finite$"):
            make_series([1.0, bad, 3.0], [True, False, False])


class TestTimeFields:
    @given(st.integers(min_value=0, max_value=400_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_datetime_arithmetic(self, offset_hours):
        dt = datetime(1999, 12, 31, 23) + offset_hours * HOUR
        idx = np.array([np.datetime64(dt, "s")])
        years, months, days, hours = time_fields(idx)
        assert (years[0], months[0], days[0], hours[0]) == (
            dt.year, dt.month, dt.day, dt.hour)

    def test_sub_second_index(self):
        s = make_series(np.ones(6), start=datetime(2000, 1, 31, 23, 59, 59),
                        step=timedelta(milliseconds=500))
        idx = s.index64()
        assert idx.tolist() == [s.timestamp(k) for k in range(6)]
        assert len(np.unique(idx)) == 6
        assert time_fields(idx)[1].tolist() == [1, 1, 2, 2, 2, 2]

    def test_leap_day_fields(self):
        idx = np.array([np.datetime64("2020-02-29T13:00:00", "s")])
        years, months, days, hours = time_fields(idx)
        assert (years[0], months[0], days[0], hours[0]) == (2020, 2, 29, 13)


class TestStationMeta:
    def test_valid_row(self):
        m = StationMeta("S1", "North Fell", StationGroup.UKH, Region.UK, 54.7, -2.5, 847.0)
        assert m.group is StationGroup.UKH

    @pytest.mark.parametrize("lat,lon,alt", [
        (91.0, 0.0, 10.0),
        (0.0, -181.0, 10.0),
        (0.0, 0.0, -1.0),
    ])
    def test_out_of_range_coordinates(self, lat, lon, alt):
        with pytest.raises(ContractError):
            StationMeta("S1", "X", StationGroup.UKL, Region.UK, lat, lon, alt)

    def test_group_region_consistency(self):
        with pytest.raises(ContractError, match="inconsistent"):
            StationMeta("S1", "X", StationGroup.UKH, Region.PIEMONTE, 45.0, 7.0, 100.0)
        with pytest.raises(ContractError, match="inconsistent"):
            StationMeta("S1", "X", StationGroup.IL, Region.UK, 52.0, 0.0, 100.0)

    def test_metadata_round_trip(self, tmp_path):
        rows = [
            StationMeta("S2", "Alp Low", StationGroup.IL, Region.PIEMONTE, 44.9, 7.6, 240.0),
            StationMeta("S1", "Moor", StationGroup.UKL, Region.UK, 53.4, -1.9, 90.0),
        ]
        path = tmp_path / "meta.csv"
        write_metadata(path, rows)
        back = read_metadata(path)
        assert list(back) == ["S1", "S2"]
        assert back["S2"] == rows[0]

    def test_duplicate_station_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "station_id,name,group,region,latitude,longitude,altitude_m\n"
            "S1,A,UKH,UK,54.0,-2.0,600\n"
            "S1,B,UKH,UK,54.0,-2.0,600\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_metadata(path)

    def test_unknown_group_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "station_id,name,group,region,latitude,longitude,altitude_m\n"
            "S1,A,XX,UK,54.0,-2.0,600\n")
        with pytest.raises(ParseError):
            read_metadata(path)

    @pytest.mark.parametrize("coords", ["54.0,-2.0,inf", "nan,-2.0,600", "54.0,-inf,600",
                                        "54.0,-2.0,abc"])
    def test_non_finite_coordinate_is_a_parse_error_with_its_line(self, tmp_path, coords):
        path = tmp_path / "meta.csv"
        path.write_text("station_id,name,group,region,latitude,longitude,altitude_m\n"
                        "S0,A,UKH,UK,54.0,-2.0,600\n"
                        f"S1,A,UKH,UK,{coords}\n")
        with pytest.raises(ParseError) as exc:
            read_metadata(path)
        assert str(exc.value) == "line 3: malformed coordinate or altitude"

    @pytest.mark.parametrize("row,message", [
        ("S1,A,UKH,UK,95,-2.0,600", "line 3: station S1: latitude 95.0 out of [-90, 90]"),
        ("S1,A,UKH,Piemonte,54.0,-2.0,600",
         "line 3: station S1: group UKH is inconsistent with region Piemonte"),
    ], ids=["latitude-95", "group-region"])
    def test_station_rule_is_a_parse_error_with_its_line(self, tmp_path, row, message):
        path = tmp_path / "meta.csv"
        path.write_text("station_id,name,group,region,latitude,longitude,altitude_m\n"
                        f"S0,A,UKH,UK,54.0,-2.0,600\n{row}\n")
        with pytest.raises(ParseError) as exc:
            read_metadata(path)
        assert str(exc.value) == message


# A header and one valid row for each reader of the small tables.
SMALL_TABLES = {
    "metadata": (read_metadata, "station_id,name,group,region,latitude,longitude,altitude_m",
                 "S1,A,UKH,UK,54.0,-2.0,600"),
    "trend": (read_trend_csv, "station_id,scale,window_label,hour,n,S,var_S,z,p_value,"
              "sen_slope,lag1,serial_flag", "S1,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,0"),
    "cluster": (read_cluster_csv, "station_id,cluster,silhouette", "S1,1,0.5"),
}


@pytest.mark.parametrize("table", sorted(SMALL_TABLES))
class TestSmallTableReaders:
    def test_field_over_limit_is_a_parse_error_with_its_line(self, tmp_path, table):
        reader, header, row = SMALL_TABLES[table]
        limit = csv.field_size_limit()
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{row}\nS2{'x' * limit},{row.split(',', 1)[1]}\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == f"line 3: field larger than field limit ({limit})"
        assert exc.value.line_no == 3

    def test_invalid_utf8_is_a_parse_error_with_its_line(self, tmp_path, table):
        reader, header, row = SMALL_TABLES[table]
        path = tmp_path / "t.csv"
        path.write_bytes(f"{header}\n{row}\nS\xff{row}\n".encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == "line 3: invalid UTF-8 byte 0xff"
        assert exc.value.line_no == 3

    def test_byte_order_mark_at_file_start_is_skipped(self, tmp_path, table):
        reader, header, row = SMALL_TABLES[table]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(f"{header}\n{row}\n", encoding="utf-8")
        marked.write_text(f"{header}\n{row}\n", encoding="utf-8-sig")
        assert reader(marked) == reader(plain)
        # A second mark is text: the header becomes a data row.
        marked.write_text(f"\ufeff{header}\n{row}\n", encoding="utf-8-sig")
        with pytest.raises(ParseError) as exc:
            reader(marked)
        assert exc.value.line_no == 1

    def test_earlier_bad_row_wins(self, tmp_path, table):
        reader, header, row = SMALL_TABLES[table]
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{row},extra\n\"{'x' * csv.field_size_limit()}\"\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="^line 2: expected"):
            reader(path)


class TestSmallTableValues:
    """Values that no writer writes are a ``ParseError`` on their row, not a
    silent result further on."""

    @pytest.mark.parametrize("row,message", [
        ("S1,0,0.5", "cluster id 0 is not positive"),
        ("S1,-2,0.5", "cluster id -2 is not positive"),
        ("S1,1,nan", "silhouette nan out of [-1, 1]"),
        ("S1,1,", "silhouette nan out of [-1, 1]"),
        ("S1,1,1.5", "silhouette 1.5 out of [-1, 1]"),
        ("S1,1,-inf", "silhouette -inf out of [-1, 1]"),
    ])
    def test_cluster_row_out_of_range(self, tmp_path, row, message):
        path = tmp_path / "clusters.csv"
        path.write_text(f"station_id,cluster_id,silhouette\nS0,1,-1.0\n{row}\n")
        with pytest.raises(ParseError) as exc:
            read_cluster_csv(path)
        assert str(exc.value) == f"line 3: {message}"

    def test_cluster_bounds_are_inside(self, tmp_path):
        path = tmp_path / "clusters.csv"
        path.write_text("station_id,cluster_id,silhouette\nS0,1,-1.0\nS1,12,1.0\nS2,2,0\n")
        assert read_cluster_csv(path) == {"S0": (1, -1.0), "S1": (12, 1.0), "S2": (2, 0.0)}

    @pytest.mark.parametrize("p,slope,message", [
        ("nan", "0.1", "p_value nan out of [0, 1]"),
        ("", "0.1", "p_value nan out of [0, 1]"),
        ("1.5", "0.1", "p_value 1.5 out of [0, 1]"),
        ("-0.01", "0.1", "p_value -0.01 out of [0, 1]"),
        ("0.49", "inf", "sen_slope inf is not finite"),
        ("0.49", "", "sen_slope nan is not finite"),
    ])
    def test_trend_row_with_bad_p_value_or_slope(self, tmp_path, p, slope, message):
        path = tmp_path / "trend.csv"
        path.write_text("station_id,scale,window_label,hour,n,S,var_S,z,p_value,sen_slope,"
                        "lag1,serial_flag\nS1,30d,Jan,0,5,3,8.5,0.7,0,-0.1,0.2,0\n"
                        f"S1,30d,Jan,1,5,3,8.5,0.7,{p},{slope},0.2,0\n")
        with pytest.raises(ParseError) as exc:
            read_trend_csv(path)
        assert str(exc.value) == f"line 3: {message}"
