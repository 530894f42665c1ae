"""Window calendars and hour-of-day panel aggregation."""

from __future__ import annotations

import warnings
from datetime import datetime

import numpy as np
import pytest

from diurnal import (
    ContractError,
    EmptyInputError,
    NetworkPanel,
    ParseError,
    build_calendar,
    hourly_window_means,
    read_panel,
    stack_panels,
    synth_station,
    write_panel,
    year_series,
)
from helpers import HALF_HOUR, make_series

MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


class TestCalendars:
    def test_10d_labels(self):
        cal = build_calendar("10d")
        assert cal.n_windows == 36
        assert cal.labels[:3] == ("Jan01-10", "Jan11-20", "Jan21-31")
        assert cal.labels[-3:] == ("Dec01-10", "Dec11-20", "Dec21-31")
        # Short months keep the nominal 21-31 label.
        assert "Feb21-31" in cal.labels

    def test_30d_labels(self):
        assert build_calendar("30d").labels == tuple(MONTHS)

    def test_60d_labels(self):
        assert build_calendar("60da").labels == (
            "Jan-Feb", "Mar-Apr", "May-Jun", "Jul-Aug", "Sep-Oct", "Nov-Dec")
        assert build_calendar("60db").labels == (
            "Dec-Jan", "Feb-Mar", "Apr-May", "Jun-Jul", "Aug-Sep", "Oct-Nov")

    def test_unknown_scale(self):
        with pytest.raises(ContractError, match="unknown scale"):
            build_calendar("45d")

    def test_10d_decade_boundaries(self):
        cal = build_calendar("10d")
        m = np.array([1, 1, 1, 1, 1, 2, 2])
        d = np.array([1, 10, 11, 20, 21, 28, 29])
        assert cal.window_index(m, d).tolist() == [0, 0, 1, 1, 2, 5, 5]

    def test_60db_december_joins_next_january(self):
        cal = build_calendar("60db")
        months = np.array([12, 1, 2])
        years = np.array([2000, 2001, 2001])
        days = np.array([25, 5, 5])
        assert cal.window_index(months, days).tolist() == [0, 0, 1]
        assert cal.panel_years(years, months).tolist() == [2000, 2000, 2001]

    @pytest.mark.parametrize("scale", ["10d", "30d", "60da", "60db"])
    @pytest.mark.parametrize("year", [2019, 2020])
    def test_every_day_maps_to_exactly_one_window(self, scale, year):
        cal = build_calendar(scale)
        day = np.datetime64(f"{year}-01-01")
        end = np.datetime64(f"{year + 1}-01-01")
        days = np.arange(day, end)
        months = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
        dom = (days - days.astype("datetime64[M]").astype("datetime64[D]")
               ).astype(np.int64) + 1
        idx = cal.window_index(months, dom)
        assert idx.min() >= 0 and idx.max() < cal.n_windows
        assert set(idx.tolist()) == set(range(cal.n_windows))


class TestAggregation:
    def test_pure_diurnal_surface_is_recovered(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=2, base=10.0,
                          diurnal_amplitude=5.0, annual_amplitude=0.0)
        panel = hourly_window_means(s, build_calendar("30d"))
        assert (panel.stations, panel.years.tolist()) == (["S1"], [2000, 2001])
        expected = 10.0 + 5.0 * np.sin(2.0 * np.pi * np.arange(24) / 24.0)
        assert panel.cell_valid().all()
        for yi in range(2):
            for w in range(12):
                np.testing.assert_allclose(panel.means[0, yi, w], expected, rtol=1e-12)

    def test_trend_moves_yearly_cells(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=3, base=0.0,
                          diurnal_amplitude=0.0, trend_per_year=0.5)
        panel = hourly_window_means(s, build_calendar("30d"))
        years, vals = year_series(panel, "Mar", 12)
        assert years.tolist() == [2000, 2001, 2002]
        np.testing.assert_allclose(vals, [0.0, 0.5, 1.0], atol=1e-12)

    def test_masked_slots_rejected_unless_skipped(self):
        s = make_series([1.0, 2.0, 3.0], [False, True, False])
        cal = build_calendar("30d")
        with pytest.raises(ContractError, match="impute first"):
            hourly_window_means(s, cal)
        panel = hourly_window_means(s, cal, skip_missing=True)
        assert panel.counts[0, 0, 0, 1] == 0
        assert np.isnan(panel.means[0, 0, 0, 1])

    def test_counts_match_window_sizes(self):
        s = synth_station("S1", datetime(2001, 1, 1), n_years=1)
        panel = hourly_window_means(s, build_calendar("10d"))
        jan_counts = panel.counts[0, 0, :3, 0]
        assert jan_counts.tolist() == [10, 10, 11]
        feb_counts = panel.counts[0, 0, 3:6, 0]
        assert feb_counts.tolist() == [10, 10, 8]  # 2001 is not a leap year

    def test_leap_day_joins_late_february(self):
        s = synth_station("S1", datetime(2004, 1, 1), n_years=1)
        panel = hourly_window_means(s, build_calendar("10d"))
        assert panel.counts[0, 0, 5, 0] == 9  # Feb 21-29

    def test_day10_aggregates_to_day30(self):
        s = synth_station("S1", datetime(2002, 1, 1), n_years=2, noise_sd=1.0,
                          annual_amplitude=8.0, seed=3, missing_rate=0.1)
        cal10, cal30 = build_calendar("10d"), build_calendar("30d")
        p10 = hourly_window_means(s, cal10, skip_missing=True)
        p30 = hourly_window_means(s, cal30, skip_missing=True)
        sums10 = np.where(p10.counts > 0, p10.means, 0.0) * p10.counts
        for m in range(12):
            w10 = slice(3 * m, 3 * m + 3)
            counts = p10.counts[0, :, w10, :].sum(axis=1)
            sums = sums10[0, :, w10, :].sum(axis=1)
            ok = counts > 0
            np.testing.assert_allclose(sums[ok] / counts[ok], p30.means[0, :, m, :][ok],
                                       rtol=1e-12)
            assert (counts == p30.counts[0, :, m, :]).all()

    def test_60db_spans_calendar_years(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=3, base=1.0)
        panel = hourly_window_means(s, build_calendar("60db"))
        # January 2000 has no December 1999 partner but still lands in panel
        # year 1999; December 2002 opens panel year 2002 alone.
        assert panel.years.tolist() == [1999, 2000, 2001, 2002]
        dec_jan = panel.labels.index("Dec-Jan")
        assert panel.counts[0, 0, dec_jan, 0] == 31       # Jan 2000 only
        assert panel.counts[0, 1, dec_jan, 0] == 31 + 31  # Dec 2000 + Jan 2001
        assert panel.counts[0, 3, dec_jan, 0] == 31       # Dec 2002 only
        feb_mar = panel.labels.index("Feb-Mar")
        assert panel.counts[0, 0, feb_mar, 0] == 0

    def test_requires_hourly_step(self):
        s = make_series([1.0, 2.0], step=HALF_HOUR)
        with pytest.raises(ContractError, match="hourly"):
            hourly_window_means(s, build_calendar("30d"))

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyInputError):
            hourly_window_means(make_series([]), build_calendar("30d"))

    def test_first_overflowing_cell_is_named(self):
        # Readings at 1e308 in hour 1 of September 2000 and hour 5 of June
        # 2001: the 30 readings of each cell sum past the largest double.
        # A mean of inf was once returned, with no warning; September 2000
        # comes first in (year, window, hour) order. Once its readings are
        # masked, an empty cell, the June cell is named.
        stamps = np.arange("2000-01-01T00", "2002-01-01T00", dtype="datetime64[h]")
        year = stamps.astype("datetime64[Y]").astype(int) + 1970
        month = stamps.astype("datetime64[M]").astype(int) % 12 + 1
        hour = stamps.astype(int) % 24
        sep = (year == 2000) & (month == 9) & (hour == 1)
        jun = (year == 2001) & (month == 6) & (hour == 5)
        values = np.where(sep | jun, 1e308, 1e306)
        cal = build_calendar("30d")
        for missing, cell in ((None, "year 2000, window Sep, hour 1"),
                              (sep, "year 2001, window Jun, hour 5")):
            s = make_series(values, missing, sid="A")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractError) as info:
                    hourly_window_means(s, cal, skip_missing=True)
            assert str(info.value) == f"station A, {cell}: mean of the readings is not finite"


class TestYearSeries:
    def test_unknown_label_and_hour(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=1)
        panel = hourly_window_means(s, build_calendar("30d"))
        with pytest.raises(ContractError, match="window label"):
            year_series(panel, "January", 0)
        with pytest.raises(ContractError, match="hour"):
            year_series(panel, "Jan", 24)

    def test_invalid_years_dropped(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=3, seed=1,
                          missing_rate=0.001, noise_sd=0.1)
        # Mask out all of March 2001 by rebuilding with an explicit gap.
        vals = s.values.copy()
        miss = s.missing.copy()
        idx = s.index64()
        in_mar_2001 = (idx >= np.datetime64("2001-03-01")) & (idx < np.datetime64("2001-04-01"))
        miss[in_mar_2001] = True
        gappy = make_series(vals, miss, start=s.start, sid="S1")
        panel = hourly_window_means(gappy, build_calendar("30d"), skip_missing=True)
        years, _ = year_series(panel, "Mar", 5)
        assert years.tolist() == [2000, 2002]

    def test_needs_a_one_station_panel(self):
        cal = build_calendar("30d")
        panel = stack_panels([hourly_window_means(synth_station(sid, datetime(2000, 1, 1),
                                                                n_years=1), cal)
                              for sid in ("S1", "S2")])
        with pytest.raises(ContractError, match="year_series needs a one-station panel, "
                                                "got 2 stations"):
            year_series(panel, "Jan", 0)


class TestPanelYears:
    """The trend tests read the years axis as time order, so it must rise;
    the stations come in sorted order, once each."""

    def test_descending_years_are_rejected(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=3, trend_per_year=0.1, seed=3)
        panel = hourly_window_means(s, build_calendar("30d"))
        with pytest.raises(ContractError, match=r"panel years must be strictly "
                                                r"increasing, got \[2002, 2001, 2000\]"):
            NetworkPanel("30d", ["S1"], panel.years[::-1], panel.means[:, ::-1],
                         panel.counts[:, ::-1])

    def test_repeated_year_is_rejected(self):
        shape = (1, 2, 12, 24)
        with pytest.raises(ContractError, match="strictly increasing"):
            NetworkPanel("30d", ["S1"], [2000, 2000], np.zeros(shape), np.ones(shape, np.int64))

    @pytest.mark.parametrize("stations", [["S2", "S1"], ["S1", "S1"]])
    def test_unsorted_or_repeated_stations_are_rejected(self, stations):
        shape = (2, 1, 12, 24)
        with pytest.raises(ContractError, match="panel stations must be sorted and distinct"):
            NetworkPanel("30d", stations, [2000], np.zeros(shape), np.ones(shape, np.int64))


class TestStackPanels:
    def test_stations_on_the_union_of_their_years(self):
        cal = build_calendar("30d")
        late = hourly_window_means(synth_station("B", datetime(2001, 1, 1), n_years=2), cal)
        early = hourly_window_means(synth_station("A", datetime(2000, 1, 1), n_years=1), cal)
        panel = stack_panels([late, early])
        assert (panel.stations, panel.years.tolist()) == (["A", "B"], [2000, 2001, 2002])
        assert panel.counts[:, :, 0, 0].tolist() == [[31, 0, 0], [0, 31, 31]]
        assert np.isnan(panel.means[0, 1:]).all() and np.isnan(panel.means[1, 0]).all()
        assert panel.means[1, 1:].tolist() == late.means[0].tolist()

    def test_mixed_scales_and_repeated_stations_are_rejected(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=1)
        p30, p10 = (hourly_window_means(s, build_calendar(sc)) for sc in ("30d", "10d"))
        with pytest.raises(ContractError, match=r"panels to stack must share one scale, "
                                                r"got \['10d', '30d'\]"):
            stack_panels([p30, p10])
        with pytest.raises(ContractError, match=r"one scale, got \[\]"):
            stack_panels([])
        with pytest.raises(ContractError, match="sorted and distinct"):
            stack_panels([p30, p30])


class TestPanelRoundTrip:
    def test_write_read_identity(self, tmp_path):
        s1 = synth_station("S1", datetime(2000, 1, 1), n_years=2, noise_sd=0.7,
                           annual_amplitude=4.0, seed=9, missing_rate=0.05)
        s2 = synth_station("S2", datetime(2000, 1, 1), n_years=2, noise_sd=0.7,
                           annual_amplitude=4.0, seed=10)
        cal = build_calendar("60db")
        panels = [hourly_window_means(s, cal, skip_missing=True) for s in (s1, s2)]
        path = tmp_path / "panel.csv"
        write_panel(path, panels)
        back = read_panel(path)
        orig = stack_panels(panels)
        assert (back.scale, back.stations, back.labels) == (orig.scale, orig.stations,
                                                            orig.labels)
        assert back.years.tolist() == orig.years.tolist()
        assert (back.cell_valid() == orig.cell_valid()).all()
        ok = orig.cell_valid()
        assert back.means[ok].tolist() == orig.means[ok].tolist()

    def test_write_is_deterministic(self, tmp_path):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=1, noise_sd=0.3, seed=2)
        panel = hourly_window_means(s, build_calendar("30d"))
        write_panel(tmp_path / "a.csv", [panel])
        write_panel(tmp_path / "b.csv", [panel])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_read_rejects_garbage(self, tmp_path):
        from diurnal import ParseError
        path = tmp_path / "p.csv"
        path.write_text("station_id,scale,year,window_label,hour,mean_temp,valid\n"
                        "S1,45d,2000,Jan,0,1.0,1\n")
        with pytest.raises(ParseError, match="unknown scale"):
            read_panel(path)
        path.write_text("station_id,scale,year,window_label,hour,mean_temp,valid\n"
                        "S1,30d,2000,Dec-Jan,0,1.0,1\n")
        with pytest.raises(ParseError, match="does not belong"):
            read_panel(path)
        path.write_text("station_id,scale,year,window_label,hour,mean_temp,valid\n")
        with pytest.raises(EmptyInputError):
            read_panel(path)


PANEL_HEAD = "station_id,scale,year,window_label,hour,mean_temp,valid\n"


class TestPanelReadErrors:
    """Rows that used to give silent wrong numbers now raise with their line."""

    def _read(self, tmp_path, *rows):
        path = tmp_path / "p.csv"
        path.write_text(PANEL_HEAD + "S1,30d,2000,Jan,0,1.5,1\n" + "".join(r + "\n" for r in rows))
        return read_panel(path)

    def test_duplicate_cell(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 4: station S1: second row for year "
                                             r"2000, window Jan, hour 0"):
            self._read(tmp_path, "S1,30d,2000,Feb,0,2.0,1", "S1,30d,2000,Jan,0,9.0,1")

    @pytest.mark.parametrize("hour", ["-1", "24"])
    def test_hour_out_of_range(self, tmp_path, hour):
        with pytest.raises(ParseError, match=rf"^line 3: hour {hour} out of range 0-23"):
            self._read(tmp_path, f"S1,30d,2000,Jan,{hour},2.0,1")

    @pytest.mark.parametrize("mean", ["", "nan", "inf", "-inf"])
    def test_valid_cell_needs_finite_mean(self, tmp_path, mean):
        with pytest.raises(ParseError, match=r"^line 3: valid cell with non-finite mean"):
            self._read(tmp_path, f"S1,30d,2000,Jan,1,{mean},1")

    def test_invalid_cell_may_hold_any_mean(self, tmp_path):
        panel = self._read(tmp_path, "S1,30d,2000,Jan,1,nan,0", "S1,30d,2000,Jan,2,,0")
        assert panel.counts.sum() == 1

    @pytest.mark.parametrize("flag", ["2", "yes", "", "true"])
    def test_valid_flag_is_zero_or_one(self, tmp_path, flag):
        with pytest.raises(ParseError, match=r"^line 3: valid flag .* is not 0 or 1"):
            self._read(tmp_path, f"S1,30d,2000,Jan,1,2.0,{flag}")

    def test_foreign_label_names_its_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 3: label 'Dec-Jan' does not belong "
                                             r"to scale 30d"):
            self._read(tmp_path, "S1,30d,2000,Dec-Jan,1,2.0,1")

    def test_errors_escape_the_cli_as_parse_errors(self, tmp_path):
        from diurnal.cli import cli
        path = tmp_path / "p.csv"
        path.write_text(PANEL_HEAD + "S1,30d,2000,Jan,24,1.5,1\n")
        assert cli(["trend", "--panel", str(path), "--out", str(tmp_path / "t.csv")]) != 0

    def test_repeat_of_an_invalid_row_names_the_later_row(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 4: station S1: second row for year "
                                             r"2000, window Feb, hour 0"):
            self._read(tmp_path, "S1,30d,2000,Feb,0,,0", "S1,30d,2000,Feb,0,2.0,1")

    def test_two_invalid_rows_for_one_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(PANEL_HEAD + "S1,30d,2000,Feb,3,,0\nS1,30d,2000,Feb,3,,0\n"
                        "S1,30d,2000,Jan,0,1.5,1\n")
        with pytest.raises(ParseError, match=r"^line 3: station S1: second row for year "
                                             r"2000, window Feb, hour 3"):
            read_panel(path)

    ROWS_10D = ["A,10d,2000,Dec21-31,23,1.0,1", "A,10d,2001,Jan01-10,0,1.0,1",
                "B,10d,2001,Dec21-31,23,1.0,1", "A,10d,2000,Dec21-31,23,2.0,1",
                "B,10d,2003,Jan01-10,0,1.0,1"]

    def test_last_10d_window_repeated(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(PANEL_HEAD + "".join(r + "\n" for r in self.ROWS_10D))
        with pytest.raises(ParseError, match=r"^line 5: station A: second row for year "
                                             r"2000, window Dec21-31, hour 23"):
            read_panel(path)

    def test_stations_of_other_years_without_the_repeat(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = self.ROWS_10D[:3] + self.ROWS_10D[4:]
        path.write_text(PANEL_HEAD + "".join(r + "\n" for r in rows))
        panel = read_panel(path)
        assert panel.means.shape == (2, 3, 36, 24)
        assert (panel.stations, panel.years.tolist()) == (["A", "B"], [2000, 2001, 2003])
        assert np.flatnonzero(panel.counts[0]).tolist() == [35 * 24 + 23, 36 * 24]
        assert np.flatnonzero(panel.counts[1]).tolist() == [36 * 24 + 35 * 24 + 23,
                                                            2 * 36 * 24]

    def test_a_second_scale_names_its_first_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(PANEL_HEAD + "A,10d,2000,Dec21-31,23,1.0,1\nB,30d,2000,Dec,23,,7\n"
                        "B,60da,2000,Jan-Feb,0,1.0,1\n")
        with pytest.raises(ParseError, match=r"^line 3: scale 30d differs from the first "
                                             r"row's scale 10d; a panel file holds one scale$"):
            read_panel(path)
