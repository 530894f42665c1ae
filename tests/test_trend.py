"""Mann-Kendall, Sen's slope and serial-correlation screening."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, astuple
from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from diurnal import (
    ContractError,
    DegenerateDataError,
    EmptyInputError,
    NetworkPanel,
    ParseError,
    SCALES,
    PipelineError,
    SampleTooSmallError,
    TrendTable,
    build_calendar,
    contour_grid,
    hourly_window_means,
    lag1_autocorrelation,
    mk_test,
    read_panel,
    sen_slope,
    serial_flag,
    stack_panels,
    synth_station,
    trend_surface,
    window_profiles,
    write_panel,
)
from diurnal import trend
from diurnal.trend import read_trend_csv, write_trend_csv
from helpers import grid_panel, profile_settings

finite_values = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


class TestMannKendall:
    def test_worked_example(self):
        r = mk_test([3.0, 1.0, 2.0, 5.0, 4.0])
        assert r.s == 4
        assert r.var_s == pytest.approx(300.0 / 18.0, abs=1e-12)
        assert r.z == pytest.approx(3.0 / np.sqrt(300.0 / 18.0), abs=1e-12)
        assert r.p_value == pytest.approx(0.462433, abs=1e-6)

    def test_monotone_sequences(self):
        up = mk_test(list(range(10)))
        assert up.s == 45
        down = mk_test(list(range(10, 0, -1)))
        assert down.s == -45

    def test_tie_correction(self):
        x = [1.0, 2.0, 2.0, 3.0]
        r = mk_test(x)
        assert r.s == oracles.mk_s_enumerated(x)
        assert r.var_s == pytest.approx(oracles.mk_var_enumerated(x), abs=1e-12)

    def test_all_tied_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="tied"):
            mk_test([2.0, 2.0, 2.0, 2.0])

    def test_too_short(self):
        with pytest.raises(SampleTooSmallError):
            mk_test([1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            mk_test([1.0, np.nan, 3.0])

    def test_zero_s_gives_zero_z(self):
        r = mk_test([1.0, 3.0, 1.0])
        assert r.s == 0 and r.z == 0.0 and r.p_value == 1.0

    @given(st.lists(st.integers(-5, 5), min_size=4, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracles_with_ties(self, xs):
        x = [float(v) for v in xs]
        try:
            r = mk_test(x)
        except DegenerateDataError:
            assert len(set(x)) == 1
            return
        assert r.s == oracles.mk_s_enumerated(x)
        assert r.var_s == pytest.approx(oracles.mk_var_enumerated(x), abs=1e-12)
        z, p = oracles.mk_p_normal(x)
        assert r.z == pytest.approx(z, abs=1e-12)
        assert r.p_value == pytest.approx(p, abs=1e-12)

    @given(st.lists(finite_values, min_size=4, max_size=10, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_antisymmetry_under_reversal(self, x):
        fwd = mk_test(x)
        rev = mk_test(x[::-1])
        assert fwd.s == -rev.s
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)


class TestSenSlope:
    def test_worked_example(self):
        r = sen_slope([1.0, 4.0, 2.0, 8.0], [1.0, 2.0, 3.0, 4.0])
        assert r.slope == oracles.sen_slope_median([1.0, 4.0, 2.0, 8.0],
                                                   [1.0, 2.0, 3.0, 4.0])
        assert r.slope == pytest.approx(13.0 / 6.0, abs=1e-12)

    def test_exact_linear_data(self):
        t = np.arange(8, dtype=float)
        r = sen_slope(2.5 * t + 1.0, t)
        assert r.slope == 2.5

    def test_default_time_axis(self):
        assert sen_slope([0.0, 1.0, 2.0]).slope == 1.0

    def test_tied_times_skipped(self):
        r = sen_slope([0.0, 5.0, 1.0], [0.0, 0.0, 1.0])
        # only the (0,2) and (1,2) pairs have distinct times
        assert r.slope == pytest.approx((1.0 + -4.0) / 2.0)

    def test_all_times_tied_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            sen_slope([1.0, 2.0], [3.0, 3.0])

    def test_too_short(self):
        with pytest.raises(SampleTooSmallError):
            sen_slope([1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ContractError):
            sen_slope([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(st.lists(finite_values, min_size=2, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_median_oracle_bitwise(self, x):
        r = sen_slope(x)
        assert r.slope == oracles.sen_slope_median(x)

    @given(st.lists(finite_values, min_size=3, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_theilslopes(self, x):
        r = sen_slope(x)
        expected = stats.theilslopes(x, np.arange(len(x)))[0]
        assert r.slope == pytest.approx(expected, abs=1e-12)

    @given(st.lists(finite_values, min_size=3, max_size=8),
           st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_adding_linear_ramp_shifts_slope(self, x, c):
        t = np.arange(len(x), dtype=float)
        base = sen_slope(x, t).slope
        ramped = sen_slope(np.asarray(x) + c * t, t).slope
        assert ramped == pytest.approx(base + c, abs=1e-9)


class TestLag1:
    def test_worked_examples(self):
        assert lag1_autocorrelation(np.arange(1.0, 9.0)) == pytest.approx(0.625, abs=1e-12)
        alternating = np.array([1.0, -1.0] * 10)
        assert lag1_autocorrelation(alternating) == pytest.approx(-0.95, abs=1e-12)

    @given(st.lists(finite_values, min_size=2, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, x):
        try:
            r1 = lag1_autocorrelation(x)
        except DegenerateDataError:
            # raised exactly when the centered sum of squares is zero in
            # float64 (constant input, or deviations that underflow)
            d = np.asarray(x) - np.mean(x)
            assert float(np.dot(d, d)) == 0.0
            return
        assert r1 == pytest.approx(oracles.lag1_loop(x), abs=1e-9)

    def test_constant_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            lag1_autocorrelation([4.0, 4.0, 4.0])

    def test_serial_flag_threshold(self):
        # n=8: bound is 1.96/sqrt(8) = 0.69296...
        assert serial_flag(0.694, 8)
        assert not serial_flag(0.625, 8)
        assert serial_flag(-0.95, 20)
        assert not serial_flag(0.43, 20)  # bound 0.4382


@pytest.fixture(scope="module")
def warming_panel():
    s = synth_station("S1", datetime(2000, 1, 1), n_years=12, base=8.0,
                      diurnal_amplitude=5.0, trend_per_year=0.3,
                      noise_sd=0.2, seed=21)
    return hourly_window_means(s, build_calendar("30d"))


class TestTrendSurface:
    def test_strong_trend_detected_everywhere(self, warming_panel):
        cells = trend_surface(warming_panel)
        assert len(cells) == 12 * 24
        for c in cells:
            assert c.n == 12
            assert c.p_value < 0.05
            assert c.sen_slope == pytest.approx(0.3, abs=0.05)

    def test_degenerate_cells_left_out(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=4, base=1.0,
                          diurnal_amplitude=0.0)
        panel = hourly_window_means(s, build_calendar("30d"))
        assert len(trend_surface(panel)) == 0  # every cell is constant across years

    def test_min_years_respected(self, warming_panel):
        assert len(trend_surface(warming_panel, min_years=13)) == 0
        with pytest.raises(ContractError):
            trend_surface(warming_panel, min_years=2)

    def test_serial_flag_matches_cell_lag1(self, warming_panel):
        for c in list(trend_surface(warming_panel))[:48]:
            assert c.serial_flag == (abs(c.lag1) > 1.96 / np.sqrt(c.n))

    def test_csv_round_trip(self, warming_panel, tmp_path):
        cells = trend_surface(warming_panel)
        path = tmp_path / "trend.csv"
        write_trend_csv(path, cells)
        back = read_trend_csv(path)
        assert len(back) == len(cells)
        key = lambda c: (c.station_id, c.window_label, c.hour)
        assert sorted(back, key=key) == sorted(cells, key=key)

    def test_csv_write_deterministic(self, warming_panel, tmp_path):
        cells = trend_surface(warming_panel)
        write_trend_csv(tmp_path / "a.csv", cells)
        write_trend_csv(tmp_path / "b.csv", cells.take(np.arange(len(cells))[::-1]))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_no_kept_cell_gives_an_empty_table_the_writer_refuses(self, warming_panel,
                                                                  tmp_path):
        # The library's rule, not the CLI's: trend_surface returns the empty
        # table, and the writer raises before it opens a file that
        # read_trend_csv would reject.
        table = trend_surface(warming_panel, min_years=13)
        assert isinstance(table, TrendTable) and len(table) == 0
        path = tmp_path / "trend.csv"
        with pytest.raises(EmptyInputError) as exc:
            write_trend_csv(path, table)
        assert str(exc.value) == "no cell had enough usable years for a trend test"
        assert not path.exists()


TREND_CSV_HEADER = "station_id,scale,window_label,hour,n,S,var_S,z,p_value,sen_slope,lag1,serial_flag"


class TestOneScale:
    """A scale is the one source of the windows of a panel and of a trend
    table: a panel takes no labels of its own, and a trend table or file
    holds one scale, as a panel file does."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_every_scale_passes_every_stage(self, tmp_path, scale):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=4, trend_per_year=0.3, seed=4)
        panel = hourly_window_means(s, build_calendar(scale))
        assert (panel.calendar.scale, panel.labels) == (scale, build_calendar(scale).labels)
        write_panel(tmp_path / "panel.csv", [panel])
        back = read_panel(tmp_path / "panel.csv")
        assert (back.scale, back.labels) == (scale, panel.labels)
        assert np.array_equal(back.means, panel.means, equal_nan=True)
        table = trend_surface(back)
        assert len(table) and set(table.scale) == {scale}
        write_trend_csv(tmp_path / "trend.csv", table)
        read = read_trend_csv(tmp_path / "trend.csv")
        assert read == table
        grid = contour_grid(read)
        window = [panel.labels.index(label) for label in grid.window_label]
        assert sorted(zip(window, grid.hour.tolist())) == list(zip(window, grid.hour.tolist()))
        assert len(grid) == len(table)

    def test_unknown_scale_is_refused_at_construction(self):
        shape = (1, 1, 7, 24)
        with pytest.raises(ContractError) as exc:
            NetworkPanel("7d", ["S1"], [2000], np.zeros(shape), np.ones(shape, np.int64))
        assert str(exc.value) == f"unknown scale '7d', expected one of {SCALES}"

    def test_a_panel_takes_no_labels_and_cannot_change_its_calendar(self, warming_panel):
        p = warming_panel
        with pytest.raises(TypeError):
            NetworkPanel(p.scale, p.stations, p.years, list(p.labels), p.means, p.counts)
        assert p.labels is p.calendar.labels and isinstance(p.labels, tuple)
        with pytest.raises(FrozenInstanceError):
            p.calendar.labels = ("M1",) * 12
        with pytest.raises(ValueError, match="read-only"):
            p.calendar._month_window[0] = 5
        assert p.labels == build_calendar("30d").labels

    @pytest.mark.parametrize("second,message", [
        (("S0", "10d", "Jan01-10"),
         "scale 10d differs from the first row's scale 30d; a trend table holds one scale"),
        (("S0", "7d", "Jan"), "unknown scale '7d'"),
    ], ids=["other-scale", "unknown-scale"])
    def test_a_table_of_two_scales_is_refused(self, tmp_path, second, message):
        stats = (0, 5, 3, 8.5, 0.7, 0.49, 0.1, 0.2, False)
        table = TrendTable(*zip(("S1", "30d", "Jan", *stats), (*second, *stats)))
        path = tmp_path / "trend.csv"
        for stage in (lambda: write_trend_csv(path, table), lambda: contour_grid(table)):
            with pytest.raises(ContractError) as exc:
                stage()
            assert str(exc.value) == message
        assert not path.exists()


class TestTrendCsvReader:
    @pytest.mark.parametrize("row,message", [
        ("S1,30d,Smarch,0,5,3,8.5,0.7,0.49,0.1,0.2,0",
         "line 3: label 'Smarch' does not belong to scale 30d"),
        ("S1,30d,Jan-Feb,0,5,3,8.5,0.7,0.49,0.1,0.2,0",
         "line 3: label 'Jan-Feb' does not belong to scale 30d"),
        ("S1,10d,Jan01-10,0,5,3,8.5,0.7,0.49,0.1,0.2,0",
         "line 3: scale 10d differs from the first row's scale 30d; a trend file holds one scale"),
        ("S1,30d,Feb,99,5,3,8.5,0.7,0.49,0.1,0.2,0", "line 3: hour 99 out of range 0-23"),
        ("S1,30d,Feb,-1,5,3,8.5,0.7,0.49,0.1,0.2,0", "line 3: hour -1 out of range 0-23"),
    ], ids=["foreign-label", "label-of-other-scale", "scale-other-than-the-first-row",
            "hour-99", "hour-negative"])
    def test_row_outside_its_calendar_is_a_parse_error(self, tmp_path, row, message):
        path = tmp_path / "trend.csv"
        path.write_text(f"{TREND_CSV_HEADER}\nS1,30d,Jan,23,5,3,8.5,0.7,0.49,0.1,0.2,0\n"
                        f"{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_trend_csv(path)
        assert str(exc.value) == message
        assert exc.value.line_no == 3


    def test_repeated_cell_is_rejected_at_its_second_row(self, tmp_path):
        path = tmp_path / "trend.csv"
        path.write_text(f"{TREND_CSV_HEADER}\nS1,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,0\n"
                        "S1,30d,Feb,0,5,3,8.5,0.7,0.49,0.1,0.2,0\n"
                        "S2,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,0\n"
                        " S1 ,30d,Jan, 0 ,5,-3,8.5,-0.7,0.49,-0.4,0.2,0\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_trend_csv(path)
        assert str(exc.value) == (
            "line 5: station S1: second row for scale 30d, window Jan, hour 0")
        assert exc.value.line_no == 5


def _bits(cells):
    """Every field of every cell (a table's rows, or tuples), floats by repr
    so that -0.0 and 0.0 differ."""
    return [repr(tuple(c)) for c in cells]


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the pipeline error it raises."""
    try:
        return fn(*args)
    except PipelineError as exc:
        return type(exc), str(exc)


class TestKernelsMatchFormerScalarCode:
    """The row kernels, one row at a time, give the former functions' bits."""

    @given(st.lists(st.integers(-3, 3), min_size=3, max_size=12), st.sampled_from([0.1, 1.7]))
    @profile_settings(100)
    def test_mk_test(self, xs, step):
        x = [v * step for v in xs]
        got = _outcome(lambda: astuple(mk_test(x)))
        assert repr(got) == repr(_outcome(oracles.mk_test_cell, x))

    @given(st.lists(st.tuples(finite_values, st.integers(0, 4)), min_size=2, max_size=12),
           st.booleans())
    @profile_settings(100)
    def test_sen_slope(self, points, repeated):
        # Distinct years, or times drawn from five values, so that some
        # pairs share a time and drop out of the slopes.
        x = [v for v, _ in points]
        t = [2000 + k for _, k in points] if repeated else np.arange(len(x)) + 2000
        assume(len(set(t)) >= 2)
        assert repr(sen_slope(x, t).slope) == repr(oracles.sen_slope_cell(x, t))

    @given(st.lists(finite_values, min_size=2, max_size=20))
    @profile_settings(100)
    def test_lag1(self, x):
        got = _outcome(lag1_autocorrelation, x)
        assert repr(got) == repr(_outcome(oracles.lag1_cell, x))


class TestBatchedSurface:
    """``trend_surface`` and one window's ``window_profiles`` against the
    former per-cell loops: every field and value bitwise, and the same first
    error."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.integers(1, 5),
           st.sampled_from([0.1, 0.25, 1.7]), st.floats(0.3, 1.0), st.integers(3, 6))
    @profile_settings(60)
    def test_surface_matches_per_cell_loop(self, seed, n_years, levels, step, rate, min_years):
        panel = grid_panel(np.random.default_rng(seed), n_years=n_years, levels=levels,
                           step=step, valid_rate=rate)
        assert _bits(trend_surface(panel, min_years)) == _bits(
            oracles.trend_surface_cells(panel, min_years))

    def test_three_years_every_cell(self):
        panel = grid_panel(np.random.default_rng(1), n_years=3, levels=4, valid_rate=1.0)
        cells = trend_surface(panel)
        assert {c.n for c in cells} == {3}
        assert _bits(cells) == _bits(oracles.trend_surface_cells(panel))

    def test_all_tied_cells_dropped(self):
        panel = grid_panel(np.random.default_rng(2), n_years=5, levels=6, valid_rate=1.0)
        panel.means[0, :, 1, :12] = 4.5
        cells = trend_surface(panel)
        assert len(cells) == 6 * 24 - 12
        assert not any(c.window_label == panel.labels[1] and c.hour < 12 for c in cells)
        assert _bits(cells) == _bits(oracles.trend_surface_cells(panel))

    @pytest.mark.parametrize("min_years", [4, 5, 6, 7])
    def test_min_years_above_three(self, min_years):
        panel = grid_panel(np.random.default_rng(3), n_years=6, levels=5, valid_rate=0.85)
        cells = trend_surface(panel, min_years)
        assert all(c.n >= min_years for c in cells)
        assert _bits(cells) == _bits(oracles.trend_surface_cells(panel, min_years))

    @pytest.mark.parametrize("nan_cell,flat_cell,error", [
        ((2, 0), (1, 5), DegenerateDataError),
        ((1, 5), (2, 0), ContractError),
    ])
    def test_first_bad_cell_raises_as_before(self, nan_cell, flat_cell, error):
        # One cell holds a NaN in a valid year, another one yearly means
        # whose centered sum of squares underflows to zero. Whichever comes
        # first in (window, hour) order names the error.
        panel = grid_panel(np.random.default_rng(4), n_years=3, levels=4, valid_rate=1.0)
        panel.means[0, 1][nan_cell] = np.nan
        panel.means[(0, slice(None), *flat_cell)] = [0.0, 1e-170, 0.0]
        got = _outcome(trend_surface, panel)
        assert got == _outcome(oracles.trend_surface_cells, panel)
        assert got[0] is error

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(3, 8), min_size=1, max_size=4),
           st.integers(1, 5), st.sampled_from([0.6, 0.9, 1.0]), st.integers(3, 5),
           st.sampled_from([None, "nan", "flat"]))
    @profile_settings(40)
    def test_network_surface_matches_per_station_loop(self, seed, n_years, levels, rate,
                                                      min_years, bad):
        # Stations with their own years on one union axis: the network
        # surface is the per-station loop's rows, station after station,
        # and raises the error of the first bad cell in (station, window,
        # hour) order.
        rng = np.random.default_rng(seed)
        singles = [grid_panel(rng, f"S{k}", n_years=n, levels=levels, valid_rate=rate)
                   for k, n in enumerate(n_years)]
        if bad is not None:
            # One station's cell valid in every year, with a NaN, or else
            # with yearly means whose centered sum of squares underflows.
            p = singles[rng.integers(len(singles))]
            cell = (0, slice(None), rng.integers(6), rng.integers(24))
            p.counts[cell] = 1
            p.means[cell] = rng.integers(levels, size=len(p.years)) * 0.25 if bad == "nan" else 0
            p.means[cell][rng.integers(len(p.years))] = np.nan if bad == "nan" else 1e-170
        got = _outcome(lambda: _bits(trend_surface(stack_panels(singles), min_years)))
        want = _outcome(lambda: _bits(
            [row for p in singles for row in oracles.trend_surface_cells(p, min_years)]))
        assert got == want

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 5),
           st.floats(0.6, 1.0), st.sampled_from(["slope", "level"]))
    @profile_settings(40)
    def test_profiles_match_per_cell_loop(self, seed, n_years, levels, rate, kind):
        rng = np.random.default_rng(seed)
        singles = [grid_panel(rng, sid, n_years=n_years, levels=levels, step=0.1,
                              valid_rate=rate) for sid in ("S3", "S1", "S2")]
        panel = stack_panels(singles)
        for label in panel.labels:
            got = _outcome(lambda: window_profiles(panel, [label], kind)[0])
            want = _outcome(_per_station_profiles, singles, label, kind)
            if isinstance(want, dict):
                assert list(got) == list(want)
                got = {sid: v.tolist() for sid, v in got.items()}
                want = {sid: v.tolist() for sid, v in want.items()}
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("kind", ["slopes", "Level", ""])
    def test_unknown_profile_kind_is_rejected(self, kind):
        panel = grid_panel(np.random.default_rng(6), n_years=4, valid_rate=1.0)
        with pytest.raises(ContractError, match=rf"unknown profile kind {kind!r}, "
                                                r"expected 'slope' or 'level'"):
            window_profiles(panel, panel.labels[:1], kind)

    def test_profile_of_non_finite_cell_raises_as_before(self):
        panel = grid_panel(np.random.default_rng(5), n_years=4, valid_rate=1.0)
        panel.means[0, 2, 0, 9] = np.inf
        got = _outcome(lambda: window_profiles(panel, panel.labels[:1], "slope")[0])
        assert got == _outcome(oracles.hour_profile_cells, panel, panel.labels[0], "slope")
        assert got == (ContractError, f"station S1, window {panel.labels[0]}, hour 9: "
                                      "Sen's slope input must be finite")


def _per_station_profiles(singles, label, kind):
    """The per-cell loop's profiles of one window, one-station panel by
    panel in station order, up to the first error."""
    return {sid: v for p in sorted(singles, key=lambda p: p.stations)
            for sid, v in oracles.hour_profile_cells(p, label, kind).items()}


def _window_outcomes(panel, labels, kind):
    """What ``window_profiles`` returns, each window's profiles as lists,
    or the type and message of the error it raises."""
    return _outcome(lambda: [{sid: v.tolist() for sid, v in profiles.items()}
                             for profiles in window_profiles(panel, labels, kind)])


def _window_oracle(singles, labels, kind):
    """The per-cell loop window by window: every window's profiles, or the
    first error."""
    return _outcome(lambda: [{sid: v.tolist() for sid, v in _per_station_profiles(
        singles, label, kind).items()} for label in labels])


class TestWindowProfiles:
    """``window_profiles`` of a network panel whose stations have their own
    years, one pass over every window, against the per-cell loop window by
    window on each station's own panel: a list of bitwise profiles, or the
    first failing window's error and nothing before it."""

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(2, 8), min_size=1, max_size=4),
           st.integers(1, 5), st.sampled_from([0.6, 0.9, 0.97, 1.0]),
           st.sampled_from(["slope", "level"]), st.booleans())
    @profile_settings(40)
    def test_matches_per_cell_loop(self, seed, n_years, levels, rate, kind, non_finite):
        rng = np.random.default_rng(seed)
        # Each station has its own years (grid_panel draws them) and count.
        singles = [grid_panel(rng, f"S{k}", n_years=n, levels=levels, step=0.1,
                              valid_rate=rate) for k, n in enumerate(n_years)]
        if non_finite:
            means = singles[rng.integers(len(singles))].means
            means[tuple(rng.integers(means.shape))] = np.inf
        panel = stack_panels(singles)
        labels = list(rng.permutation(panel.labels)[:rng.integers(1, 7)])
        got = _window_outcomes(panel, labels, kind)
        assert repr(got) == repr(_window_oracle(singles, labels, kind))
        ones = [_outcome(lambda: window_profiles(panel, [label], kind)[0]) for label in labels]
        failed = [one for one in ones if not isinstance(one, dict)]
        assert repr(got) == repr(failed[0] if failed else [
            {sid: v.tolist() for sid, v in one.items()} for one in ones])

    def test_first_failing_window_is_named_not_the_first_station(self):
        # S1 is short of years in the second window, S2 in the first.
        rng = np.random.default_rng(9)
        s1, s2 = (grid_panel(rng, sid, n_years=3, valid_rate=1.0) for sid in ("S1", "S2"))
        s1.counts[0, 1:, 1, 4] = 0
        s2.counts[0, 1:, 0, 7] = 0
        panel = stack_panels([s1, s2])
        labels = panel.labels
        got = _window_outcomes(panel, labels, "slope")
        assert got == (ContractError, f"station S2, window {labels[0]}, hour 7: "
                                      "need at least 2 valid years for slope features, have 1")
        got = _window_outcomes(panel, labels[1:], "slope")
        assert got == (ContractError, f"station S1, window {labels[1]}, hour 4: "
                                      "need at least 2 valid years for slope features, have 1")

    @pytest.mark.parametrize("batch", [1, 50, 1000])
    def test_batches_do_not_change_results(self, monkeypatch, batch):
        rng = np.random.default_rng(12)
        singles = [grid_panel(rng, sid, n_years=n, levels=4, valid_rate=0.97)
                   for sid, n in (("S1", 6), ("S2", 8), ("S3", 7))]
        panel = stack_panels(singles)
        labels = panel.labels
        want = [_bits(trend_surface(panel))]
        want += [_window_outcomes(panel, labels, kind) for kind in ("slope", "level")]
        assert want[0] == _bits([row for p in singles for row in oracles.trend_surface_cells(p)])
        monkeypatch.setattr(trend, "BATCH_PAIRS", batch)
        got = [_bits(trend_surface(panel))]
        got += [_window_outcomes(panel, labels, kind) for kind in ("slope", "level")]
        assert repr(got) == repr(want)

    def test_no_stations(self):
        # A label outside the scale raises, with or without stations.
        shape = (0, 0, 12, 24)
        panel = NetworkPanel("30d", [], [], np.empty(shape), np.empty(shape, np.int64))
        assert _window_outcomes(panel, ["Jan", "Feb"], "slope") == [{}, {}]
        assert _window_outcomes(panel, ["Jan", "Feb", "Jan01-10"], "slope") == (
            ContractError, "unknown window label 'Jan01-10' for scale 30d")

    def test_returns_a_list(self):
        panel = grid_panel(np.random.default_rng(13), n_years=3, valid_rate=1.0)
        got = window_profiles(panel, panel.labels[:2], "level")
        assert isinstance(got, list)
        assert [list(profiles) for profiles in got] == [["S1"], ["S1"]]

    def test_slope_profiles_compute_no_mann_kendall(self, monkeypatch):
        # The profile pass forms Sen's slopes only: a Mann-Kendall statistic
        # (its tie count and a p-value per cell) would double its time.
        rng = np.random.default_rng(14)
        singles = [grid_panel(rng, sid, n_years=n, levels=4, step=0.1, valid_rate=0.9)
                   for sid, n in (("S1", 6), ("S2", 8))]
        panel = stack_panels(singles)
        want = _window_oracle(singles, panel.labels, "slope")
        assert isinstance(want, list)

        def no_mann_kendall(*args):
            raise AssertionError("a slope profile computed a Mann-Kendall statistic")

        monkeypatch.setattr(trend, "_mk_rows", no_mann_kendall)
        with pytest.raises(AssertionError):
            trend_surface(panel)
        assert repr(_window_outcomes(panel, panel.labels, "slope")) == repr(want)


# Finite yearly means whose pair differences and centered sums overflow.
HUGE = [1e308, -1e308, 1.5e308, -1.7e308]
SEN_OVERFLOW = (ContractError, "Sen's slope overflows: a pair slope or their median is not finite")
LAG1_OVERFLOW = (ContractError, "lag-1 autocorrelation overflows: centered sums are not finite")


class TestOverflow:
    """Finite means whose pair slopes, centered sums or mean overflow raise
    ``ContractError`` (pyproject turns a numpy ``RuntimeWarning`` into an
    error, so none may escape), and a trend surface or profile pass raises
    it for the first such cell, in the order of its other bad cells."""

    def test_mann_kendall_counts_overflowing_differences_by_sign(self):
        got = mk_test(HUGE)
        assert (got.s, got.var_s) == (oracles.mk_s_enumerated(HUGE),
                                      oracles.mk_var_enumerated(HUGE))

    @pytest.mark.parametrize("x,t", [
        (HUGE, None),
        # Every pair slope is finite, but the middle two sum past the largest double.
        ([0.0, 1.7e308, 1.6e308], [0.0, 1.0, 1.0]),
        # A finite difference over a small time step.
        ([0.0, 1e300], [0.0, 1e-10]),
    ])
    def test_sen_slope(self, x, t):
        assert _outcome(sen_slope, x, t) == SEN_OVERFLOW

    @pytest.mark.parametrize("x", [
        HUGE, [v / 1e148 for v in HUGE],
        # The sum of squares overflows but the lag-1 sum does not: their
        # ratio would read -0.0.
        [0.0, 1.5e154] + [0.0] * 18,
    ])
    def test_lag1(self, x):
        assert _outcome(lag1_autocorrelation, x) == LAG1_OVERFLOW

    @pytest.mark.parametrize("first,second", [
        ("huge", "nan"), ("nan", "huge"), ("large", "flat"), ("flat", "large")])
    def test_surface_raises_for_the_first_bad_cell(self, first, second):
        # S1 holds the first cell, S2 the second one at an earlier window
        # and hour: S1 comes first in station order. The means at 1e160
        # overflow the centered sums only.
        cells = {"huge": HUGE, "large": [v / 1e148 for v in HUGE],
                 "nan": [1.0, np.nan, 2.0, 3.0], "flat": [0.0, 1e-170, 0.0, 0.0]}
        errors = {"huge": LAG1_OVERFLOW, "large": LAG1_OVERFLOW,
                  "nan": (ContractError, "Mann-Kendall input must be finite"),
                  "flat": (DegenerateDataError, "centered sum of squares is zero, "
                                                "lag-1 autocorrelation is undefined")}
        rng = np.random.default_rng(15)
        s1, s2 = (grid_panel(rng, sid, n_years=4, levels=4, valid_rate=1.0)
                  for sid in ("S1", "S2"))
        s1.means[0, :, 4, 20] = cells[first]
        s2.means[0, :, 1, 3] = cells[second]
        kind, message = errors[first]
        assert _outcome(trend_surface, stack_panels([s1, s2])) == (
            kind, f"station S1, window Sep-Oct, hour 20: {message}")
        kind, message = errors[second]
        assert _outcome(trend_surface, s2) == (
            kind, f"station S2, window Mar-Apr, hour 3: {message}")

    @pytest.mark.parametrize("hour3,hour9,error", [
        ("huge", None, SEN_OVERFLOW),
        ("huge", "short", SEN_OVERFLOW),
        ("short", "huge", (ContractError, "need at least 2 valid years for slope features, "
                                          "have 1")),
        ("inf", "huge", (ContractError, "Sen's slope input must be finite")),
        ("huge", "inf", SEN_OVERFLOW),
    ])
    def test_profiles_raise_the_first_failing_window_error(self, hour3, hour9, error):
        rng = np.random.default_rng(17)
        s1, s2 = (grid_panel(rng, sid, n_years=4, valid_rate=1.0) for sid in ("S1", "S2"))
        for hour, cell in ((3, hour3), (9, hour9)):
            if cell == "huge":
                s1.means[0, :, 2, hour] = HUGE
            elif cell == "inf":
                s1.means[0, 1, 2, hour] = np.inf
            elif cell == "short":
                s1.counts[0, 1:, 2, hour] = 0
        panel = stack_panels([s1, s2])
        labels = panel.labels
        # Window 2 fails at hour 3, and nothing of windows 0 and 1 is returned.
        assert _window_outcomes(panel, labels, "slope") == (
            error[0], f"station S1, window {labels[2]}, hour 3: {error[1]}")
        assert _window_outcomes(panel, labels[:2], "slope") == _window_oracle(
            [s1, s2], labels[:2], "slope")
        # Level profiles, the means of the same cells, do not overflow; an
        # infinite year makes its cell's mean infinite, which is an error.
        got = _window_outcomes(panel, labels, "level")
        assert repr(got) == repr(_window_oracle([s1, s2], labels, "level"))
        assert isinstance(got, list) == ("inf" not in (hour3, hour9))

    @pytest.mark.parametrize("cell", [[1.7e308] * 3, [1.0, np.inf, 2.0], [np.inf, -np.inf, 0.0]],
                             ids=["overflow", "inf", "inf-minus-inf"])
    def test_level_profiles_reject_a_mean_that_is_not_finite(self, cell):
        # Three finite years at 1.7e308 sum past the largest double: the
        # level once came out inf, with a numpy warning as the only sign.
        rng = np.random.default_rng(18)
        s1, s2 = (grid_panel(rng, sid, n_years=3, valid_rate=1.0) for sid in ("S1", "S2"))
        s2.means[0, :, 3, 5] = cell
        panel = stack_panels([s1, s2])
        error = (ContractError, f"station S2, window {panel.labels[3]}, hour 5: "
                                "mean of the valid years is not finite")
        assert _outcome(lambda: window_profiles(panel, [panel.labels[3]], "level")[0]) == error
        assert _window_outcomes(panel, panel.labels, "level") == error
        assert _window_oracle([s1, s2], panel.labels, "level") == error
