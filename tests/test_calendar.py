"""The per-day calendar (``day_fields``, ``time_fields``) against ``datetime``,
and the stages that bin slots by it, ``hourly_window_means`` and
``seasonal_split_impute``, against the slot-by-slot loops in ``oracles.py``.

These property tests draw their example count from the loaded hypothesis
profile; CI runs them once more with ``--hypothesis-profile deep``.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from diurnal import (
    PipelineError,
    TemperatureSeries,
    build_calendar,
    day_fields,
    hourly_window_means,
    seasonal_split_impute,
    time_fields,
)
from diurnal.aggregate import SCALES
from helpers import HALF_HOUR, HOUR, profile_settings

SETTINGS = profile_settings(60)

_EPOCH = datetime(1970, 1, 1)
# Seconds from 1970 of the first and last second of years 1-9999.
_FIRST_S = (datetime(1, 1, 1) - _EPOCH) // timedelta(seconds=1)
_LAST_S = (datetime(9999, 12, 31, 23, 59, 59) - _EPOCH) // timedelta(seconds=1)
# datetime64 unit -> microseconds per unit (0 for nanoseconds). ns covers
# the years int64 reaches (1677-2262), from just after the int64 minimum
# (NaT is the minimum itself), where numpy's cast of nanoseconds straight to
# hours overflows.
_UNITS = {"h": 3_600_000_000, "m": 60_000_000, "s": 1_000_000, "ms": 1000, "us": 1, "ns": 0}
_PER_HOUR = {"h": 1, "m": 60, "s": 3600, "ms": 3_600_000, "us": 3_600_000_000,
             "ns": 3_600_000_000_000}


def _bounds(unit: str) -> tuple[int, int]:
    per_us = _UNITS[unit]
    if not per_us:
        return -(2**63) + 1, 2**63 - 1
    return -(-_FIRST_S * 1_000_000 // per_us), _LAST_S * 1_000_000 // per_us


def _datetime(value: int, unit: str) -> datetime:
    """The ``datetime`` of a datetime64 value, cut to whole microseconds."""
    per_us = _UNITS[unit]
    return _EPOCH + timedelta(microseconds=value * per_us if per_us else value // 1000)


@st.composite
def indexes(draw):
    """A datetime64 index of any unit: sparse stamps from years 1-9999 (or
    the ns range), now and then with a stepped run of them (runs of days),
    in sorted, reversed, shuffled or drawn order."""
    unit = draw(st.sampled_from(sorted(_UNITS)))
    lo, hi = _bounds(unit)
    values = draw(st.lists(st.integers(lo, hi), max_size=12))
    if draw(st.booleans()):
        step = draw(st.integers(1, 3 * _PER_HOUR[unit]))
        n = draw(st.integers(0, 120))
        first = draw(st.integers(lo, hi - n * step))
        values += range(first, first + n * step, step)
    order = draw(st.sampled_from(["drawn", "sorted", "reversed", "shuffled"]))
    if order == "sorted":
        values.sort()
    elif order == "reversed":
        values.sort(reverse=True)
    elif order == "shuffled":
        values = draw(st.permutations(values))
    return np.array(values, np.int64).view(f"datetime64[{unit}]"), unit


class TestDayFields:
    @given(drawn=indexes())
    @SETTINGS
    def test_time_fields_match_datetime(self, drawn):
        index, unit = drawn
        stamps = [_datetime(v, unit) for v in index.view(np.int64).tolist()]
        years, months, days, hours = time_fields(index)
        for got in (years, months, days, hours):
            assert got.dtype == np.int64 and got.shape == index.shape
        assert list(zip(years.tolist(), months.tolist(), days.tolist(), hours.tolist())) == [
            (t.year, t.month, t.day, t.hour) for t in stamps]

    @given(drawn=indexes())
    @SETTINGS
    def test_day_table_holds_each_distinct_day_once(self, drawn):
        index, unit = drawn
        (years, months, days), slot_day, hours = day_fields(index)
        table = list(zip(years.tolist(), months.tolist(), days.tolist()))
        dates = [_datetime(v, unit).date() for v in index.view(np.int64).tolist()]
        assert table == sorted({(d.year, d.month, d.day) for d in dates})
        assert [table[d] for d in slot_day.tolist()] == [(d.year, d.month, d.day) for d in dates]
        assert hours.shape == index.shape

    @pytest.mark.parametrize("stamp, fields", [
        ("1969-12-31T23:59:59.999999", (1969, 12, 31, 23)),
        ("1900-02-28T00:00:00.5", (1900, 2, 28, 0)),
        ("0001-01-01T00:00:00", (1, 1, 1, 0)),
        ("2000-02-29T23:30:00", (2000, 2, 29, 23)),
    ])
    def test_pre_1970_leap_day_and_sub_second_stamps(self, stamp, fields):
        index = np.array([stamp], "datetime64[us]")
        assert tuple(int(a[0]) for a in time_fields(index)) == fields

    @pytest.mark.parametrize("value, unit, fields", [
        (int(np.datetime64("1677-09-21T01:12:43.145224190", "ns").astype(np.int64)), "ns",
         (1677, 9, 21, 1)),
        (-(2**63) + 1, "ns", (1677, 9, 21, 0)),
        (-(2**63) + 1, "ps", (1969, 9, 16, 5)),
    ])
    def test_stamps_near_the_int64_minimum(self, value, unit, fields):
        # numpy's cast of these to a coarser unit overflows: cast straight
        # to hours, the first reads 2262-04-11T23.
        index = np.array([value], f"datetime64[{unit}]")
        assert tuple(int(a[0]) for a in time_fields(index)) == fields

    def test_empty_index(self):
        for unit in _UNITS:
            (years, months, days), slot_day, hours = day_fields(np.array([], f"datetime64[{unit}]"))
            assert [len(a) for a in (years, months, days, slot_day, hours)] == [0] * 5
            assert all(len(a) == 0 for a in time_fields(np.array([], f"datetime64[{unit}]")))


# Starts that put the series on 29 February, across a December-January
# turn or mid-day; the rest are drawn anywhere in 1968-2030, to the microsecond.
_STARTS = st.one_of(
    st.sampled_from([datetime(2000, 2, 28, 13), datetime(2004, 2, 29, 0, 30),
                     datetime(1999, 11, 30, 7), datetime(2003, 12, 31, 23),
                     datetime(1969, 12, 15, 12)]),
    st.datetimes(min_value=datetime(1968, 1, 1), max_value=datetime(2030, 12, 31)))


@st.composite
def masked_series(draw, steps=(HOUR,)):
    """A series of up to 500 days, its values seeded normals and its mask
    iid at a drawn rate."""
    step = draw(st.sampled_from(steps))
    n = draw(st.one_of(st.integers(1, 72), st.integers(1, 500 * 24 * HOUR // step)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    missing = rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.3, 0.9]))
    return TemperatureSeries("S1", draw(_STARTS), step, rng.normal(10.0, 8.0, n), missing)


def _outcome(run, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return run(*args, **kwargs)
    except PipelineError as exc:
        return type(exc), str(exc)


class TestHourlyWindowMeansOracle:
    @pytest.mark.parametrize("scale", SCALES)
    @given(series=masked_series(), skip_missing=st.booleans())
    @SETTINGS
    def test_matches_slot_loop(self, scale, series, skip_missing):
        cal = build_calendar(scale)
        got = _outcome(hourly_window_means, series, cal, skip_missing=skip_missing)
        want = _outcome(oracles.hourly_window_means_loop, series, cal, skip_missing)
        if isinstance(want, tuple):
            assert got == want
            return
        assert (got.stations, got.scale, got.years.tolist(), got.labels) == (
            want.stations, want.scale, want.years.tolist(), want.labels)
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.means, want.means)


class TestSeasonalSplitImputeOracle:
    @given(series=masked_series(steps=(HOUR, HALF_HOUR, 3 * HOUR)))
    @SETTINGS
    def test_matches_slot_loop(self, series):
        got = _outcome(seasonal_split_impute, series)
        want = _outcome(oracles.seasonal_split_impute_loop, series)
        if isinstance(want, tuple):
            assert got == want
            return
        assert (got.station_id, got.start, got.step) == (want.station_id, want.start, want.step)
        assert not got.missing.any()
        observed = ~series.missing
        np.testing.assert_array_equal(got.values[observed], series.values[observed])
        # numpy may fuse the interpolation's multiply and add on some CPUs.
        np.testing.assert_allclose(got.values, want.values, rtol=1e-13, atol=1e-12)
