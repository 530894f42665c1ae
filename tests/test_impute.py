"""Within-month pooling and linear gap filling."""

from __future__ import annotations

import calendar
import importlib
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diurnal import EmptyInputError, ImputationError, impute, seasonal_split_impute
from diurnal.ingest import time_fields
from helpers import make_series


def test_month_names_do_not_follow_the_locale(monkeypatch):
    # calendar.month_abbr holds the current LC_TIME locale's names; the
    # window labels, cluster file names and radar months stay English.
    localized = ["", "janv.", "févr.", "mars", "avr.", "mai", "juin", "juil.", "août",
                 "sept.", "oct.", "nov.", "déc."]
    with monkeypatch.context() as patch:
        patch.setattr(calendar, "month_abbr", localized)
        months = importlib.reload(impute).MONTH_ABBR
    importlib.reload(impute)
    assert months == ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def test_observed_values_pass_through_bitwise():
    rng = np.random.default_rng(11)
    vals = rng.normal(0.0, 10.0, 24 * 40)
    miss = rng.random(vals.size) < 0.3
    s = make_series(vals, miss)
    filled = seasonal_split_impute(s)
    keep = ~miss
    assert filled.values[keep].tolist() == vals[keep].tolist()
    assert not filled.missing.any()


def test_linear_fill_inside_month():
    vals = [0.0, np.nan, np.nan, np.nan, 4.0, 5.0]
    miss = [False, True, True, True, False, False]
    filled = seasonal_split_impute(make_series(vals, miss))
    assert filled.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_edge_gaps_take_nearest_observed():
    vals = [np.nan, np.nan, 7.0, 9.0, np.nan]
    miss = [True, True, False, False, True]
    filled = seasonal_split_impute(make_series(vals, miss))
    assert filled.values.tolist() == [7.0, 7.0, 7.0, 9.0, 9.0]


def test_gap_bridged_within_month_pool_across_years():
    # Hourly series from Jan 1 2000 to Jan 2 2001. The last January-2000 slot
    # is masked; its pool neighbours are the slot before it and the first
    # January-2001 slot, eleven months later in wall time.
    start = datetime(2000, 1, 1)
    end = datetime(2001, 1, 3)
    n = int((end - start).total_seconds()) // 3600
    vals = np.zeros(n)
    idx = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s")
    years, months, _, _ = time_fields(idx)
    jan2000 = np.nonzero((years == 2000) & (months == 1))[0]
    jan2001 = np.nonzero((years == 2001) & (months == 1))[0]
    vals[jan2000[-2]] = 10.0
    vals[jan2001[0]] = 20.0
    miss = np.zeros(n, dtype=bool)
    miss[jan2000[-1]] = True
    filled = seasonal_split_impute(make_series(vals, miss, start=start))
    assert filled.values[jan2000[-1]] == 15.0


def test_all_missing_month_pool_is_an_error():
    # One hourly year; every June slot masked.
    start = datetime(2001, 1, 1)
    n = 365 * 24
    idx = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s")
    _, months, _, _ = time_fields(idx)
    miss = months == 6
    with pytest.raises(ImputationError, match="Jun"):
        seasonal_split_impute(make_series(np.ones(n), miss, start=start))


def test_empty_series_rejected():
    with pytest.raises(EmptyInputError):
        seasonal_split_impute(make_series([]))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_filled_values_bounded_by_month_pool(data):
    n = 24 * 90
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    vals = rng.normal(0.0, 5.0, n)
    miss = rng.random(n) < data.draw(st.floats(0.0, 0.6))
    s = make_series(vals, miss, start=datetime(2003, 1, 1))
    months = time_fields(s.index64())[1]
    pools = [np.flatnonzero(months == m) for m in np.unique(months)]
    for idx in pools:
        if not (~miss[idx]).any():
            return  # the error path is covered elsewhere
    filled = seasonal_split_impute(s)
    assert not filled.missing.any()
    assert np.isfinite(filled.values).all()
    for idx in pools:
        observed = vals[idx][~miss[idx]]
        assert filled.values[idx].min() >= observed.min() - 1e-9
        assert filled.values[idx].max() <= observed.max() + 1e-9
