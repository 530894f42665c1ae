"""Shared construction helpers for the test suite."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
from hypothesis import HealthCheck, settings

from diurnal import TemperatureSeries, WindowHourPanel, build_calendar

HOUR = timedelta(hours=1)
HALF_HOUR = timedelta(minutes=30)


def make_series(values, missing=None, start=datetime(2000, 1, 1), step=HOUR,
                sid="T01") -> TemperatureSeries:
    vals = np.asarray(values, dtype=float)
    if missing is None:
        miss = np.zeros(vals.size, dtype=bool)
    else:
        miss = np.asarray(missing, dtype=bool)
    return TemperatureSeries(sid, start, step, vals, miss)


def hourly_year_series(year: int, value_fn, sid="T01") -> TemperatureSeries:
    """One-year hourly series with values from value_fn(slot_datetime)."""
    start = datetime(year, 1, 1)
    end = datetime(year + 1, 1, 1)
    n = int((end - start).total_seconds()) // 3600
    vals = np.array([value_fn(start + k * HOUR) for k in range(n)], dtype=float)
    return TemperatureSeries(sid, start, HOUR, vals, np.zeros(n, dtype=bool))


def grid_panel(rng, sid="S1", scale="60da", n_years=6, levels=3, step=0.25,
               valid_rate=0.8) -> WindowHourPanel:
    """A panel whose valid means take one of ``levels`` grid values, so
    cells hold ties; each cell is valid with probability ``valid_rate``, and
    the years are distinct but not consecutive."""
    cal = build_calendar(scale)
    years = np.sort(rng.choice(np.arange(1980, 2040), n_years, replace=False))
    shape = (n_years, cal.n_windows, 24)
    counts = (rng.random(shape) < valid_rate).astype(np.int64)
    means = np.where(counts > 0, rng.integers(0, levels, shape) * step - 1.0, np.nan)
    return WindowHourPanel(sid, scale, years.tolist(), list(cal.labels), means, counts)


def profile_settings(examples: int) -> settings:
    """``examples`` per property test on the default profile; another loaded
    profile (``--hypothesis-profile deep``) sets the count itself."""
    if settings.get_current_profile_name() != "default":
        examples = settings.default.max_examples
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])
