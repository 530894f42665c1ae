"""Shared construction helpers for the test suite."""

from __future__ import annotations

import tracemalloc
from datetime import datetime, timedelta

import numpy as np
from hypothesis import HealthCheck, settings

from diurnal import NetworkPanel, TemperatureSeries, build_calendar

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
               valid_rate=0.8, years=None) -> NetworkPanel:
    """A one-station panel whose valid means take one of ``levels`` grid
    values, so cells hold ties; each cell is valid with probability
    ``valid_rate``, and the years are ``years`` or else ``n_years`` distinct
    but not consecutive ones."""
    cal = build_calendar(scale)
    if years is None:
        years = np.sort(rng.choice(np.arange(1980, 2040), n_years, replace=False))
    shape = (1, len(years), cal.n_windows, 24)
    counts = (rng.random(shape) < valid_rate).astype(np.int64)
    means = np.where(counts > 0, rng.integers(0, levels, shape) * step - 1.0, np.nan)
    return NetworkPanel(scale, [sid], years, means, counts)


def profile_settings(examples: int) -> settings:
    """``examples`` per property test on the default profile; another loaded
    profile (``--hypothesis-profile deep``) sets the count itself."""
    if settings.get_current_profile_name() != "default":
        examples = settings.default.max_examples
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


def read_peak(call, *args) -> tuple[int, int]:
    """The tracemalloc peak of one ``call(*args)`` and the traced memory its
    result holds, in bytes, both above what was traced before the call."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(*args)  # held while its memory is read
        held, peak = tracemalloc.get_traced_memory()
        return peak - base, held - base
    finally:
        if started:
            tracemalloc.stop()
