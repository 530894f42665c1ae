"""Seasonal-split gap imputation.

Slots are pooled by calendar month across all years, keeping time order
inside each pool, and gaps are filled by linear interpolation between the
nearest observed values within the pool. A January gap is therefore bridged
by January readings only, even when those neighbours sit a year apart, which
keeps filled values on the seasonal level instead of blending adjacent
months across a long outage.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ImputationError
from .ingest import TemperatureSeries, time_fields

MONTH_ABBR = tuple(calendar.month_abbr[1:])  # ("Jan", ..., "Dec")


@dataclass
class SeasonalBlockPlan:
    """Which slots each month-pool owns, in the time order interpolation uses."""

    station_id: str
    labels: list[str]
    slots: list[np.ndarray]


def seasonal_plan(series: TemperatureSeries) -> SeasonalBlockPlan:
    """Build the month pools for a series without imputing anything."""
    if series.n == 0:
        raise EmptyInputError("cannot plan an empty series")
    _, months, _, _ = time_fields(series.index64())
    labels, slots = [], []
    for m in range(1, 13):
        idx = np.nonzero(months == m)[0]
        if idx.size:
            labels.append(MONTH_ABBR[m - 1])
            slots.append(idx)
    return SeasonalBlockPlan(series.station_id, labels, slots)


def seasonal_split_impute(series: TemperatureSeries) -> tuple[TemperatureSeries, SeasonalBlockPlan]:
    """Fill every masked slot by within-month linear interpolation.

    Observed values pass through bit-for-bit. Gaps at a pool's edges take
    the nearest observed value in that pool (flat extension). A month pool
    with no observed values at all cannot be filled and raises
    ``ImputationError`` naming the month.
    """
    plan = seasonal_plan(series)
    filled = series.values.copy()
    for label, idx in zip(plan.labels, plan.slots):
        obs = ~series.missing[idx]
        if not obs.any():
            raise ImputationError(
                f"station {series.station_id}: month pool {label} has no observed values")
        if obs.all():
            continue
        pos = np.arange(idx.size, dtype=np.float64)
        filled[idx] = np.interp(pos, pos[obs], series.values[idx][obs])
    keep = ~series.missing
    filled[keep] = series.values[keep]
    out = TemperatureSeries(series.station_id, series.start, series.step,
                            filled, np.zeros(series.n, dtype=bool))
    return out, plan
