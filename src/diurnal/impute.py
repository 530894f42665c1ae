"""Seasonal-split gap imputation.

Slots are pooled by calendar month across all years, keeping time order
inside each pool, and gaps are filled by linear interpolation between the
nearest observed values within the pool. A January gap is therefore bridged
by January readings only, even when those neighbours sit a year apart, which
keeps filled values on the seasonal level instead of blending adjacent
months across a long outage.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, ImputationError
from .ingest import TemperatureSeries, day_fields

# English whatever the locale: ``calendar.month_abbr`` follows LC_TIME, and
# these names are written into window labels and file names.
MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def seasonal_split_impute(series: TemperatureSeries) -> TemperatureSeries:
    """Fill every masked slot by within-month linear interpolation.

    Observed values pass through bit-for-bit. Gaps at a pool's edges take
    the nearest observed value in that pool (flat extension). A month pool
    with no observed values at all cannot be filled and raises
    ``ImputationError`` naming the month; an empty series raises
    ``EmptyInputError``.
    """
    if series.n == 0:
        raise EmptyInputError("cannot impute an empty series")
    (_, day_month, _), slot_day, hours = day_fields(series.index64())
    months = day_month.astype(np.int8)[slot_day]
    del slot_day, hours
    filled = series.values.copy()
    for m in range(1, 13):
        idx = np.flatnonzero(months == m)
        obs = ~series.missing[idx]
        if obs.all():
            continue
        if not obs.any():
            raise ImputationError(
                f"station {series.station_id}: month pool {MONTH_ABBR[m - 1]} "
                "has no observed values")
        pos = np.arange(idx.size, dtype=np.float64)
        filled[idx[~obs]] = np.interp(pos[~obs], pos[obs], series.values[idx][obs])
    return TemperatureSeries(series.station_id, series.start, series.step,
                             filled, np.zeros(series.n, dtype=bool))
