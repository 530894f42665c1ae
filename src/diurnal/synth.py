"""Synthetic station records with known structure, for demos and self-checks:
one station's series, and a network of stations over the paper's four groups."""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from .errors import ContractError
from .ingest import HALF_HOUR, HOUR, Region, StationGroup, StationMeta, TemperatureSeries

# The groups that stations take in turn, each with its region and its sites'
# latitude, longitude and altitude as (first value, step per site).
_GROUPS = (
    (StationGroup.UKH, Region.UK, (52.0, 0.3), (-1.5, -0.2), (600.0, 25.0)),
    (StationGroup.UKL, Region.UK, (52.0, 0.3), (-1.5, -0.2), (80.0, 5.0)),
    (StationGroup.IH, Region.VALLE_DAOSTA, (45.2, 0.1), (7.0, 0.2), (600.0, 25.0)),
    (StationGroup.IL, Region.PIEMONTE, (45.2, 0.1), (7.0, 0.2), (80.0, 5.0)),
)


def synth_network(n_stations: int, start: datetime, *, n_years: int = 10,
                  step: timedelta = HOUR, base: float = 10.0, diurnal_amplitude: float = 5.0,
                  annual_amplitude: float = 8.0, trend_per_year: float = 0.02,
                  trend_spread: float = 0.0, group_spread: float = 3.0, noise_sd: float = 1.0,
                  missing_rate: float = 0.0, seed: int = 0,
                  ) -> tuple[list[TemperatureSeries], list[StationMeta]]:
    """The series and metadata of ``n_stations`` synthetic stations, the
    defaults those of ``diurnal synth``. Station i is ``SYN<i+1>`` (two
    digits at least) and takes group index g = i % 4 in the order UKH, UKL,
    IH, IL, with that group's region and site i % 128 of its grid. Its
    series is ``synth_station`` from ``start`` with base ``base + g *
    group_spread``, trend ``trend_per_year + g * trend_spread`` and seed
    ``[seed, i]``."""
    series, metas = [], []
    for i in range(n_stations):
        g = i % len(_GROUPS)
        group, region, *grid = _GROUPS[g]
        sid = f"SYN{i + 1:02d}"
        series.append(synth_station(
            sid, start, n_years=n_years, step=step, base=base + g * group_spread,
            diurnal_amplitude=diurnal_amplitude, annual_amplitude=annual_amplitude,
            trend_per_year=trend_per_year + g * trend_spread,
            noise_sd=noise_sd, missing_rate=missing_rate, seed=[seed, i]))
        # The UK latitude would pass 90 degrees at site 128, so station 129
        # on takes the site of the station 128 places before it, in its group.
        metas.append(StationMeta(sid, f"Synthetic {i + 1:02d}", group, region,
                                 *(first + per_site * (i % 128) for first, per_site in grid)))
    return series, metas


def synth_station(station_id: str,
                  start: datetime,
                  n_years: int = 10,
                  step: timedelta = HOUR,
                  base: float = 10.0,
                  diurnal_amplitude: float = 5.0,
                  annual_amplitude: float = 0.0,
                  trend_per_year: float = 0.0,
                  noise_sd: float = 0.0,
                  missing_rate: float = 0.0,
                  seed: int | Sequence[int] = 0) -> TemperatureSeries:
    """Generate a synthetic station series with known structure.

    temp(t) = base
            + diurnal_amplitude * sin(2*pi * hour_of_day / 24)
            + annual_amplitude  * sin(2*pi * day_of_year / 365.25)
            + trend_per_year * (year - start year)
            + Normal(0, noise_sd)

    The series runs from ``start`` (naive UTC, on the step grid) up to but
    not including the same instant ``n_years`` calendar years later; a
    series that starts on 29 February and whose end year is not a leap
    year ends at the same time on 1 March of that year instead. With
    ``noise_sd`` zero no random numbers are drawn at all, so the output is
    a pure closed-form surface; ``missing_rate`` masks slots independently
    at that rate, after the noise draw.
    """
    if start.tzinfo is not None:
        raise ContractError("start must be a naive UTC datetime")
    if step not in (HOUR, HALF_HOUR):
        raise ContractError("step must be one hour or 30 minutes")
    if n_years < 1:
        raise ContractError(f"n_years must be at least 1, got {n_years}")
    if start.year + n_years > 9999:
        raise ContractError(
            f"start year {start.year} plus {n_years} years passes year 9999")
    if noise_sd < 0:
        raise ContractError("noise_sd must be non-negative")
    if not 0.0 <= missing_rate < 1.0:
        raise ContractError("missing_rate must be in [0, 1)")
    try:
        end = start.replace(year=start.year + n_years)
    except ValueError:  # 29 February, and the end year is not a leap year
        end = start.replace(year=start.year + n_years, month=3, day=1)
    step_s = int(step.total_seconds())
    n = int((end - start).total_seconds()) // step_s
    idx = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(step_s, "s")
    sec_of_day = (idx - idx.astype("datetime64[D]").astype("datetime64[s]")).astype(np.int64)
    hour_of_day = sec_of_day / 3600.0
    year_start = idx.astype("datetime64[Y]").astype("datetime64[s]")
    day_of_year = (idx - year_start).astype(np.int64) / 86400.0
    years = idx.astype("datetime64[Y]").astype(np.int64) + 1970
    temp = (base
            + diurnal_amplitude * np.sin(2.0 * np.pi * hour_of_day / 24.0)
            + annual_amplitude * np.sin(2.0 * np.pi * day_of_year / 365.25)
            + trend_per_year * (years - start.year))
    rng = None
    if noise_sd > 0.0:
        rng = np.random.default_rng(seed)
        temp = temp + rng.normal(0.0, noise_sd, n)
    missing = np.zeros(n, dtype=bool)
    if missing_rate > 0.0:
        if rng is None:
            rng = np.random.default_rng(seed)
        missing = rng.random(n) < missing_rate
    return TemperatureSeries(station_id, start, step, temp, missing)
