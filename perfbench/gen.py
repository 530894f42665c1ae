"""Seeded input generator for the benchmark workloads.

Independent of the ``diurnal`` package: it writes the documented CSV layouts
(records, panel, metadata) straight from numpy arrays. Every value is

    base + diurnal sine + annual sine + hourly trend * (year - first year) + noise

rounded to 0.1 degC. The trend of a station is its group's trend plus a
small per-station offset, modulated over the hour of day by a cosine whose
median over the 24 hours is zero, so the median Sen slope of a station
estimates ``Station.trend``.

The same (workload, seed) always gives the same bytes: numpy's PCG64
generator is seeded with ``[seed, workload id, station index]``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GROUPS = ("UKH", "UKL", "IH", "IL")
REGIONS = {"UKH": "UK", "UKL": "UK", "IH": "ValleDAosta", "IL": "Piemonte"}
GROUP_BASE = (7.0, 10.0, 4.0, 12.0)
GROUP_TREND = (0.035, 0.010, 0.025, -0.015)   # degC per year
TREND_AMP = (0.020, 0.010, 0.030, 0.015)      # hourly modulation of the trend
TREND_PEAK = (14, 4, 9, 20)                   # hour where warming is strongest
DIURNAL_AMP = 5.0
ANNUAL_AMP = 8.0
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass
class Station:
    sid: str
    group: int
    base: float
    trend: float

    def hourly_trend(self, hours: np.ndarray) -> np.ndarray:
        g = self.group
        return self.trend + TREND_AMP[g] * np.cos(2 * np.pi * (hours - TREND_PEAK[g]) / 24.0)

    def meta_row(self, i: int) -> str:
        grp = GROUPS[self.group]
        uk = REGIONS[grp] == "UK"
        lat = (51.0 if uk else 45.0) + 0.05 * i
        lon = (-2.0 if uk else 7.2) + 0.03 * i
        alt = (350.0 if grp in ("UKH", "IH") else 40.0) + 2.0 * i
        return f"{self.sid},Station {self.sid},{grp},{REGIONS[grp]},{lat:.2f},{lon:.2f},{alt:.1f}"


@dataclass
class RecordsTruth:
    """Generated records: one shared time grid, per-station tenths and gaps."""

    step_min: int
    timestamps: np.ndarray            # 'YYYY-MM-DDTHH:MM:SS' strings
    year: np.ndarray
    month: np.ndarray
    day: np.ndarray
    hour: np.ndarray
    tenths: dict[str, np.ndarray] = field(default_factory=dict)
    missing: dict[str, np.ndarray] = field(default_factory=dict)

    def values(self, sid: str) -> np.ndarray:
        """Observed values as parsed floats, NaN where the field is empty."""
        v = self.tenths[sid] / 10.0
        return np.where(self.missing[sid], np.nan, v)


@dataclass
class PanelTruth:
    years: list[int]
    tenths: dict[str, np.ndarray] = field(default_factory=dict)   # (year, 12, 24)


@dataclass
class Inputs:
    stations: list[Station]
    files: dict[str, Path]
    records: RecordsTruth | None = None
    panel: PanelTruth | None = None

    def digests(self) -> dict[str, str]:
        return {name: sha256(path) for name, path in sorted(self.files.items())}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def make_stations(n: int, rng: np.random.Generator) -> list[Station]:
    out = []
    for i in range(n):
        g = i % len(GROUPS)
        out.append(Station(f"ST{i + 1:03d}", g,
                           GROUP_BASE[g] + float(rng.uniform(-0.5, 0.5)),
                           GROUP_TREND[g] + float(rng.uniform(-0.003, 0.003))))
    return out


def _write_metadata(path: Path, stations: list[Station]) -> None:
    lines = ["station_id,name,group,region,latitude,longitude,altitude_m"]
    lines += [s.meta_row(i) for i, s in enumerate(stations)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tenths_text(tenths: np.ndarray, missing: np.ndarray) -> list[str]:
    lo, hi = int(tenths.min()), int(tenths.max())
    lut = {t: f"{t / 10:.1f}" for t in range(lo, hi + 1)}
    return ["" if m else lut[t] for t, m in zip(tenths.tolist(), missing.tolist())]


def generate_records(out_dir: Path, seed: int, wid: int, *, n_stations: int,
                     n_years: int, step_min: int, gap_rate: float,
                     outages: int = 0, noise_sd: float = 1.0,
                     start_year: int = 2000) -> Inputs:
    """Write records.csv and metadata.csv; every slot has a row, gaps are empty."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stations = make_stations(n_stations, np.random.default_rng([seed, wid]))
    t0 = np.datetime64(f"{start_year}-01-01T00:00", "s")
    t1 = np.datetime64(f"{start_year + n_years}-01-01T00:00", "s")
    idx = np.arange(t0, t1, np.timedelta64(step_min * 60, "s"))
    days = idx.astype("datetime64[D]")
    year = idx.astype("datetime64[Y]").astype(np.int64) + 1970
    month = idx.astype("datetime64[M]").astype(np.int64) % 12 + 1
    day = (days - idx.astype("datetime64[M]").astype("datetime64[D]")).astype(np.int64) + 1
    hod = (idx - days.astype("datetime64[s]")).astype(np.int64) / 3600.0
    hour = np.floor(hod).astype(np.int64)
    doy = (days - idx.astype("datetime64[Y]").astype("datetime64[D]")).astype(np.int64)
    seasonal = (DIURNAL_AMP * np.sin(2 * np.pi * (hod - 9.0) / 24.0)
                + ANNUAL_AMP * np.sin(2 * np.pi * (doy - 105.0) / 365.25))
    stamps = np.datetime_as_string(idx, unit="s")
    truth = RecordsTruth(step_min, stamps, year, month, day, hour)
    per_day = 24 * 60 // step_min
    lines = ["station_id,timestamp,temp_c"]
    for i, st in enumerate(stations):
        rng = np.random.default_rng([seed, wid, i])
        temp = (st.base + seasonal + st.hourly_trend(hour) * (year - start_year)
                + rng.normal(0.0, noise_sd, idx.size))
        tenths = np.rint(temp * 10.0).astype(np.int64)
        missing = rng.random(idx.size) < gap_rate
        for _ in range(outages):
            length = int(rng.integers(2, 10)) * per_day
            begin = int(rng.integers(1, idx.size - length - 1))
            missing[begin:begin + length] = True
        truth.tenths[st.sid] = tenths
        truth.missing[st.sid] = missing
        prefix = st.sid + ","
        lines += [prefix + ts + "Z," + v
                  for ts, v in zip(stamps.tolist(), _tenths_text(tenths, missing))]
    records = out_dir / "records.csv"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = out_dir / "metadata.csv"
    _write_metadata(meta, stations)
    return Inputs(stations, {"records.csv": records, "metadata.csv": meta}, records=truth)


def generate_panel(out_dir: Path, seed: int, wid: int, *, n_stations: int,
                   n_years: int, noise_sd: float = 0.3,
                   start_year: int = 2000) -> Inputs:
    """Write a 30d panel.csv (every cell valid) and metadata.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stations = make_stations(n_stations, np.random.default_rng([seed, wid]))
    years = np.arange(start_year, start_year + n_years)
    y = (years - start_year)[:, None, None].astype(np.float64)
    w = np.arange(12)[None, :, None]
    h = np.arange(24)[None, None, :]
    seasonal = (DIURNAL_AMP * np.sin(2 * np.pi * (h - 9.0) / 24.0)
                + ANNUAL_AMP * np.sin(2 * np.pi * (w - 3.0) / 12.0))
    truth = PanelTruth([int(v) for v in years])
    lines = ["station_id,scale,year,window_label,hour,mean_temp,valid"]
    keys = [f",30d,{yr},{mon},{hr}," for yr in years.tolist()
            for mon in MONTHS for hr in range(24)]
    for i, st in enumerate(stations):
        rng = np.random.default_rng([seed, wid, i])
        trend = st.hourly_trend(np.arange(24))[None, None, :]
        temp = (st.base + seasonal + trend * y
                + rng.normal(0.0, noise_sd, (n_years, 12, 24)))
        tenths = np.rint(temp * 10.0).astype(np.int64)
        truth.tenths[st.sid] = tenths
        text = _tenths_text(tenths.ravel(), np.zeros(tenths.size, dtype=bool))
        lines += [st.sid + k + v + ",1" for k, v in zip(keys, text)]
    panel = out_dir / "panel.csv"
    panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = out_dir / "metadata.csv"
    _write_metadata(meta, stations)
    return Inputs(stations, {"panel.csv": panel, "metadata.csv": meta}, panel=truth)
