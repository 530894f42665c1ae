"""Sweep seeds to size the trend-recovery tolerance of ``verify.check_trend``.

    python3 perfbench/sweep_trend.py [N_SEEDS]

For every workload that runs ``trend``, this regenerates the inputs for
seeds 1..N and computes, without the ``diurnal`` package, what the pipeline
is documented to compute: window x hour means of the available hourly values
(half-hours averaged first), Sen's slope per cell with at least 3 valid
years, and each station's median slope. It prints the largest
|median - generated trend| over stations and seeds, against the tolerance.
Archive's 2% gaps are averaged around rather than imputed, which moves a
cell mean by far less than the noise.
"""

from __future__ import annotations

import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from verify import TREND_TOL, sen, windows_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def station_medians(wl, inputs) -> dict[str, float]:
    out = {}
    if inputs.panel is not None:
        years = [float(y) for y in inputs.panel.years]
        for st in inputs.stations:
            means = inputs.panel.tenths[st.sid] / 10.0
            out[st.sid] = statistics.median(
                sen(means[:, w, h].tolist(), years) for w in range(12) for h in range(24))
        return out
    rec = inputs.records
    labels, by_month = windows_of(wl.aggregate_scale)
    pick = slice(None, None, 60 // rec.step_min)
    win = np.array([by_month[m][0] for m in range(1, 13)])[rec.month[pick] - 1]
    pyear = rec.year[pick] + np.array([by_month[m][1] for m in range(1, 13)])[rec.month[pick] - 1]
    y0, n_years = int(pyear.min()), int(pyear.max() - pyear.min() + 1)
    key = ((pyear - y0) * len(labels) + win) * 24 + rec.hour[pick]
    size = n_years * len(labels) * 24
    for st in inputs.stations:
        v = rec.values(st.sid).reshape(-1, 60 // rec.step_min)
        ok = ~np.isnan(v)
        count = ok.sum(axis=1)
        hourly = np.where(ok, v, 0.0).sum(axis=1) / np.maximum(count, 1)
        use = count > 0
        sums = np.bincount(key[use], hourly[use], size)
        n = np.bincount(key[use], minlength=size)
        means = (sums / np.maximum(n, 1)).reshape(n_years, len(labels), 24)
        valid = n.reshape(n_years, len(labels), 24) > 0
        slopes = []
        for w in range(len(labels)):
            for h in range(24):
                ys = np.nonzero(valid[:, w, h])[0]
                if ys.size >= 3:
                    slopes.append(sen(means[ys, w, h].tolist(), (ys + y0).astype(float).tolist()))
        out[st.sid] = statistics.median(slopes)
    return out


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    work = HERE / ".work" / "sweep"
    try:
        for wl in WORKLOADS.values():
            if "trend" not in wl.stages:
                continue
            devs = []
            for seed in range(1, n_seeds + 1):
                inputs = wl.generate(work, seed)
                trend = {st.sid: st.trend for st in inputs.stations}
                devs += [abs(m - trend[sid]) for sid, m in station_medians(wl, inputs).items()]
            print(f"{wl.name}: {len(devs)} stations over {n_seeds} seeds, "
                  f"max |median slope - trend| = {max(devs):.4f}, "
                  f"median {statistics.median(devs):.4f}, tolerance {TREND_TOL[wl.name]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
