"""Output verification with oracles the benchmark owns.

Every output is read by header name, so added columns do not break it. Each
check appends human-readable problems to a list; ``verify`` returns them per
stage, so a wrong output counts against the stage that wrote it.

Tolerances: exact where the program's arithmetic is reproducible step for
step (pass-through values, Mann-Kendall S, matrix symmetry), 1e-12 relative
for Sen's slope, 1e-9 where the oracle sums in another order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

# Allowed |median station Sen slope - generated station trend| per workload,
# sized by sweep_trend.py; see README.md.
TREND_TOL = {"archive": 0.01, "gappy": 0.04, "network": 0.03}
SLOPE_BANDS = ("(-1.0, -0.03]", "(-0.03, 0.0]", "(0.0, 0.03]", "(0.03, 1.0]")
P_BANDS = ("(0.001, 0.05]", "(0.05, 0.10]", "(0.10, 1]")
MIN_YEARS = 3
N_PERM = 199
DTW_WEIGHTS = (1.0, 1.0, 2.0)   # wh, wv, wd: the CLI defaults the workloads use
MAX_MESSAGES = 5


class Problems(list):
    """A list of problems that stops recording detail after a few entries."""

    def add(self, msg: str) -> None:
        if len(self) < MAX_MESSAGES:
            self.append(msg)
        elif len(self) == MAX_MESSAGES:
            self.append("... further problems not listed")


def read_table(path: Path) -> dict[str, list[str]]:
    """Columns of a CSV by header name."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    header = rows[0]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: rows with a field count other than the header's")
    cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * len(header)
    return {name: list(col) for name, col in zip(header, cols)}


def to_float(texts) -> np.ndarray:
    return np.array([float(t) if t != "" else math.nan for t in texts], dtype=np.float64)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ------------------------------------------------------------------ oracles

def mk_s(x) -> int:
    """Mann-Kendall S by enumerating every ordered pair."""
    s = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            s += (x[j] > x[i]) - (x[j] < x[i])
    return s


def sen(x, t) -> float:
    """Sen's slope as the median of the sorted pairwise slopes."""
    slopes = sorted((x[j] - x[i]) / (t[j] - t[i])
                    for i in range(len(x)) for j in range(i + 1, len(x)) if t[j] != t[i])
    m = len(slopes)
    return slopes[m // 2] if m % 2 else 0.5 * (slopes[m // 2 - 1] + slopes[m // 2])


def dtw(x, y, wh=DTW_WEIGHTS[0], wv=DTW_WEIGHTS[1], wd=DTW_WEIGHTS[2]) -> float:
    """Weighted DTW by the plain dynamic programme, two rows at a time."""
    m = len(y)
    prev = [math.inf] * (m + 1)
    for i in range(1, len(x) + 1):
        row = [math.inf] * (m + 1)
        for j in range(1, m + 1):
            c = abs(x[i - 1] - y[j - 1])
            if i == 1 and j == 1:
                row[j] = c
            else:
                row[j] = min(prev[j - 1] + wd * c, prev[j] + wh * c, row[j - 1] + wv * c)
        prev = row
    return prev[m]


def dcor(x, y) -> float:
    """Distance correlation from double-centred distance matrices."""
    def centred(v):
        d = np.abs(np.subtract.outer(v, v))
        return d - d.mean(axis=0)[None, :] - d.mean(axis=1)[:, None] + d.mean()
    a, b = centred(np.asarray(x)), centred(np.asarray(y))
    cov, vx, vy = (a * b).mean(), (a * a).mean(), (b * b).mean()
    if vx <= 0 or vy <= 0 or cov <= 0:
        return 0.0
    return min(1.0, math.sqrt(cov / math.sqrt(vx * vy)))


def bands(slope: float, p: float) -> tuple[str, str]:
    s = 0 if slope <= -0.03 else 1 if slope <= 0.0 else 2 if slope <= 0.03 else 3
    q = 0 if p <= 0.05 else 1 if p <= 0.10 else 2
    return SLOPE_BANDS[s], P_BANDS[q]


def windows_of(scale: str) -> tuple[list[str], dict[int, tuple[int, int]]]:
    """Window labels, and month -> (window index, panel-year offset)."""
    if scale == "30d":
        return list(gen.MONTHS), {m: (m - 1, 0) for m in range(1, 13)}
    if scale == "60db":
        labels = ["Dec-Jan", "Feb-Mar", "Apr-May", "Jun-Jul", "Aug-Sep", "Oct-Nov"]
        # January belongs to the Dec-Jan window opened the year before.
        return labels, {m: ((m % 12) // 2, -1 if m == 1 else 0) for m in range(1, 13)}
    raise ValueError(f"no oracle calendar for scale {scale}")


# ------------------------------------------------------------------ context

@dataclass
class Context:
    workload: object
    inputs: gen.Inputs
    in_dir: Path
    out_dir: Path
    seed: int
    _panel: dict | None = field(default=None, repr=False)
    _tables: dict = field(default_factory=dict, repr=False)

    def table(self, path: Path) -> dict[str, list[str]]:
        if path not in self._tables:
            self._tables[path] = read_table(path)
        return self._tables[path]

    def sample(self, items: list, k: int, *key: int) -> list:
        """A seeded sample of k of the items, in their order (all when fewer)."""
        if len(items) <= k:
            return list(items)
        pick = np.random.default_rng([self.seed, 9, *key]).choice(len(items), k, replace=False)
        return [items[i] for i in sorted(pick.tolist())]

    def aggregate_rows(self, n_rows: int) -> list[int]:
        return self.sample(range(n_rows), 300, 2)

    def trend_cells(self, trend_keys) -> tuple[set, list]:
        """The testable panel cells, and the sample of them checked against oracles."""
        cells = self.panel()
        testable = {key for key, (ys, ms) in cells.items()
                    if len(ys) >= MIN_YEARS and len(set(ms)) > 1}
        return testable, self.sample(sorted(set(trend_keys) & testable), 200, 3)

    def dtw_pairs(self, window: int) -> list[tuple[int, int]]:
        n = len(self.station_ids)
        return self.sample([(i, j) for i in range(n) for j in range(i + 1, n)], 30, 5, window)

    @property
    def station_ids(self) -> list[str]:
        return sorted(s.sid for s in self.inputs.stations)

    @property
    def panel_path(self) -> Path:
        return (self.out_dir if "aggregate" in self.workload.stages else self.in_dir) / "panel.csv"

    def panel(self) -> dict:
        """(station, window, hour) -> (years, means) over the valid panel cells."""
        if self._panel is None:
            t = self.table(self.panel_path)
            cells: dict = {}
            for sid, year, label, hour, mean, valid in zip(
                    t["station_id"], t["year"], t["window_label"], t["hour"],
                    t["mean_temp"], t["valid"]):
                if int(valid) > 0 and mean != "":
                    ys, ms = cells.setdefault((sid, label, int(hour)), ([], []))
                    ys.append(float(year))
                    ms.append(float(mean))
            for ys, ms in cells.values():
                order = sorted(range(len(ys)), key=ys.__getitem__)
                ys[:] = [ys[i] for i in order]
                ms[:] = [ms[i] for i in order]
            self._panel = cells
        return self._panel

    def profile(self, sid: str, label: str, kind: str) -> list[float]:
        cells = self.panel()
        out = []
        for hour in range(24):
            ys, ms = cells.get((sid, label, hour), ([], []))
            out.append(sen(ms, ys) if kind == "slope" else math.fsum(ms) / len(ms))
        return out


def pool_bounds(values: np.ndarray, missing: np.ndarray, month: np.ndarray):
    """Per slot, the lowest and highest of its observed month-pool neighbours.

    An observed slot is its own neighbour on both sides; a gap at a pool edge
    has a single neighbour.
    """
    lo = np.empty_like(values)
    hi = np.empty_like(values)
    for m in range(1, 13):
        idx = np.nonzero(month == m)[0]
        obs = ~missing[idx]
        k = np.arange(idx.size)
        before = np.maximum.accumulate(np.where(obs, k, -1))
        after = np.minimum.accumulate(np.where(obs, k, idx.size)[::-1])[::-1]
        v = values[idx]
        prev = np.where(before >= 0, v[np.clip(before, 0, None)], np.nan)
        nxt = np.where(after < idx.size, v[np.clip(after, None, idx.size - 1)], np.nan)
        lo[idx] = np.fmin(prev, nxt)
        hi[idx] = np.fmax(prev, nxt)
    return lo, hi


# ------------------------------------------------------------------ stage checks

def check_impute(ctx: Context, bad: Problems) -> None:
    rec = ctx.inputs.records
    step = 2 if ctx.workload.impute_to_hourly else 1
    t = ctx.table(ctx.out_dir / "filled.csv")
    sid_col = np.array(t["station_id"])
    stamps = np.char.add(rec.timestamps[::step], "Z")
    expected_rows = len(ctx.station_ids) * stamps.size
    if sid_col.size != expected_rows:
        bad.add(f"filled.csv has {sid_col.size} rows, expected {expected_rows}")
        return
    ts_col = np.array(t["timestamp"])
    temp_col = t["temp_c"]
    for sid in ctx.station_ids:
        rows = np.nonzero(sid_col == sid)[0]
        if rows.size != stamps.size or not np.array_equal(ts_col[rows], stamps):
            bad.add(f"{sid}: rows or timestamps differ from the expected hourly grid")
            continue
        texts = [temp_col[r] for r in rows]
        if "" in texts:
            bad.add(f"{sid}: {texts.count('')} slots left empty")
            continue
        out = to_float(texts)
        v = rec.values(sid)
        miss = rec.missing[sid]
        lo, hi = pool_bounds(v, miss, rec.month)
        if step == 2:
            exact = ~(miss[0::2] | miss[1::2])
            want = (v[0::2] + v[1::2]) / 2.0
            lo, hi = (lo[0::2] + lo[1::2]) / 2.0, (hi[0::2] + hi[1::2]) / 2.0
        else:
            exact, want = ~miss, v
        n_changed = int(np.count_nonzero(out[exact] != want[exact]))
        if n_changed:
            bad.add(f"{sid}: {n_changed} observed values did not pass through bit-for-bit")
        outside = (out < lo - 1e-9) | (out > hi + 1e-9)
        if outside.any():
            k = int(np.argmax(outside))
            bad.add(f"{sid}: {int(outside.sum())} filled values outside their month-pool "
                    f"neighbours, first at {stamps[k]}: {out[k]!r} not in [{lo[k]}, {hi[k]}]")


def _hourly_input(ctx: Context, sid: str):
    """The hourly series the aggregate stage consumed: values, presence, and
    the slice of the records' time grid that gives each value's hour."""
    rec = ctx.inputs.records
    if ctx.workload.aggregate_input == "filled":
        t = ctx.table(ctx.out_dir / "filled.csv")
        vals = to_float(v for s, v in zip(t["station_id"], t["temp_c"]) if s == sid)
        return vals, ~np.isnan(vals), slice(None)
    v = rec.values(sid)
    if rec.step_min == 60:
        return v, ~rec.missing[sid], slice(None)
    halves = v.reshape(-1, 2)
    present = (~rec.missing[sid]).reshape(-1, 2)
    count = present.sum(axis=1)
    total = np.where(present, halves, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore"):
        return total / count, count > 0, slice(None, None, 2)


def check_aggregate(ctx: Context, bad: Problems) -> None:
    rec = ctx.inputs.records
    scale = ctx.workload.aggregate_scale
    labels, by_month = windows_of(scale)
    t = read_table(ctx.out_dir / "panel.csv")
    n_labels = len(labels)
    keys_by_station = {}
    for sid in ctx.station_ids:
        vals, present, pick = _hourly_input(ctx, sid)
        month, year, hour = rec.month[pick], rec.year[pick], rec.hour[pick]
        win = np.array([by_month[m][0] for m in range(1, 13)])[month - 1]
        pyear = year + np.array([by_month[m][1] for m in range(1, 13)])[month - 1]
        years = sorted(set(pyear.tolist()))
        key = ((pyear - years[0]) * n_labels + win) * 24 + hour
        keys_by_station[sid] = (key, vals, present, years[0])
    expected_rows = len(ctx.station_ids) * len(years) * n_labels * 24
    n_rows = len(t["station_id"])
    if n_rows != expected_rows:
        bad.add(f"panel.csv has {n_rows} rows, expected {expected_rows}")
    cells = set(zip(t["station_id"], t["year"], t["window_label"], t["hour"]))
    if len(cells) != n_rows:
        bad.add("panel.csv repeats a (station, year, window, hour) cell")
    if set(t["scale"]) != {scale}:
        bad.add(f"panel.csv scale column is {sorted(set(t['scale']))}, expected {scale}")
    for r in ctx.aggregate_rows(n_rows):
        sid, label = t["station_id"][r], t["window_label"][r]
        if sid not in keys_by_station or label not in labels:
            bad.add(f"row {r + 2}: unknown station {sid!r} or window {label!r}")
            continue
        key, vals, present, y0 = keys_by_station[sid]
        k = ((int(t["year"][r]) - y0) * n_labels + labels.index(label)) * 24 + int(t["hour"][r])
        sel = (key == k) & present
        valid, mean = int(t["valid"][r]) > 0, t["mean_temp"][r]
        if not sel.any():
            if valid or mean != "":
                bad.add(f"row {r + 2}: cell has no readings but is marked valid")
            continue
        want = math.fsum(vals[sel]) / int(sel.sum())
        if not valid or mean == "" or abs(float(mean) - want) > 1e-9:
            bad.add(f"row {r + 2} ({sid} {t['year'][r]} {label} h{t['hour'][r]}): "
                    f"mean {mean!r}, valid {t['valid'][r]}, recomputed {want!r}")


def trend_rows(ctx: Context) -> tuple[dict, dict]:
    """(station, window, hour) -> row index of trend.csv, and its columns."""
    t = ctx.table(ctx.out_dir / "trend.csv")
    return {(sid, lab, int(h)): i for i, (sid, lab, h) in
            enumerate(zip(t["station_id"], t["window_label"], t["hour"]))}, t


def check_trend(ctx: Context, bad: Problems) -> None:
    cells = ctx.panel()
    index, t = trend_rows(ctx)
    expected, sampled = ctx.trend_cells(index)
    if set(index) != expected or len(index) != len(t["station_id"]):
        bad.add(f"trend.csv has {len(t['station_id'])} rows over {len(index)} cells, "
                f"expected one row for each of {len(expected)} testable cells")
    p = to_float(t["p_value"])
    if not np.all((p >= 0) & (p <= 1)):
        bad.add("p_value outside [0, 1]")
    for key in sampled:
        r = index[key]
        ys, ms = cells[key]
        if int(t["n"][r]) != len(ys):
            bad.add(f"{key}: n = {t['n'][r]}, expected {len(ys)}")
        if int(t["S"][r]) != mk_s(ms):
            bad.add(f"{key}: S = {t['S'][r]}, pair enumeration gives {mk_s(ms)}")
        want = sen(ms, ys)
        if not close(float(t["sen_slope"][r]), want, 1e-12, 1e-15):
            bad.add(f"{key}: sen_slope = {t['sen_slope'][r]}, sorted median gives {want!r}")
    slopes = to_float(t["sen_slope"])
    sids = np.array(t["station_id"])
    for st in ctx.inputs.stations:
        own = slopes[sids == st.sid]
        if own.size == 0:
            bad.add(f"{st.sid}: no trend rows")
        elif abs(float(np.median(own)) - st.trend) > TREND_TOL[ctx.workload.name]:
            bad.add(f"{st.sid}: median Sen slope {float(np.median(own)):.4f} does not recover "
                    f"the generated trend {st.trend:.4f} within {TREND_TOL[ctx.workload.name]}")


def check_contour(ctx: Context, bad: Problems) -> None:
    index, tr = trend_rows(ctx)
    t = read_table(ctx.out_dir / "contour.csv")
    if len(t["station_id"]) != len(index):
        bad.add(f"contour.csv has {len(t['station_id'])} rows, trend.csv {len(index)}")
    for sid, lab, h, slope, p, sb, pb in zip(
            t["station_id"], t["window_label"], t["hour"], t["sen_slope"], t["p_value"],
            t["slope_band"], t["p_band"]):
        r = index.get((sid, lab, int(h)))
        if r is None:
            bad.add(f"({sid}, {lab}, {h}) is not a trend cell")
            continue
        if float(slope) != float(tr["sen_slope"][r]) or float(p) != float(tr["p_value"][r]):
            bad.add(f"({sid}, {lab}, {h}): slope or p differs from trend.csv")
        if (sb, pb) != bands(float(slope), float(p)):
            bad.add(f"({sid}, {lab}, {h}): bands {sb} {pb}, expected "
                    f"{' '.join(bands(float(slope), float(p)))}")


def _linkage_replay(D: np.ndarray, labels: list[str], t: dict, k: int,
                    assignment: dict[str, int], bad: Problems, where: str) -> None:
    """Replay the merge sequence under an average-linkage oracle."""
    n = len(labels)
    members = {lab: [lab] for lab in labels}
    sums = {(a, b): D[i, j] for i, a in enumerate(labels) for j, b in enumerate(labels) if i < j}
    steps = [int(s) for s in t["step"]]
    if steps != list(range(1, n)):
        bad.add(f"{where}: merge steps {steps[:3]}..., expected 1..{n - 1}")
        return
    for a, b, h in zip(t["clusterA"], t["clusterB"], t["height"]):
        if a not in members or b not in members or a == b:
            bad.add(f"{where}: merge of unknown clusters {a} and {b}")
            return
        links = {pair: s / (len(members[pair[0]]) * len(members[pair[1]]))
                 for pair, s in sums.items()}
        pair = (a, b) if (a, b) in sums else (b, a)
        lowest = min(links.values())
        if not close(float(h), links[pair], 1e-9, 1e-12):
            bad.add(f"{where}: merge {a} + {b} at height {h}, average linkage {links[pair]!r}")
        if links[pair] > lowest + 1e-9 * max(1.0, abs(lowest)):
            bad.add(f"{where}: merged {a} + {b} at {links[pair]!r} while a pair at "
                    f"{lowest!r} was closer")
        merged = sorted(members.pop(a) + members.pop(b))
        name = "+".join(merged)
        new_sums = {}
        for (p, q), s in sums.items():
            if {p, q} == {a, b}:
                continue
            if p in (a, b) or q in (a, b):
                other = q if p in (a, b) else p
                key = (name, other)
                new_sums[key] = new_sums.get(key, 0.0) + s
            else:
                new_sums[(p, q)] = s
        sums = new_sums
        members[name] = merged
        if len(members) == k:
            cut = sorted(sorted(m) for m in members.values())
            want = {}
            for lab, cid in assignment.items():
                want.setdefault(cid, []).append(lab)
            if cut != sorted(sorted(m) for m in want.values()):
                bad.add(f"{where}: clusters differ from the merge tree cut at k={k}")


def check_cluster(ctx: Context, bad: Problems) -> None:
    sids = ctx.station_ids
    n, k = len(sids), ctx.workload.cluster_k
    d = ctx.out_dir / "clusters"
    for w, label in enumerate(ctx.workload.cluster_windows):
        m = read_table(d / f"dtw_{label}.csv")
        if list(m) != ["label"] + sids or m["label"] != sids:
            bad.add(f"dtw_{label}.csv: labels differ from the sorted station ids")
            continue
        D = np.array([to_float(m[s]) for s in sids]).T
        if not np.array_equal(D, D.T) or np.any(np.diag(D) != 0) or not np.all(D >= 0):
            bad.add(f"dtw_{label}.csv: not symmetric with a zero diagonal")
        for i, j in ctx.dtw_pairs(w):
            x, y = ctx.profile(sids[i], label, "slope"), ctx.profile(sids[j], label, "slope")
            want = 0.5 * (dtw(x, y) + dtw(y, x))
            if not close(D[i, j], want, 1e-9, 1e-12):
                bad.add(f"dtw_{label}.csv: d({sids[i]}, {sids[j]}) = {D[i, j]!r}, "
                        f"DP oracle {want!r}")
        c = read_table(d / f"clusters_{label}.csv")
        if sorted(c["station_id"]) != sids:
            bad.add(f"clusters_{label}.csv: stations differ from the panel's")
            continue
        assignment = {s: int(cid) for s, cid in zip(c["station_id"], c["cluster_id"])}
        scores = dict(zip(c["station_id"], to_float(c["silhouette"]).tolist()))
        if sorted(set(assignment.values())) != list(range(1, k + 1)):
            bad.add(f"clusters_{label}.csv: cluster ids {sorted(set(assignment.values()))}")
            continue
        firsts = [min(s for s in sids if assignment[s] == cid) for cid in range(1, k + 1)]
        if firsts != sorted(firsts):
            bad.add(f"clusters_{label}.csv: ids not ordered by smallest member")
        groups = {cid: [sids.index(s) for s in sids if assignment[s] == cid]
                  for cid in range(1, k + 1)}
        for i, s in enumerate(sids):
            if not -1.0 <= scores[s] <= 1.0:
                bad.add(f"clusters_{label}.csv: silhouette {scores[s]} of {s} outside [-1, 1]")
            own = [r for r in groups[assignment[s]] if r != i]
            if own and k > 1:
                a = math.fsum(D[i, own]) / len(own)
                b = min(math.fsum(D[i, rows]) / len(rows)
                        for cid, rows in groups.items() if cid != assignment[s])
                want = 0.0 if max(a, b) == 0 or a == b else (b - a) / max(a, b)
            else:
                want = 0.0
            if abs(scores[s] - want) > 1e-9:
                bad.add(f"clusters_{label}.csv: silhouette of {s} is {scores[s]!r}, "
                        f"oracle {want!r}")
        _linkage_replay(D, sids, read_table(d / f"merges_{label}.csv"), k, assignment,
                        bad, f"merges_{label}.csv")
        table = (d / f"cluster_table_{label}.txt").read_text(encoding="utf-8").split("\n")
        listed = sorted(line.split()[0] for line in table if line.startswith("  "))
        if listed != sids:
            bad.add(f"cluster_table_{label}.txt does not list every station once")


def check_radar(ctx: Context, bad: Problems) -> None:
    region = {s.sid: gen.REGIONS[gen.GROUPS[s.group]] for s in ctx.inputs.stations}
    want = []
    for month in gen.MONTHS:
        if month not in ctx.workload.cluster_windows:
            continue
        c = read_table(ctx.out_dir / "clusters" / f"clusters_{month}.csv")
        groups: dict = {}
        for s, cid, score in zip(c["station_id"], c["cluster_id"], c["silhouette"]):
            groups.setdefault((int(cid), region[s]), []).append(float(score))
        want += [(month, cid, reg, sum(v) / len(v), len(v))
                 for (cid, reg), v in sorted(groups.items())]
    t = read_table(ctx.out_dir / "radar.csv")
    got = list(zip(t["month"], t["cluster"], t["region"], t["mean_silhouette"], t["count"]))
    if len(got) != len(want):
        bad.add(f"radar.csv has {len(got)} rows, expected {len(want)}")
        return
    for g, e in zip(got, want):
        if (g[0], int(g[1]), g[2], int(g[4])) != (e[0], e[1], e[2], e[4]) \
                or abs(float(g[3]) - e[3]) > 1e-9:
            bad.add(f"radar row {g} differs from the recomputed {e}")


def check_dcor(ctx: Context, bad: Problems) -> None:
    label = ctx.workload.dcor_window
    sids = ctx.station_ids
    t = read_table(ctx.out_dir / "dcor.csv")
    want_pairs = [(a, b) for i, a in enumerate(sids) for b in sids[i + 1:]]
    got_pairs = list(zip(t["station_a"], t["station_b"]))
    if got_pairs != want_pairs or set(t["window_label"]) != {label}:
        bad.add(f"dcor.csv has {len(got_pairs)} pairs, expected {len(want_pairs)} "
                f"in window {label}")
        return
    profiles = {s: ctx.profile(s, label, "level") for s in sids}
    for (a, b), d, p, n_perm in zip(got_pairs, t["dcor"], t["p_value"], t["n_perm"]):
        want = dcor(profiles[a], profiles[b])
        if not close(float(d), want, 1e-9, 1e-12):
            bad.add(f"dcor({a}, {b}) = {d}, double-centring oracle {want!r}")
        hits = float(p) * (int(n_perm) + 1)
        if int(n_perm) != N_PERM or abs(hits - round(hits)) > 1e-6 \
                or not 1 <= round(hits) <= N_PERM + 1:
            bad.add(f"dcor({a}, {b}): p = {p} is not a whole count over n_perm + 1 = "
                    f"{int(n_perm) + 1}")


CHECKS = {
    "impute": check_impute, "aggregate": check_aggregate, "trend": check_trend,
    "contour": check_contour, "cluster": check_cluster, "radar": check_radar,
    "dcor": check_dcor,
}


def verify(workload, inputs: gen.Inputs, in_dir: Path, out_dir: Path,
           seed: int, stages=None) -> dict[str, list[str]]:
    """Problems found in each stage's outputs; empty lists mean verified."""
    ctx = Context(workload, inputs, in_dir, out_dir, seed)
    found = {}
    for stage in stages or workload.stages:
        bad = Problems()
        try:
            CHECKS[stage](ctx, bad)
        except (OSError, KeyError, ValueError, IndexError, csv.Error) as exc:
            bad.add(f"output unreadable: {exc!r}")
        found[stage] = list(bad)
    return found
