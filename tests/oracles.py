"""Independent reference implementations for pinning expected values.

Everything here is written in the most literal way available: plain loops,
stdlib statistics, scipy distributions. None of it shares code with the
package, so a bug in the library cannot hide in a common code path. The
reference CSV readers and writers at the end are the package's former
per-row I/O, except that a timestamp moved out of range by its offset, a
``csv.Error`` and a byte that is not UTF-8 are ``ParseError``s with their
line, a UTF-8 byte order mark at the start of a file is skipped, and the
panel reader checks each row as the columnar one does; they
borrow only its data classes, calendars and error types, so their results
and exceptions compare directly with the columnar code. The synthetic
network's layout loop is the one exception: it calls ``synth_station`` for
each series, since what it pins is the layout around that call.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from bisect import bisect_left
from calendar import month_abbr
from datetime import datetime, timedelta, timezone

import numpy as np
from scipy import stats

from diurnal import (
    ContractError,
    DcorResult,
    DegenerateDataError,
    DuplicateTimestampError,
    EmptyInputError,
    ImputationError,
    ParseError,
    SampleTooSmallError,
    NetworkPanel,
    Region,
    StationGroup,
    StationMeta,
    TemperatureSeries,
    build_calendar,
    synth_station,
)
from diurnal.aggregate import SCALES
from diurnal.report import P_BANDS, SLOPE_BANDS


def mk_s_enumerated(x) -> int:
    """Mann-Kendall S by full pair enumeration."""
    x = list(x)
    s = 0
    for k in range(len(x) - 1):
        for j in range(k + 1, len(x)):
            if x[j] > x[k]:
                s += 1
            elif x[j] < x[k]:
                s -= 1
    return s


def mk_var_enumerated(x) -> float:
    """Tie-corrected Mann-Kendall variance, counting tie groups by equality."""
    x = list(x)
    n = len(x)
    var = n * (n - 1) * (2 * n + 5)
    for v in sorted(set(x)):
        t = x.count(v)
        if t > 1:
            var -= t * (t - 1) * (2 * t + 5)
    return var / 18.0


def mk_p_normal(x) -> tuple[float, float]:
    """(z, two-sided p) for the MK test via scipy's normal distribution."""
    s = mk_s_enumerated(x)
    var = mk_var_enumerated(x)
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return z, 2.0 * float(stats.norm.sf(abs(z)))


def sen_slope_median(x, t=None) -> float:
    """Sen's slope as the stdlib median of explicitly enumerated pair slopes."""
    x = list(x)
    tt = list(range(len(x))) if t is None else list(t)
    slopes = []
    for k in range(len(x) - 1):
        for j in range(k + 1, len(x)):
            if tt[j] != tt[k]:
                slopes.append((x[j] - x[k]) / (tt[j] - tt[k]))
    return statistics.median(slopes)


def lag1_loop(x) -> float:
    x = list(x)
    n = len(x)
    mean = sum(x) / n
    d = [v - mean for v in x]
    num = sum(d[i] * d[i + 1] for i in range(n - 1))
    den = sum(v * v for v in d)
    return num / den


def dtw_enumerated(x, y, wh=1.0, wv=1.0, wd=2.0, lam=0.0, metric="absolute") -> float:
    """Minimum cost over every monotone warp path, by exhaustive recursion.

    Exponential in the input lengths; callers keep sequences at 6 points or
    fewer. The branch-and-bound cut can only skip paths that are already at
    least as expensive as the best finished one, so the minimum is exact.
    """
    x = list(x)
    y = list(y)
    n, m = len(x), len(y)

    def cell(i, j):
        d = abs(x[i] - y[j])
        return d if metric == "absolute" else d * d

    best = math.inf

    def walk(i, j, acc):
        nonlocal best
        if acc >= best:
            return
        if i == n - 1 and j == m - 1:
            best = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc + wd * cell(i + 1, j + 1) + lam * abs(i - j))
        if i + 1 < n:
            walk(i + 1, j, acc + wh * cell(i + 1, j) + lam * abs(i + 1 - j))
        if j + 1 < m:
            walk(i, j + 1, acc + wv * cell(i, j + 1) + lam * abs(i - (j + 1)))
    walk(0, 0, cell(0, 0))
    return best


def dtw_loop(x, y, wh=1.0, wv=1.0, wd=2.0, lam=0.0, metric="absolute") -> float:
    """DTW cost by the cell-by-cell dynamic program over the full grid, the
    package's former scalar ``dtw_distance``; ties and rounding follow the
    same float operations in the same order, so results compare bitwise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.size, y.size
    diff = x[:, None] - y[None, :]
    cost = np.abs(diff) if metric == "absolute" else diff * diff
    penalty = lam * np.abs(np.arange(n)[:, None] - np.arange(m)[None, :])
    D = np.full((n + 1, m + 1), np.inf)
    D[1, 1] = cost[0, 0]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if i == 1 and j == 1:
                continue
            c = cost[i - 1, j - 1]
            D[i, j] = min(D[i - 1, j - 1] + wd * c,
                          D[i - 1, j] + wh * c,
                          D[i, j - 1] + wv * c) + penalty[i - 1, j - 1]
    return float(D[n, m])


def silhouette_loops(labels, dist_lookup, assignment) -> dict:
    """Silhouette per sample from a (label, label) -> distance callable."""
    scores = {}
    clusters = {}
    for lab in labels:
        clusters.setdefault(assignment[lab], []).append(lab)
    for lab in labels:
        own = [m for m in clusters[assignment[lab]] if m != lab]
        if not own or len(clusters) == 1:
            scores[lab] = 0.0
            continue
        a = sum(dist_lookup(lab, m) for m in own) / len(own)
        b = min(sum(dist_lookup(lab, m) for m in members) / len(members)
                for cid, members in clusters.items() if cid != assignment[lab])
        if max(a, b) == 0 or a == b:
            scores[lab] = 0.0
        else:
            scores[lab] = (b - a) / max(a, b)
    return scores


def dcor_loops(x, y) -> float:
    """Distance correlation with explicit double loops, no numpy.

    Each sample is first divided by its largest magnitude; dcor is
    scale-invariant, and this keeps the variance product of tiny-valued
    samples from underflowing to zero.
    """
    sx = max(map(abs, x)) or 1.0
    sy = max(map(abs, y)) or 1.0
    x = [v / sx for v in x]
    y = [v / sy for v in y]
    n = len(x)

    def centered(v):
        d = [[abs(v[i] - v[j]) for j in range(n)] for i in range(n)]
        row = [sum(r) / n for r in d]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]

    A = centered(x)
    B = centered(y)
    dcov2 = sum(A[i][j] * B[i][j] for i in range(n) for j in range(n)) / (n * n)
    dvarx = sum(A[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    dvary = sum(B[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    if dvarx <= 0 or dvary <= 0:
        return 0.0
    if dcov2 <= 0:
        return 0.0
    return min(1.0, math.sqrt(dcov2 / math.sqrt(dvarx * dvary)))


def average_linkage_blockmean(labels, values) -> list[tuple[str, str, float]]:
    """Average-linkage merge sequence by recomputing every block mean.

    Each step scans every pair of live clusters, takes the mean of all
    original cross distances (summed exactly with fsum) and merges the pair
    with the smallest (height, sorted name pair) key. Returns
    (name_a, name_b, height) per merge, clusters named by their sorted
    members joined with '+'.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    clusters = [[lab] for lab in labels]
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                h = math.fsum(values[index[x]][index[y]] for x in a for y in b) / (len(a) * len(b))
                names = tuple(sorted(("+".join(sorted(a)), "+".join(sorted(b)))))
                if best is None or (h, names) < best[0]:
                    best = ((h, names), i, j)
        (h, names), i, j = best
        merges.append((names[0], names[1], h))
        merged = clusters[i] + clusters[j]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)] + [merged]
    return merges


# --- Former per-cell trend, profile and permutation paths -----------------
#
# The package's code before its statistics became row kernels, one Python
# call per cell or permutation. The batched code must give the same bits,
# raise the same errors with the same messages, and draw the same
# permutations in the same order.

def mk_test_cell(x) -> tuple[int, int, float, float, float]:
    """Former ``mk_test``: (n, S, var_S, z, p)."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < 3:
        raise SampleTooSmallError(f"Mann-Kendall needs at least 3 values, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("Mann-Kendall input must be finite")
    iu = np.triu_indices(n, k=1)
    s = int(np.sign(arr[iu[1]] - arr[iu[0]]).sum())
    var_s = n * (n - 1) * (2 * n + 5)
    _, tie_counts = np.unique(arr, return_counts=True)
    for t in tie_counts:
        if t > 1:
            var_s -= t * (t - 1) * (2 * t + 5)
    var_s /= 18.0
    if var_s <= 0:
        raise DegenerateDataError("all values tied, Mann-Kendall variance is zero")
    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    return n, s, float(var_s), float(z), float(math.erfc(abs(z) / math.sqrt(2.0)))


def sen_slope_cell(x, t) -> float:
    """Former ``sen_slope(x, t).slope``."""
    arr = np.asarray(x, dtype=np.float64)
    tt = np.asarray(t, dtype=np.float64)
    if not (np.all(np.isfinite(arr)) and np.all(np.isfinite(tt))):
        raise ContractError("Sen's slope input must be finite")
    iu = np.triu_indices(arr.size, k=1)
    dt = tt[iu[1]] - tt[iu[0]]
    dx = arr[iu[1]] - arr[iu[0]]
    usable = dt != 0
    slopes = np.sort(dx[usable] / dt[usable])
    m = slopes.size
    if m % 2:
        return float(slopes[m // 2])
    return float(0.5 * (slopes[m // 2 - 1] + slopes[m // 2]))


def lag1_cell(x) -> float:
    """Former ``lag1_autocorrelation``, one ``np.dot`` per sum."""
    arr = np.asarray(x, dtype=np.float64)
    d = arr - arr.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateDataError(
            "centered sum of squares is zero, lag-1 autocorrelation is undefined")
    return float(np.dot(d[:-1], d[1:]) / denom)


def _year_series(panel, s, label, hour):
    w = panel.labels.index(label)
    valid = panel.counts[s, :, w, hour] > 0
    return np.asarray(panel.years, dtype=np.int64)[valid], panel.means[s, valid, w, hour]


def _trend_cell(vals, years):
    """One cell's (n, S, var_S, z, p, Sen's slope, lag-1, serial flag), or
    None where its values are all tied."""
    try:
        n, S, var_s, z, p = mk_test_cell(vals)
    except DegenerateDataError:
        return None
    r1 = lag1_cell(vals)
    return (n, S, var_s, z, p, sen_slope_cell(vals, years), r1,
            abs(r1) > 1.96 / math.sqrt(years.size))


def trend_surface_cells(panel, min_years=3) -> list:
    """Former ``trend_surface``: one MK, Sen and lag-1 call per cell, station
    by station, each cell a tuple of the ``TREND_HEADER`` fields; a cell's
    error is prefixed with its station, window and hour."""
    cells = []
    for s, sid in enumerate(panel.stations):
        for label in panel.labels:
            for hour in range(24):
                years, vals = _year_series(panel, s, label, hour)
                if years.size < min_years:
                    continue
                try:
                    stats = _trend_cell(vals, years)
                except ContractError as exc:
                    raise type(exc)(f"station {sid}, window {label}, hour {hour}: {exc}") from None
                if stats is not None:
                    cells.append((sid, panel.scale, label, hour, *stats))
    return cells


def hour_profile_cells(panel, label, kind) -> dict:
    """Former ``cli._hour_profile``, station by station: one Sen call or
    mean per hour; a cell's error is prefixed with its station, window and
    hour."""
    out = {}
    for s, sid in enumerate(panel.stations):
        vals = []
        for hour in range(24):
            years, v = _year_series(panel, s, label, hour)
            if kind == "slope":
                if years.size < 2:
                    raise ContractError(
                        f"station {sid}, window {label}, hour {hour}: "
                        f"need at least 2 valid years for slope features, have {years.size}")
                try:
                    vals.append(sen_slope_cell(v, years))
                except ContractError as exc:
                    raise type(exc)(f"station {sid}, window {label}, hour {hour}: {exc}") from None
            else:
                if v.size == 0:
                    raise ContractError(
                        f"station {sid}, window {label}, hour {hour}: "
                        "no valid years for level features")
                with np.errstate(over="ignore", invalid="ignore"):
                    vals.append(float(v.mean()))
                if not math.isfinite(vals[-1]):
                    raise ContractError(
                        f"station {sid}, window {label}, hour {hour}: "
                        "mean of the valid years is not finite")
        out[sid] = np.asarray(vals)
    return out


def _centered_distances(x):
    d = np.abs(x[:, None] - x[None, :])
    return d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()


def _dcor_from_centered(A, B) -> float:
    a2 = float((A * A).mean())
    b2 = float((B * B).mean())
    if a2 <= 0.0 or b2 <= 0.0:
        return 0.0
    ab = float((A * B).mean())
    if ab <= 0.0:
        return 0.0
    return min(1.0, math.sqrt(ab / math.sqrt(a2 * b2)))


def dcor_permutation_loop(x, y, n_perm=199, seed=0):
    """One-by-one ``dcor_permutation_test``: its input checks in their
    order, then one re-indexed matrix per permutation of y."""
    if n_perm < 99:
        raise ContractError(f"n_perm must be at least 99, got {n_perm}")
    xa, ya = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if xa.size != ya.size:
        raise ContractError("dcor inputs must have equal length")
    if xa.size < 2:
        raise SampleTooSmallError(f"dcor needs at least 2 values, got {xa.size}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ContractError("dcor inputs must be finite")
    xa, ya = (np.ldexp(a, -np.frexp(np.abs(a).max())[1]) for a in (xa, ya))
    A = _centered_distances(xa)
    B = _centered_distances(ya)
    observed = _dcor_from_centered(A, B)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(xa.size)
        # dcor squared within the kernel's tie tolerance counts as a tie.
        if _dcor_from_centered(A, B[np.ix_(perm, perm)]) ** 2 >= observed ** 2 - 1e-12:
            hits += 1
    return DcorResult(observed, (1 + hits) / (n_perm + 1), n_perm)


def dcor_table_loop(profiles, n_perm, seed):
    """Pair loop of the ``dcor`` command: sorted labels, and pair (i, j)
    permutes station j with the draws of seed ``[*seed, j]``, in order, so
    every pair with j shares them."""
    sids = sorted(profiles)
    return [(sids[i], sids[j], dcor_permutation_loop(profiles[sids[i]], profiles[sids[j]],
                                                      n_perm, [*seed, j]))
            for i in range(len(sids)) for j in range(i + 1, len(sids))]


# --- Calendar binning: one Python step per slot ---------------------------

def _panel_cell(scale, ts) -> tuple[int, str]:
    """The panel year and window label of a timestamp under one of the four
    window calendars, read off its month and day of month."""
    m = ts.month
    if scale == "10d":
        return ts.year, month_abbr[m] + ("01-10", "11-20", "21-31")[min((ts.day - 1) // 10, 2)]
    if scale == "30d":
        return ts.year, month_abbr[m]
    if scale == "60da":
        first = m if m % 2 else m - 1
        return ts.year, f"{month_abbr[first]}-{month_abbr[first + 1]}"
    # 60db: December opens the Dec-Jan window that the next January closes.
    if m in (12, 1):
        return ts.year - (m == 1), "Dec-Jan"
    first = m if m % 2 == 0 else m - 1
    return ts.year, f"{month_abbr[first]}-{month_abbr[first + 1]}"


def hourly_window_means_loop(series, window_calendar, skip_missing=False):
    """``hourly_window_means`` slot by slot: every slot's ``datetime`` names
    its panel year, and each observed slot adds its value to its (year,
    window, hour) cell's sum and count, in slot order."""
    if series.step != timedelta(hours=1):
        raise ContractError(f"aggregation needs an hourly series, got step {series.step}")
    if series.n == 0:
        raise EmptyInputError("cannot aggregate an empty series")
    if series.missing.any() and not skip_missing:
        raise ContractError(
            f"station {series.station_id}: series has masked slots; impute first "
            "or pass skip_missing=True")
    years, sums, counts = set(), {}, {}
    for k in range(series.n):
        ts = series.start + k * series.step
        year, label = _panel_cell(window_calendar.scale, ts)
        years.add(year)
        if not series.missing[k]:
            cell = (year, label, ts.hour)
            sums[cell] = sums.get(cell, 0.0) + float(series.values[k])
            counts[cell] = counts.get(cell, 0) + 1
    years, labels = sorted(years), list(window_calendar.labels)
    means = np.full((1, len(years), len(labels), 24), np.nan)
    count = np.zeros(means.shape, np.int64)
    for (year, label, hour), c in counts.items():
        cell = 0, years.index(year), labels.index(label), hour
        means[cell] = sums[year, label, hour] / c
        count[cell] = c
    return NetworkPanel(window_calendar.scale, [series.station_id], years, means, count)


def seasonal_split_impute_loop(series):
    """``seasonal_split_impute`` slot by slot: each slot joins its month's
    pool by its ``datetime``, and a masked slot takes the line between its
    nearest observed neighbours in the pool (``numpy.interp``'s formula), or
    the one neighbour it has."""
    if series.n == 0:
        raise EmptyInputError("cannot impute an empty series")
    pools = {m: [] for m in range(1, 13)}
    for k in range(series.n):
        pools[(series.start + k * series.step).month].append(k)
    values = series.values.tolist()
    filled = list(values)
    for m, pool in pools.items():
        seen = [p for p, k in enumerate(pool) if not series.missing[k]]
        if len(seen) == len(pool):
            continue
        if not seen:
            raise ImputationError(f"station {series.station_id}: month pool "
                                  f"{month_abbr[m]} has no observed values")
        for p, k in enumerate(pool):
            if not series.missing[k]:
                continue
            j = bisect_left(seen, p)
            if j == 0 or j == len(seen):
                filled[k] = values[pool[seen[min(j, len(seen) - 1)]]]
                continue
            p0, p1 = seen[j - 1], seen[j]
            y0, y1 = values[pool[p0]], values[pool[p1]]
            filled[k] = (y1 - y0) / (p1 - p0) * (p - p0) + y0
    return TemperatureSeries(series.station_id, series.start, series.step,
                             np.array(filled), np.zeros(series.n, bool))


_GROUP_CYCLE = (StationGroup.UKH, StationGroup.UKL, StationGroup.IH, StationGroup.IL)


def synth_network_loop(ns):
    """The series and metadata of ``diurnal synth``'s options ``ns`` (its
    parsed command line), station by station, with each station's group,
    region, coordinates, altitude, base, trend and seed worked out by
    branches, as the command once did it itself."""
    start = datetime(ns.start_year, 1, 1)
    series, metas = [], []
    for i in range(ns.stations):
        g = i % len(_GROUP_CYCLE)
        group = _GROUP_CYCLE[g]
        # The UK latitude would pass 90 degrees at i = 128, so station 129 on
        # takes the site of the station 128 places before it, in its group.
        k = i % 128
        if group in (StationGroup.UKH, StationGroup.UKL):
            region = Region.UK
            lat, lon = 52.0 + 0.3 * k, -1.5 - 0.2 * k
        else:
            region = Region.VALLE_DAOSTA if group is StationGroup.IH else Region.PIEMONTE
            lat, lon = 45.2 + 0.1 * k, 7.0 + 0.2 * k
        alt = 600.0 + 25.0 * k if group in (StationGroup.UKH, StationGroup.IH) else 80.0 + 5.0 * k
        sid = f"SYN{i + 1:02d}"
        series.append(synth_station(
            sid, start, n_years=ns.years, step=ns.step,
            base=ns.base + g * ns.group_spread,
            diurnal_amplitude=ns.diurnal_amplitude,
            annual_amplitude=ns.annual_amplitude,
            trend_per_year=ns.trend + g * ns.trend_spread,
            noise_sd=ns.noise_sd, missing_rate=ns.missing_rate,
            seed=[ns.seed, i]))
        metas.append(StationMeta(sid, f"Synthetic {i + 1:02d}", group, region, lat, lon, alt))
    return series, metas


# --- Reference CSV I/O: one Python step per row ---------------------------

def _fmt_float(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def _parse_timestamp_row(text, line_no):
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise ParseError(f"malformed timestamp {text!r}", line_no) from None
    if ts.tzinfo is not None:
        try:
            ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:
            raise ParseError(f"malformed timestamp {text!r}", line_no) from None
    return ts


def _numbered_rows(lines):
    """``(line_no, row)`` for the csv rows of ``lines``, numbered from 1,
    after a byte order mark at the start of the first line; a ``csv.Error``
    becomes a ``ParseError`` on the row it stopped at, and so does a row
    holding a byte that is not UTF-8 (read with ``surrogateescape``, which
    holds byte b as the character U+DC00 + b)."""
    lines = iter(lines)
    first = next(lines, None)
    reader = csv.reader(lines if first is None
                        else itertools.chain([first.removeprefix("\ufeff")], lines))
    line_no = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), line_no + 1) from None
        line_no += 1
        for ch in "".join(row):
            if "\udc80" <= ch <= "\udcff":
                raise ParseError(f"invalid UTF-8 byte 0x{ord(ch) - 0xDC00:02x}", line_no)
        yield line_no, row


def table_rows(lines, n_fields):
    """``(line_no, row)`` for the data rows among ``_numbered_rows(lines)``:
    blank rows and rows whose first field is ``station_id`` are skipped, and
    a row without ``n_fields`` fields is a ``ParseError``."""
    for line_no, row in _numbered_rows(lines):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].strip() == "station_id":
            continue
        if len(row) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(row)}", line_no)
        yield line_no, row


def _record_rows(lines):
    for line_no, row in table_rows(lines, 3):
        sid = row[0].strip()
        if not sid:
            raise ParseError("empty station_id", line_no)
        ts = _parse_timestamp_row(row[1], line_no)
        raw_temp = row[2].strip()
        if raw_temp == "":
            value = None
        else:
            try:
                value = float(raw_temp)
            except ValueError:
                raise ParseError(f"malformed temperature {row[2]!r}", line_no) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite temperature {row[2]!r}", line_no)
        yield line_no, sid, ts, value


def _series_rows(station_id, recs, step):
    recs = sorted(recs, key=lambda r: r[1])
    first = recs[0][1]
    n = (recs[-1][1] - first) // step + 1
    values = np.full(n, np.nan)
    missing = np.ones(n, dtype=bool)
    prev_ts = None
    for line_no, ts, value in recs:
        if ts == prev_ts:
            raise DuplicateTimestampError(
                f"station {station_id}: duplicate timestamp {ts.isoformat()}")
        prev_ts = ts
        delta = ts - first
        if delta % step:
            raise ParseError(
                f"timestamp {ts.isoformat()} not aligned to the "
                f"{int(step.total_seconds())}s step", line_no)
        k = delta // step
        if value is not None:
            values[k] = value
            missing[k] = False
    return TemperatureSeries(station_id, first, step, values, missing)


def _smallest_gap(timestamps):
    ordered = sorted(timestamps)
    diffs = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    return min(diffs) if diffs else timedelta(hours=1)


def read_records_rows(path, expected_step=None):
    """Multi-station records read, row by row."""
    groups = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, sid, ts, value in _record_rows(fh):
            groups.setdefault(sid, []).append((line_no, ts, value))
    if not groups:
        raise EmptyInputError(f"no records found in {path}")
    out = {}
    for sid in sorted(groups):
        recs = groups[sid]
        step = expected_step or _smallest_gap([ts for _, ts, _ in recs])
        out[sid] = _series_rows(sid, recs, step)
    return out


def write_records_rows(path, series):
    """Records CSV writer, one ``writerow`` per slot."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("station_id", "timestamp", "temp_c"))
        for s in sorted(series, key=lambda s: s.station_id):
            for k in range(s.n):
                ts = s.start + k * s.step
                temp = "" if s.missing[k] else _fmt_float(float(s.values[k]))
                writer.writerow((s.station_id, ts.isoformat() + "Z", temp))


def read_panel_rows(path):
    """Panel CSV read, row by row, into one network panel, with the row
    checks of the columnar reader in its order: station id, scale, the
    first row's scale, malformed fields, hour in 0-23, valid flag 0 or 1, label of its
    scale, finite mean where valid, first row for its cell."""
    rows, first = {}, None
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, row in table_rows(fh, 7):
            sid, scale, year, label, hour, mean, valid = (f.strip() for f in row)
            if not sid:
                raise ParseError("empty station_id", line_no)
            if scale not in SCALES:
                raise ParseError(f"unknown scale {scale!r}", line_no)
            first = first or scale
            if scale != first:
                raise ParseError(f"scale {scale} differs from the first row's scale {first}; "
                                 "a panel file holds one scale", line_no)
            try:
                cell = (int(year), label, int(hour),
                        math.nan if mean == "" else float(mean), valid == "1")
            except ValueError:
                raise ParseError("malformed year, hour or mean", line_no) from None
            if not 0 <= cell[2] <= 23:
                raise ParseError(f"hour {cell[2]} out of range 0-23", line_no)
            if valid not in ("0", "1"):
                raise ParseError(f"valid flag {valid!r} is not 0 or 1", line_no)
            if label not in build_calendar(scale).labels:
                raise ParseError(f"label {label!r} does not belong to scale {scale}", line_no)
            if cell[4] and not math.isfinite(cell[3]):
                raise ParseError(f"valid cell with non-finite mean {mean!r}", line_no)
            cells = rows.setdefault(sid, {})
            if cell[:3] in cells:
                raise ParseError(f"station {sid}: second row for year {cell[0]}, "
                                 f"window {label}, hour {cell[2]}", line_no)
            cells[cell[:3]] = cell[3:]
    if not rows:
        raise EmptyInputError(f"no panel rows found in {path}")
    cal = build_calendar(first)
    stations = sorted(rows)
    years = sorted({y for cells in rows.values() for y, _, _ in cells})
    shape = (len(stations), len(years), cal.n_windows, 24)
    means = np.full(shape, np.nan)
    counts = np.zeros(shape, dtype=np.uint8)  # the file keeps only a 0/1 flag
    for s, sid in enumerate(stations):
        for (year, label, hour), (mean, ok) in rows[sid].items():
            if ok:
                cell = s, years.index(year), cal.labels.index(label), hour
                means[cell] = mean
                counts[cell] = 1
    return NetworkPanel(first, stations, years, means, counts)


def write_panel_rows(path, panels):
    """Panel CSV writer: five nested loops, one ``writerow`` per cell; the
    stations of every panel in id order, each over its panel's years."""
    stations = sorted(((sid, p, s) for p in panels for s, sid in enumerate(p.stations)),
                      key=lambda station: station[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("station_id", "scale", "year", "window_label", "hour",
                         "mean_temp", "valid"))
        for sid, p, s in stations:
            for yi, year in enumerate(p.years):
                for w, label in enumerate(p.labels):
                    for hour in range(24):
                        ok = p.counts[s, yi, w, hour] > 0
                        writer.writerow((
                            sid, p.scale, year, label, hour,
                            _fmt_float(float(p.means[s, yi, w, hour])) if ok else "",
                            "1" if ok else "0",
                        ))


# --- Former per-row trend and contour tables ------------------------------
#
# A trend row is a tuple of the TREND_HEADER fields: (station_id, scale,
# window_label, hour, n, S, var_S, z, p_value, sen_slope, lag1, serial_flag).

TREND_HEADER = ("station_id", "scale", "window_label", "hour", "n", "S", "var_S",
                "z", "p_value", "sen_slope", "lag1", "serial_flag")


def _window_order(scale):
    return {label: i for i, label in enumerate(build_calendar(scale).labels)}


def _parse_float(text):
    return math.nan if text == "" else float(text)


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true"):
        return True
    if t in ("0", "false"):
        return False
    raise ValueError(f"not a boolean flag: {text!r}")


def write_trend_rows(path, rows):
    """Trend CSV writer: one sort of the rows, one ``writerow`` per row."""
    orders = {scale: _window_order(scale) for scale in SCALES}
    ordered = sorted(rows, key=lambda r: (r[0], r[1], orders[r[1]][r[2]], r[3]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TREND_HEADER)
        for sid, scale, label, hour, n, s, *stats, flag in ordered:
            writer.writerow((sid, scale, label, hour, n, s, *map(_fmt_float, stats),
                             "1" if flag else "0"))


def read_trend_rows(path):
    """Trend CSV read, row by row, into a list of row tuples, with the
    checks of the former reader in their order, the records reader's
    station id rule before them and, after the scale's, the panel reader's
    rule that a file holds the first row's scale."""
    labels = {scale: _window_order(scale) for scale in SCALES}
    rows, seen, first = [], set(), None
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, row in table_rows(fh, 12):
            sid, scale, label, hour, n, s, var_s, z, p, slope, lag1, flag = (
                f.strip() for f in row)
            if not sid:
                raise ParseError("empty station_id", line_no)
            if scale not in SCALES:
                raise ParseError(f"unknown scale {scale!r}", line_no)
            first = first or scale
            if scale != first:
                raise ParseError(f"scale {scale} differs from the first row's scale {first}; "
                                 "a trend file holds one scale", line_no)
            try:
                cell = (sid, scale, label, int(hour), int(n), int(s), _parse_float(var_s),
                        _parse_float(z), _parse_float(p), _parse_float(slope),
                        _parse_float(lag1), _parse_bool(flag))
            except ValueError:
                raise ParseError("malformed numeric field", line_no) from None
            hour, p, slope = cell[3], cell[8], cell[9]
            if not 0 <= hour <= 23:
                raise ParseError(f"hour {hour} out of range 0-23", line_no)
            if not 0.0 <= p <= 1.0:
                raise ParseError(f"p_value {p} out of [0, 1]", line_no)
            if not math.isfinite(slope):
                raise ParseError(f"sen_slope {slope} is not finite", line_no)
            if label not in labels[scale]:
                raise ParseError(f"label {label!r} does not belong to scale {scale}", line_no)
            if (sid, scale, label, hour) in seen:
                raise ParseError(f"station {sid}: second row for scale {scale}, "
                                 f"window {label}, hour {hour}", line_no)
            seen.add((sid, scale, label, hour))
            rows.append(cell)
    if not rows:
        raise EmptyInputError(f"no trend rows found in {path}")
    return rows


def _bin_cell(slope, p):
    if not math.isfinite(slope):
        raise ContractError("sen_slope must be finite")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ContractError(f"p_value {p} out of [0, 1]")
    return (SLOPE_BANDS[bisect_left((-0.03, 0.0, 0.03), slope)],
            P_BANDS[bisect_left((0.05, 0.10), p)])


def contour_rows(rows):
    """Contour grids of trend rows, which hold the first row's scale,
    grouped per station: a list of ``(station_id, scale, [(label, hour,
    slope, p, slope band, p band)])`` in station order, each station's
    cells in seasonal window and hour order."""
    by_station = {}
    for row in rows:
        if row[1] not in SCALES:
            raise ContractError(f"unknown scale {row[1]!r}")
        if row[1] != rows[0][1]:
            raise ContractError(f"scale {row[1]} differs from the first row's scale "
                                f"{rows[0][1]}; a trend table holds one scale")
        by_station.setdefault(row[0], []).append(row)
    grids = []
    for sid in sorted(by_station):
        scale = by_station[sid][0][1]
        order = _window_order(scale)
        cells = sorted(by_station[sid], key=lambda r: (order[r[2]], r[3]))
        grids.append((sid, scale, [(r[2], r[3], r[9], r[8], *_bin_cell(r[9], r[8]))
                                   for r in cells]))
    return grids


def write_contour_rows(path, grids):
    """Contour CSV writer, one ``writerow`` per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("station_id", "scale", "window_label", "hour",
                         "sen_slope", "p_value", "slope_band", "p_band"))
        for sid, scale, cells in sorted(grids, key=lambda g: g[0]):
            for label, hour, slope, p, slope_band, p_band in cells:
                writer.writerow((sid, scale, label, hour, _fmt_float(slope), _fmt_float(p),
                                 slope_band, p_band))


def write_distance_rows(path, labels, values):
    """Distance matrix CSV writer, one ``writerow`` per matrix row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", *labels])
        for label, row in zip(labels, values):
            writer.writerow([label, *(_fmt_float(v) for v in row)])
