"""Independent reference implementations for pinning expected values.

Everything here is written in the most literal way available: plain loops,
stdlib statistics, scipy distributions. None of it shares code with the
package, so a bug in the library cannot hide in a common code path.
"""

from __future__ import annotations

import math
import statistics

from scipy import stats


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
