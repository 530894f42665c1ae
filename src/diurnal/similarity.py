"""Pattern similarity: weighted DTW, average-linkage clustering, silhouette
scores and distance correlation.

The DTW variant here weights the three alignment moves separately and adds
an off-diagonal penalty, so warped alignments can be made progressively more
expensive than lockstep ones. Unequal horizontal and vertical weights
break symmetry, so the pairwise matrix averages both directions; with equal
ones DTW is symmetric and each pair runs in one direction only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._util import csv_pieces, fmt, fmt_column, write_blocks, write_csv
from .errors import ContractError, EmptyInputError, SampleTooSmallError

METRICS = ("absolute", "squared")


@dataclass(frozen=True)
class DtwConfig:
    """Move weights, off-diagonal penalty and local cost metric for DTW.

    ``wh`` scales steps that advance only the first series, ``wv`` steps that
    advance only the second, ``wd`` diagonal steps. ``lam`` is the penalty
    per cell on the warping path times its distance |i - j| from the
    diagonal.
    """

    wh: float = 1.0
    wv: float = 1.0
    wd: float = 2.0
    lam: float = 0.0
    metric: str = "absolute"

    def __post_init__(self):
        for name in ("wh", "wv", "wd", "lam"):
            if not np.isfinite(getattr(self, name)):
                raise ContractError(f"DTW {name} must be finite, got {getattr(self, name)}")
        if min(self.wh, self.wv, self.wd) <= 0:
            raise ContractError("DTW move weights must be positive")
        if self.lam < 0:
            raise ContractError("DTW penalty lam must be non-negative")
        if self.metric not in METRICS:
            raise ContractError(f"unknown metric {self.metric!r}, expected one of {METRICS}")


DEFAULT_CONFIG = DtwConfig()


def _dtw_inputs(arrays: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """The sequences as float64 arrays, each non-empty and finite."""
    out = [np.asarray(a, dtype=np.float64) for a in arrays]
    if any(a.size == 0 for a in out):
        raise EmptyInputError("DTW inputs must be non-empty")
    if not all(np.all(np.isfinite(a)) for a in out):
        raise ContractError("DTW inputs must be finite")
    return out


def _dtw_batch(x: np.ndarray, y: np.ndarray, config: DtwConfig) -> np.ndarray:
    """The DTW cost of ``x[:, k]`` against ``y[:, k]`` for every column k.

    ``x`` is (n, jobs) and ``y`` is (m, jobs). D[i, j] = min(D[i-1, j-1] +
    wd * c, D[i-1, j] + wh * c, D[i, j-1] + wv * c) + lam * |i - j| for
    local cost c, from D[0, 0] = c; the penalty is added only when ``lam``
    is not 0. Cell (i, j) needs only the anti-diagonals i + j - 1 and
    i + j - 2, so the sweep takes one step per anti-diagonal, n + m - 1 in
    all, each a few numpy calls over the diagonal's cells and the job axis.
    Three diagonals of shape (n + 1, jobs) are kept, cell (i, j) at row
    i + 1; row 0 and the rows past a diagonal's end are never written and
    hold the table's inf border. Memory stays O(n * jobs).
    """
    n, m = x.shape[0], y.shape[0]
    diags = [np.full((n + 1, x.shape[1]), np.inf) for _ in range(3)]
    temps = np.empty((3, min(n, m), x.shape[1]))
    for d in range(n + m - 1):
        lo, hi = max(0, d - m + 1), min(n - 1, d)
        cur, prev, prev2 = diags[d % 3], diags[(d - 1) % 3], diags[(d - 2) % 3]
        c, best, step = temps[:, :hi - lo + 1]
        # Cells (i, d - i) for i in lo..hi: x[i] against y[d - i].
        np.subtract(x[lo:hi + 1], y[d - hi:d - lo + 1][::-1], out=c)
        if config.metric == "absolute":
            np.abs(c, out=c)
        else:
            np.multiply(c, c, out=c)
        if d == 0:
            cur[1] = c[0]
            continue
        np.multiply(config.wd, c, out=best)
        best += prev2[lo:hi + 1]
        np.multiply(config.wh, c, out=step)
        step += prev[lo:hi + 1]
        np.minimum(best, step, out=best)
        np.multiply(config.wv, c, out=step)
        step += prev[lo + 1:hi + 2]
        np.minimum(best, step, out=cur[lo + 1:hi + 2])
        if config.lam != 0:
            cur[lo + 1:hi + 2] += (config.lam * np.abs(2 * np.arange(lo, hi + 1) - d))[:, None]
    return diags[(n + m - 2) % 3][n].copy()


def dtw_distance(x: Sequence[float], y: Sequence[float],
                 config: DtwConfig = DEFAULT_CONFIG) -> float:
    """Weighted DTW alignment cost between two sequences, the one-pair case
    of the kernel ``pairwise_dtw`` runs: every path cell (i, j) adds its move
    weight times the local cost plus ``lam * |i - j|``, and the starting cell
    its bare local cost."""
    xa, ya = _dtw_inputs((x, y))
    return float(_dtw_batch(xa[:, None], ya[:, None], config)[0])


@dataclass
class DistanceMatrix:
    """A symmetric labeled distance matrix."""

    labels: list[str]
    values: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = len(self.labels)
        if self.values.shape != (n, n):
            raise ContractError(f"distance matrix must be {n}x{n}")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise ContractError("distance matrix labels must be unique")
        if not np.allclose(self.values, self.values.T, atol=1e-9):
            raise ContractError("distance matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.labels)

    def get(self, a: str, b: str) -> float:
        return float(self.values[self._index[a], self._index[b]])


# Jobs one ``_dtw_batch`` call takes at most, so the kernel's working memory
# (six arrays of about n x jobs doubles, 2.4 MB for 24-hour profiles) does
# not grow with the number of windows: 36 windows of 32 stations at 10d
# make 17 856 jobs. Calls of 1 000-2 000 such jobs ran fastest on a 2 MB L2
# cache, and 80 stations' 3 160 pairs take two.
DTW_BATCH_JOBS = 1 << 11


def window_dtw(windows: Iterable[Mapping[str, Sequence[float]]],
               config: DtwConfig = DEFAULT_CONFIG) -> list[DistanceMatrix]:
    """``pairwise_dtw`` of each window's profiles, in order, with the
    station pairs of every window run together: one ``_dtw_batch`` call per
    profile-length pair and chunk of at most ``DTW_BATCH_JOBS`` jobs. Each
    entry is a job's own column of the kernel, so the matrices are bitwise
    as window by window. Every window's profiles are checked before any
    DTW runs, and the first window that fails ``pairwise_dtw``'s checks
    raises its error.
    """
    labels: list[list[str]] = []
    arrays: list[np.ndarray] = []
    for profiles in windows:
        names = sorted(profiles)
        if len(names) < 2:
            raise SampleTooSmallError("pairwise DTW needs at least 2 profiles")
        arrays += _dtw_inputs([profiles[lab] for lab in names])
        labels.append(names)
    # Job k runs profile first[k] against second[k], both numbered across
    # the windows: each window's (a, b) jobs, then its (b, a) jobs when the
    # side weights differ.
    first, second, counts, start = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [], 0
    for names in labels:
        a, b = np.triu_indices(len(names), 1)
        if config.wh != config.wv:
            a, b = np.r_[a, b], np.r_[b, a]
        first.append(a + start)
        second.append(b + start)
        counts.append(a.size)
        start += len(names)
    first, second = np.concatenate(first), np.concatenate(second)
    # The profiles of each length as the columns of one matrix. (A plain
    # ``np.unique`` would import ``numpy.ma``, about 15 ms, on numpy 2.4.)
    sizes = np.array([a.size for a in arrays], dtype=np.int64)
    stacks, column = {}, np.empty(sizes.size, np.int64)
    for size in set(sizes.tolist()):
        members = np.flatnonzero(sizes == size)
        stacks[size] = np.stack([arrays[k] for k in members], axis=1)
        column[members] = np.arange(members.size)
    totals = np.empty(first.size)
    sizes_a, sizes_b = sizes[first], sizes[second]
    for len_a, len_b in set(zip(sizes_a.tolist(), sizes_b.tolist())):
        jobs = np.flatnonzero((sizes_a == len_a) & (sizes_b == len_b))
        for part in np.array_split(jobs, -(-jobs.size // DTW_BATCH_JOBS)):
            totals[part] = _dtw_batch(stacks[len_a].take(column[first[part]], axis=1),
                                      stacks[len_b].take(column[second[part]], axis=1), config)
    out = []
    for names, runs in zip(labels, np.split(totals, np.cumsum(counts)[:-1])):
        n = len(names)
        iu, ju = np.triu_indices(n, 1)
        values = np.zeros((n, n))
        # With one direction run, the (a, b) and (b, a) costs are the same.
        values[iu, ju] = values[ju, iu] = 0.5 * (runs[:iu.size] + runs[-iu.size:])
        out.append(DistanceMatrix(names, values))
    return out


def pairwise_dtw(profiles: Mapping[str, Sequence[float]],
                 config: DtwConfig = DEFAULT_CONFIG) -> DistanceMatrix:
    """All-pairs DTW distances, symmetrized as (d(a,b) + d(b,a)) / 2.

    Labels are taken in sorted order so the matrix layout does not depend
    on dict insertion order. Every pair runs as a job of the batched kernel,
    so each entry is bitwise equal to the mean of ``dtw_distance`` both
    ways. With ``wh == wv`` the (b, a) table is the transpose of the (a, b)
    one, each cell adding the same operands, so d(b, a) is d(a, b) bit for
    bit and only the (a, b) job runs. This is the one-window case of
    ``window_dtw``.
    """
    return window_dtw([profiles], config)[0]


@dataclass(frozen=True)
class Merge:
    step: int
    cluster_a: str
    cluster_b: str
    height: float


@dataclass
class ClusterReport:
    """Flat clustering cut from an average-linkage merge sequence.

    ``assignment`` maps each original label to a cluster id 1..k; ids are
    ordered by each cluster's smallest member label. ``merges`` holds the
    full merge sequence down to one cluster, clusters being named by their
    sorted members joined with '+'.
    """

    k: int
    labels: list[str]
    assignment: dict[str, int]
    merges: list[Merge]

    def members(self, cluster_id: int) -> list[str]:
        return sorted(lab for lab, c in self.assignment.items() if c == cluster_id)


def agglomerative_cluster(dist: DistanceMatrix, k: int) -> ClusterReport:
    """Average-linkage agglomerative clustering cut at k clusters.

    The distance between clusters is the unweighted mean of all original
    cross-pair distances, kept as a matrix of cross sums that each merge
    folds together (Lance-Williams for average linkage). Merge ties pick the
    pair whose (sorted) name pair is lexicographically smallest, which pins
    the dendrogram down for tied inputs.
    """
    n = dist.n
    if not 1 <= k <= n:
        raise ContractError(f"k must be in 1..{n}, got {k}")
    sums = dist.values.copy()
    sizes = np.ones(n)
    alive = np.ones(n, dtype=bool)
    members = [[lab] for lab in dist.labels]
    names = list(dist.labels)
    heights = sums.copy()
    np.fill_diagonal(heights, np.inf)
    merges: list[Merge] = []
    cut = [list(m) for m in members] if k == n else None
    for step in range(1, n):
        h = heights.min()
        # Dead and diagonal entries hold inf too, which ties when every
        # live pair is infinitely far apart.
        tied = [(a, b) for a, b in np.argwhere(heights == h).tolist()
                if a != b and alive[a] and alive[b]]
        i, j = min(tied, key=lambda ab: sorted((names[ab[0]], names[ab[1]])))
        pair = sorted((names[i], names[j]))
        merges.append(Merge(step, pair[0], pair[1], float(h)))
        sums[i] += sums[j]
        sums[:, i] += sums[:, j]
        sizes[i] += sizes[j]
        alive[j] = False
        members[i] += members[j]
        members[j] = []
        names[i] = "+".join(sorted(members[i]))
        row = np.where(alive, sums[i] / (sizes[i] * sizes), np.inf)
        row[i] = np.inf
        heights[i] = heights[:, i] = row
        heights[j] = heights[:, j] = np.inf
        if n - step == k:
            cut = [list(m) for m in members if m]
    cluster_of: dict[str, int] = {}
    for cid, group in enumerate(sorted(cut, key=min), start=1):
        cluster_of.update((lab, cid) for lab in group)
    assignment = {lab: cluster_of[lab] for lab in dist.labels}
    return ClusterReport(k, list(dist.labels), assignment, merges)


def silhouette(dist: DistanceMatrix, assignment: Mapping[str, int]) -> tuple[dict[str, float], float]:
    """Silhouette score per sample plus the overall mean.

    a(i) is the mean distance to the sample's own cluster (excluding
    itself), b(i) the smallest mean distance to any other cluster. Samples
    in singleton clusters score 0, as does the a == b case; with a single
    cluster overall every score is 0. Rows are averaged in label order, so
    the scores do not depend on the iteration order of ``assignment``.
    """
    if set(assignment) != set(dist.labels):
        raise ContractError("assignment must cover exactly the matrix labels")
    members: dict[int, list[int]] = {}
    for i, lab in enumerate(dist.labels):
        members.setdefault(assignment[lab], []).append(i)
    scores: dict[str, float] = {}
    for i, lab in enumerate(dist.labels):
        own = assignment[lab]
        own_rows = [r for r in members[own] if r != i]
        if not own_rows or len(members) == 1:
            scores[lab] = 0.0
            continue
        a = float(dist.values[i, own_rows].mean())
        b = min(float(dist.values[i, rows].mean())
                for cid, rows in members.items() if cid != own)
        denom = max(a, b)
        scores[lab] = 0.0 if denom == 0 or a == b else (b - a) / denom
    mean = sum(scores.values()) / len(scores)
    return scores, float(mean)


def _centered_distances(x: np.ndarray) -> np.ndarray:
    d = np.abs(x[:, None] - x[None, :])
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def _dcor_centered(samples: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's double-centered distance matrix, flattened into one row
    of a stack, and each row's sum of squares, after the checks that a pair
    loop over ``samples`` would make first: equal lengths, at least 2
    values, finite values.

    Each sample is first scaled by a power of two to a largest magnitude in
    [0.5, 1). dcor is scale-invariant and power-of-two scaling is exact, so
    results are unchanged, except that samples of tiny values no longer
    underflow the variance product to zero.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in samples]
    finite = [bool(np.isfinite(a).all()) for a in arrays]
    # The first failing pair of a pair loop is always (0, k) for the first
    # failing k, and its checks run in this order.
    for a, ok in zip(arrays[1:], finite[1:]):
        if a.size != arrays[0].size:
            raise ContractError("dcor inputs must have equal length")
        if a.size < 2:
            raise SampleTooSmallError(f"dcor needs at least 2 values, got {a.size}")
        if not (finite[0] and ok):
            raise ContractError("dcor inputs must be finite")
    stack = np.stack([_centered_distances(np.ldexp(a, -np.frexp(np.abs(a).max())[1])).ravel()
                      for a in arrays])
    return stack, np.einsum("ik,ik->i", stack, stack)


def _dcor_cross(Bs: np.ndarray, As: np.ndarray) -> np.ndarray:
    """The cross terms ``sum_k Bs[p, k] * As[i, k]`` as a (p, i) array.

    Observed and permuted terms both come from here, so a permutation that
    leaves a matrix unchanged ties with the observed value exactly. einsum's
    own loop sums every entry the same way whatever rows are stacked around
    it; a BLAS product (``@``, ``np.dot``, ``einsum(optimize=...)``) does
    not, and would make results depend on the batch size and thread count.
    """
    return np.einsum("pk,ik->pi", Bs, As)


def _dcor_squared(ab: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """dcor squared from cross terms ``ab`` and the two sides' sums of
    squares, clamped to [0, 1]; a zero variance or a non-positive cross
    term scores 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.minimum(1.0, ab / np.sqrt(a2 * b2))
    return np.where((a2 > 0.0) & (b2 > 0.0) & (ab > 0.0), r2, 0.0)


def dcor(x: Sequence[float], y: Sequence[float]) -> float:
    """Distance correlation between two equal-length 1-D samples.

    Pairwise absolute-difference matrices are double-centered; dcor is
    dCov/sqrt(dVarX*dVarY), clamped to [0, 1]. A constant sample has zero
    distance variance and scores 0 against anything. The value is bitwise
    the observed dcor that ``dcor_table`` reports for the pair.
    """
    stack, squares = _dcor_centered((x, y))
    r2 = _dcor_squared(_dcor_cross(stack[1:], stack[:1]), squares[0], squares[1])
    return float(np.sqrt(r2[0, 0]))


# Matrix cells one batch of permuted matrices may hold (8 bytes each), so
# the permutation test's memory does not grow with ``n_perm``.
PERM_BATCH_CELLS = 1 << 16

# How far a permuted dcor squared may fall below the observed one and still
# count as a tie. Ties in exact arithmetic are common: in one dimension,
# swapping two values can leave the cross term unchanged. Rounding, which
# depends on the order of summation, would otherwise decide them. The
# rounding error of dcor squared is at most about n**2 * 2**-53.
DCOR_TIE = 1e-12


@dataclass(frozen=True)
class DcorResult:
    dcor: float
    p_value: float
    n_perm: int


def _dcor_tests(samples: Sequence[Sequence[float]], seed_of: Callable[[int], int | Sequence[int]],
                n_perm: int) -> tuple[np.ndarray, np.ndarray]:
    """Observed dcor and permutation p-value of ``samples[i]`` against
    ``samples[j]`` as the entries [i, j], i < j, of two square arrays.

    Permuting y and re-centering equals permuting the centered matrix's rows
    and columns together, so every sample is centered once. Each station
    j >= 1 draws ``n_perm`` permutations from seed ``seed_of(j)`` in batches
    of at most ``PERM_BATCH_CELLS`` cells: one ``permuted`` call per batch
    gives the rows that as many ``permutation`` calls would, in order. One
    flat gather builds the batch's permuted copies of j's matrix, and one
    product scores them against every i < j. A matrix's sum of squares does
    not change under permutation, so it is taken once per station.

    A draw counts as a hit when its dcor squared is at least the observed
    one less ``DCOR_TIE``. Every pair's test is an exact permutation test;
    pairs that share station j share its draws, so their p-values are
    dependent.
    """
    if n_perm < 99:
        raise ContractError(f"n_perm must be at least 99, got {n_perm}")
    if len(samples) < 2:
        raise SampleTooSmallError("distance correlation needs at least 2 profiles")
    stack, squares = _dcor_centered(samples)
    s, cells = stack.shape
    n = len(samples[0])
    batch = max(1, PERM_BATCH_CELLS // cells)
    order = np.tile(np.arange(n), (min(batch, n_perm), 1))
    observed = np.zeros((s, s))
    hits = np.zeros((s, s), dtype=np.int64)
    for j in range(1, s):
        A, a2, B = stack[:j], squares[:j], stack[j]
        observed[:j, j] = _dcor_squared(_dcor_cross(B[None], A), a2, squares[j])[0]
        rng = np.random.default_rng(seed_of(j))
        for done in range(0, n_perm, batch):
            p = rng.permuted(order[:n_perm - done], axis=1)
            Bs = B.take((p[:, :, None] * n + p[:, None, :]).reshape(len(p), cells))
            r2 = _dcor_squared(_dcor_cross(Bs, A), a2, squares[j])
            hits[:j, j] += np.count_nonzero(r2 >= observed[:j, j] - DCOR_TIE, axis=0)
    return np.sqrt(observed), (1 + hits) / (n_perm + 1)


def dcor_permutation_test(x: Sequence[float], y: Sequence[float],
                          n_perm: int = 199,
                          seed: int | Sequence[int] = 0) -> DcorResult:
    """Permutation p-value for dcor(x, y), the two-station case of the
    kernel ``dcor_table`` runs.

    y is permuted ``n_perm`` times with a generator seeded ``seed``; the
    p-value is (1 + #{dcor_perm >= dcor_observed}) / (n_perm + 1), so it can
    never be exactly zero. A permuted dcor squared within ``DCOR_TIE`` below
    the observed one counts as a tie. Fewer than 99 permutations would put the
    resolution above the usual 0.05 working level, so that is the allowed
    minimum.
    """
    observed, p = _dcor_tests((x, y), lambda j: seed, n_perm)
    return DcorResult(float(observed[0, 1]), float(p[0, 1]), n_perm)


DCOR_HEADER = ("scale", "window_label", "station_a", "station_b",
               "dcor", "p_value", "n_perm")


def dcor_table(profiles: Mapping[str, Sequence[float]], n_perm: int = 199,
               seed: Sequence[int] = (0,)) -> list[tuple[str, str, DcorResult]]:
    """``(label_a, label_b, result)`` for every pair of sorted labels, where
    pair (i, j) is ``dcor_permutation_test`` with station j permuted by the
    draws of seed ``[*seed, j]``: every station is permuted once, and its
    draws serve all its pairs with lower-sorted labels. Every profile is
    checked and centered once, and the first bad input raises what a loop
    of ``dcor_permutation_test`` over the pairs would. Fewer than 99
    permutations are rejected whatever the number of profiles, and then
    fewer than 2 profiles (``SampleTooSmallError``).
    """
    labels = sorted(profiles)
    observed, p = _dcor_tests([profiles[lab] for lab in labels],
                              lambda j: [*seed, j], n_perm)
    return [(labels[i], labels[j], DcorResult(float(observed[i, j]), float(p[i, j]), n_perm))
            for i, j in combinations(range(len(labels)), 2)]


def write_dcor_csv(path: str | Path,
                   rows: Iterable[tuple[str, str, str, str, DcorResult]]) -> None:
    """Write ``(scale, window_label, station_a, station_b, result)`` rows."""
    write_csv(path, DCOR_HEADER, ((scale, label, a, b, fmt(res.dcor), fmt(res.p_value),
                                   res.n_perm) for scale, label, a, b, res in rows))


def write_distance_csv(path: str | Path, dist: DistanceMatrix) -> None:
    """Write a labeled distance matrix; first column holds the row label.
    The rows are one block of ``write_blocks``, each distinct value
    rendered once by ``fmt_column``."""
    cells = fmt_column(dist.values.ravel())
    write_blocks(path, ["label"] + dist.labels, [csv_pieces(
        [fmt_column(np.array(dist.labels, dtype=object)),
         *(cells[j::dist.n] for j in range(dist.n))])])
