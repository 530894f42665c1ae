"""DTW, clustering, silhouette and distance correlation behavior."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

import oracles
from diurnal import (
    ClusterReport,
    ContractError,
    DistanceMatrix,
    DtwConfig,
    EmptyInputError,
    PipelineError,
    SampleTooSmallError,
    agglomerative_cluster,
    dcor,
    dcor_permutation_test,
    dcor_table,
    dtw_distance,
    pairwise_dtw,
    silhouette,
    window_dtw,
    write_panel,
)
from diurnal import similarity
from diurnal.similarity import (DCOR_TIE, METRICS, DcorResult, write_dcor_csv,
                                write_distance_csv)
from diurnal.cli import cli
from helpers import grid_panel, profile_settings, read_peak

values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
short_seq = st.lists(values, min_size=1, max_size=6)
wide_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestDtw:
    def test_worked_example(self):
        # x=[1,3,2] vs y=[2,2]: align 1-2 (seed, cost 1), 3-2 diagonally
        # (2*1), then 2-2 horizontally for free.
        assert dtw_distance([1.0, 3.0, 2.0], [2.0, 2.0]) == 2.0

    def test_single_cell_has_no_move_weight(self):
        assert dtw_distance([0.0], [3.0]) == 3.0
        assert dtw_distance([0.0], [3.0], DtwConfig(metric="squared")) == 9.0

    def test_identical_series_cost_zero(self):
        x = [0.5, -2.0, 7.0]
        assert dtw_distance(x, x) == 0.0
        assert dtw_distance(x, x, DtwConfig(lam=0.4)) == 0.0

    def test_off_diagonal_penalty_charged_per_cell(self):
        # x=[0,0], y=[0]: path (0,0) -> (1,0); the second cell sits one off
        # the diagonal, costing lam even though the local cost is zero.
        assert dtw_distance([0.0, 0.0], [0.0], DtwConfig(lam=0.25)) == 0.25

    def test_symmetric_when_weights_match(self):
        x, y = [1.0, 5.0, 2.0, 8.0], [2.0, 2.0, 6.0]
        cfg = DtwConfig(wh=1.0, wv=1.0, wd=2.0)
        assert dtw_distance(x, y, cfg) == dtw_distance(y, x, cfg)

    def test_empty_and_non_finite_rejected(self):
        with pytest.raises(EmptyInputError):
            dtw_distance([], [1.0])
        with pytest.raises(ContractError):
            dtw_distance([np.nan], [1.0])

    def test_config_validation(self):
        with pytest.raises(ContractError):
            DtwConfig(wh=0.0)
        with pytest.raises(ContractError):
            DtwConfig(lam=-0.1)
        with pytest.raises(ContractError):
            DtwConfig(metric="euclidean")

    @pytest.mark.parametrize("name", ["wh", "wv", "wd", "lam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ContractError, match=f"^DTW {name} must be finite"):
            DtwConfig(**{name: value})

    @given(short_seq, short_seq)
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle(self, x, y):
        for cfg in (DtwConfig(), DtwConfig(wh=1.0, wv=1.0, wd=1.0, lam=0.1),
                    DtwConfig(wh=2.0, wv=3.0, wd=1.0, lam=0.5, metric="squared")):
            got = dtw_distance(x, y, cfg)
            want = oracles.dtw_enumerated(x, y, cfg.wh, cfg.wv, cfg.wd, cfg.lam, cfg.metric)
            assert got == pytest.approx(want, abs=1e-9)

    def test_pairwise_sorted_symmetric(self):
        profiles = {"B": [1.0, 2.0], "A": [0.0, 0.0], "C": [5.0, 1.0, 0.0]}
        cfg = DtwConfig(wh=1.5, wv=0.5, wd=2.0)  # asymmetric on purpose
        dist = pairwise_dtw(profiles, cfg)
        assert dist.labels == ["A", "B", "C"]
        assert (dist.values == dist.values.T).all()
        assert (np.diag(dist.values) == 0.0).all()
        ab = 0.5 * (_loop(profiles["A"], profiles["B"], cfg)
                    + _loop(profiles["B"], profiles["A"], cfg))
        assert dist.get("A", "B") == ab

    def test_pairwise_needs_two(self):
        with pytest.raises(SampleTooSmallError):
            pairwise_dtw({"A": [1.0]})


def _loop(x, y, cfg):
    return oracles.dtw_loop(x, y, cfg.wh, cfg.wv, cfg.wd, cfg.lam, cfg.metric)


# One config per branch of the DTW kernel.
KERNEL_CONFIGS = {"default": DtwConfig(), "wh-ne-wv": DtwConfig(wh=0.5, wv=3.0),
                  "lam": DtwConfig(lam=0.7),
                  "squared": DtwConfig(wh=1.5, wv=1.0, wd=2.5, lam=0.2, metric="squared")}


class TestBatchedDtw:
    """``pairwise_dtw`` and ``dtw_distance`` run one batched kernel; it must
    equal the scalar dynamic program exactly, not just closely."""

    CONFIGS = (DtwConfig(), DtwConfig(wh=1.0, wv=1.5, wd=2.5, lam=0.3, metric="squared"),
               DtwConfig(wh=0.7, wv=0.7, wd=1.3, lam=0.4, metric="squared"))

    @staticmethod
    def assert_matches_scalar(profiles, cfg):
        dist = pairwise_dtw(profiles, cfg)
        for a in dist.labels:
            for b in dist.labels:
                want = 0.0 if a == b else 0.5 * (_loop(profiles[a], profiles[b], cfg)
                                                 + _loop(profiles[b], profiles[a], cfg))
                assert dist.get(a, b) == want, (a, b)

    @pytest.mark.parametrize("cfg", KERNEL_CONFIGS.values(), ids=KERNEL_CONFIGS.keys())
    def test_dtw_distance_matches_loop_each_way(self, cfg):
        rng = np.random.default_rng(7)
        for n in range(1, 31):
            for m in (1, 31 - n, n, int(rng.integers(1, 31))):
                x, y = rng.normal(0.0, 3.0, n), rng.normal(0.0, 3.0, m)
                assert dtw_distance(x, y, cfg) == _loop(x, y, cfg), (n, m)
                assert dtw_distance(y, x, cfg) == _loop(y, x, cfg), (m, n)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_random_day_profiles(self, cfg):
        rng = np.random.default_rng(5)
        profiles = {f"S{i:02d}": rng.normal(0.0, 1.0, 24) for i in range(32)}
        self.assert_matches_scalar(profiles, cfg)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_mixed_lengths(self, cfg):
        rng = np.random.default_rng(6)
        lengths = [5, 9, 1, 4, 7, 1, 24, 5, 9]
        profiles = {f"P{i}": rng.normal(0.0, 2.0, n) for i, n in enumerate(lengths)}
        self.assert_matches_scalar(profiles, cfg)

    def test_empty_and_non_finite_profiles_rejected(self):
        with pytest.raises(EmptyInputError):
            pairwise_dtw({"A": [1.0, 2.0], "B": []})
        with pytest.raises(ContractError):
            pairwise_dtw({"A": [1.0, 2.0], "B": [3.0, np.nan], "C": [0.0]})
        with pytest.raises(ContractError):
            pairwise_dtw({"A": [np.inf], "B": [1.0]})


class TestDtwSymmetry:
    """With equal side weights DTW is symmetric bit for bit, which is what
    lets ``pairwise_dtw`` run each pair in one direction only."""

    @given(st.lists(wide_values, min_size=1, max_size=30),
           st.lists(wide_values, min_size=1, max_size=30),
           st.sampled_from([0.7, 1.0, 2.5]), st.sampled_from([1.3, 2.0]))
    @profile_settings(60)
    def test_equal_side_weights_give_the_same_bits_both_ways(self, x, y, side, wd):
        for lam in (0.0, 0.7):
            for metric in METRICS:
                cfg = DtwConfig(wh=side, wv=side, wd=wd, lam=lam, metric=metric)
                assert dtw_distance(x, y, cfg).hex() == dtw_distance(y, x, cfg).hex()

    @pytest.mark.parametrize("cfg,jobs", [
        (DtwConfig(), 1), (DtwConfig(wh=0.7, wv=0.7, wd=1.3, lam=0.4, metric="squared"), 1),
        (DtwConfig(wh=1.0, wv=1.5), 2), (DtwConfig(wh=2.0, wv=0.5, lam=0.3), 2)],
        ids=["default", "equal-sides", "wh-lt-wv", "wh-gt-wv"])
    def test_jobs_per_pair(self, monkeypatch, cfg, jobs):
        columns, batch = [], similarity._dtw_batch

        def counted(x, y, config):
            columns.append(x.shape[1])
            return batch(x, y, config)

        monkeypatch.setattr(similarity, "_dtw_batch", counted)
        rng = np.random.default_rng(8)
        lengths = [24, 24, 5, 24, 1, 5, 24]
        profiles = {f"S{i}": rng.normal(0.0, 2.0, n) for i, n in enumerate(lengths)}
        pairwise_dtw(profiles, cfg)
        n = len(lengths)
        assert sum(columns) == jobs * n * (n - 1) // 2


profile_window = st.dictionaries(st.sampled_from([f"S{i}" for i in range(6)]),
                         st.lists(values, min_size=1, max_size=8), min_size=2)


class TestWindowDtw:
    """``window_dtw`` runs the station pairs of every window together, one
    kernel call per profile-length pair and job chunk. Each window's matrix
    must be ``pairwise_dtw``'s bit for bit, and a failing window must raise
    before any DTW runs."""

    @given(st.lists(profile_window, min_size=1, max_size=5), st.integers(1, 40))
    @profile_settings(60)
    def test_matches_pairwise_dtw_window_by_window(self, windows, batch):
        for cfg in KERNEL_CONFIGS.values():
            with mock.patch.object(similarity, "DTW_BATCH_JOBS", batch):
                got = window_dtw(windows, cfg)
            want = [pairwise_dtw(profiles, cfg) for profiles in windows]
            assert [d.labels for d in got] == [d.labels for d in want]
            for g, w in zip(got, want):
                assert g.values.tobytes() == w.values.tobytes()

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The job count of every ``_dtw_batch`` call."""
        calls, kernel = [], similarity._dtw_batch

        def counted(x, y, config):
            calls.append(x.shape[1])
            return kernel(x, y, config)

        monkeypatch.setattr(similarity, "_dtw_batch", counted)
        return calls

    @pytest.mark.parametrize("bad,error", [
        ({"A": [1.0]}, (SampleTooSmallError, "pairwise DTW needs at least 2 profiles")),
        ({"A": [1.0], "B": []}, (EmptyInputError, "DTW inputs must be non-empty")),
        ({"A": [np.nan], "B": [1.0]}, (ContractError, "DTW inputs must be finite"))],
        ids=["one", "empty", "nan"])
    def test_failing_window_raises_before_any_dtw_runs(self, kernel_calls, bad, error):
        good = {"A": [1.0, 2.0], "B": [0.0], "C": [3.0, 1.0]}
        with pytest.raises(error[0]) as exc:
            window_dtw([good, dict(good, B=[5.0]), bad, good])
        assert str(exc.value) == error[1]
        assert kernel_calls == []
        assert len(window_dtw([good, dict(good, B=[5.0])])) == 2
        assert kernel_calls

    def test_error_of_the_windows_iterable_raises_before_any_dtw_runs(self, kernel_calls):
        def windows():
            yield {"A": [1.0, 2.0], "B": [0.0]}
            raise ContractError("second window")

        with pytest.raises(ContractError, match="^second window$"):
            window_dtw(windows())
        assert kernel_calls == []

    @pytest.mark.parametrize("batch,weights,calls", [
        (similarity.DTW_BATCH_JOBS, "1,1,2", [72]), (10, "1,1,2", [9] * 8),
        (10, "0.5,1,2", [10] * 9 + [9] * 6)])
    def test_cluster_run_calls_the_kernel_once_per_chunk(self, tmp_path, monkeypatch,
                                                          kernel_calls, batch, weights, calls):
        # 4 stations at 30d: 12 windows of 6 pairs, all of 24-hour profiles.
        rng = np.random.default_rng(3)
        write_panel(tmp_path / "panel.csv", [
            grid_panel(rng, f"S{i}", "30d", levels=40, step=0.1, valid_rate=1.0,
                       years=range(2001, 2007)) for i in range(4)])
        monkeypatch.setattr(similarity, "DTW_BATCH_JOBS", batch)
        assert cli(["cluster", "--panel", str(tmp_path / "panel.csv"), "--out-dir",
                    str(tmp_path / "out"), "--k", "2", "--weights", weights]) == 0
        assert kernel_calls == calls

    def test_cluster_run_with_a_failing_window_runs_no_dtw(self, tmp_path, kernel_calls):
        # S1 is short of years in Jul: the windows before it are not run.
        rng = np.random.default_rng(4)
        panels = [grid_panel(rng, f"S{i}", "30d", valid_rate=1.0, years=range(2001, 2004))
                  for i in range(3)]
        panels[0].counts[0, 1:, 6, 3] = 0
        write_panel(tmp_path / "panel.csv", panels)
        assert cli(["cluster", "--panel", str(tmp_path / "panel.csv"), "--out-dir",
                    str(tmp_path / "out"), "--k", "2"]) == 1
        assert kernel_calls == []


class TestDtwKernelMemory:
    def test_working_memory_is_linear_in_the_profile_length(self):
        n, jobs = 24, 20_000
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(n, jobs)), rng.normal(size=(n, jobs))
        peak, _ = read_peak(similarity._dtw_batch, x, y, DtwConfig(lam=0.3, metric="squared"))
        # The kernel keeps six arrays of at most (n + 1) x jobs doubles; an
        # n x m x jobs cost table alone would be 24 of them.
        assert peak < 8 * (n + 1) * jobs * 8


class TestClustering:
    @pytest.fixture
    def toy_matrix(self):
        #   A    B    C    D
        # clear two-pair structure: {A,B} tight, {C,D} tight, far apart.
        labels = ["A", "B", "C", "D"]
        m = np.array([
            [0.0, 1.0, 8.0, 9.0],
            [1.0, 0.0, 7.0, 8.5],
            [8.0, 7.0, 0.0, 1.5],
            [9.0, 8.5, 1.5, 0.0],
        ])
        return DistanceMatrix(labels, m)

    def test_merge_sequence_and_heights(self, toy_matrix):
        rep = agglomerative_cluster(toy_matrix, 2)
        steps = [(m.cluster_a, m.cluster_b, m.height) for m in rep.merges]
        assert steps[0] == ("A", "B", 1.0)
        assert steps[1] == ("C", "D", 1.5)
        assert steps[2] == ("A+B", "C+D", pytest.approx((8.0 + 9.0 + 7.0 + 8.5) / 4.0))
        assert rep.assignment == {"A": 1, "B": 1, "C": 2, "D": 2}
        assert rep.members(2) == ["C", "D"]

    def test_cluster_ids_ordered_by_smallest_member(self, toy_matrix):
        rep = agglomerative_cluster(toy_matrix, 3)
        # clusters at k=3: {A,B}, {C}, {D} -> ids by min label
        assert rep.assignment == {"A": 1, "B": 1, "C": 2, "D": 3}

    def test_tie_broken_lexicographically(self):
        labels = ["C", "A", "B"]
        m = np.array([[0.0, 1.0, 1.0],
                      [1.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0]])
        rep = agglomerative_cluster(DistanceMatrix(labels, m), 1)
        assert (rep.merges[0].cluster_a, rep.merges[0].cluster_b) == ("A", "B")
        assert (rep.merges[1].cluster_a, rep.merges[1].cluster_b) == ("A+B", "C")

    def test_k_bounds(self, toy_matrix):
        with pytest.raises(ContractError):
            agglomerative_cluster(toy_matrix, 0)
        with pytest.raises(ContractError):
            agglomerative_cluster(toy_matrix, 5)
        rep = agglomerative_cluster(toy_matrix, 4)
        assert sorted(rep.assignment.values()) == [1, 2, 3, 4]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_block_mean_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 1.0, (25, 3))
        m = np.abs(pts[:, None] - pts[None, :]).sum(axis=2)
        labels = [f"S{i:02d}" for i in rng.permutation(25)]
        rep = agglomerative_cluster(DistanceMatrix(labels, m), 3)
        want = oracles.average_linkage_blockmean(labels, m.tolist())
        assert [(g.cluster_a, g.cluster_b) for g in rep.merges] == [w[:2] for w in want]
        np.testing.assert_allclose([g.height for g in rep.merges], [w[2] for w in want],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_ties_match_block_mean_oracle(self, seed):
        # Integer distances in {1, 2, 3}: sums and means are exact, so the
        # many tied heights are equal in both implementations and only the
        # name tie-break decides.
        rng = np.random.default_rng(seed)
        n = 16
        m = np.triu(rng.integers(1, 4, (n, n)).astype(float), 1)
        m = m + m.T
        labels = [f"L{i:02d}" for i in rng.permutation(n)]
        rep = agglomerative_cluster(DistanceMatrix(labels, m), 2)
        want = oracles.average_linkage_blockmean(labels, m.tolist())
        assert [(g.cluster_a, g.cluster_b, g.height) for g in rep.merges] == want

    def test_infinite_distances_merge_last(self):
        labels = ["a", "b", "c", "d", "e"]
        m = np.full((5, 5), np.inf)
        m[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        m[2:, 2:] = [[0.0, 2.0, 3.0], [2.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
        rep = agglomerative_cluster(DistanceMatrix(labels, m), 1)
        want = oracles.average_linkage_blockmean(labels, m.tolist())
        assert [(g.cluster_a, g.cluster_b, g.height) for g in rep.merges] == want
        assert want[-1] == ("a+b", "c+d+e", np.inf)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_scipy_average_linkage(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 1.0, (9, 3))
        condensed = np.array([np.abs(pts[i] - pts[j]).sum()
                              for i in range(9) for j in range(i + 1, 9)])
        labels = [f"S{i}" for i in range(9)]
        dist = DistanceMatrix(labels, squareform(condensed))
        rep = agglomerative_cluster(dist, k)
        flat = fcluster(linkage(condensed, method="average"), t=k, criterion="maxclust")
        mine = {frozenset(rep.members(c)) for c in set(rep.assignment.values())}
        theirs: dict[int, set] = {}
        for lab, cid in zip(labels, flat):
            theirs.setdefault(cid, set()).add(lab)
        assert mine == {frozenset(v) for v in theirs.values()}
        heights = sorted(m.height for m in rep.merges)
        np.testing.assert_allclose(heights, np.sort(linkage(condensed, "average")[:, 2]),
                                   rtol=1e-9)


class TestSilhouette:
    def test_hand_worked_four_points(self):
        labels = ["p0", "p1", "p10", "p11"]
        xs = {"p0": 0.0, "p1": 1.0, "p10": 10.0, "p11": 11.0}
        m = np.array([[abs(xs[a] - xs[b]) for b in labels] for a in labels])
        dist = DistanceMatrix(labels, m)
        assignment = {"p0": 1, "p1": 1, "p10": 2, "p11": 2}
        scores, mean = silhouette(dist, assignment)
        assert scores["p0"] == pytest.approx(9.5 / 10.5, abs=1e-12)
        assert scores["p1"] == pytest.approx(8.5 / 9.5, abs=1e-12)
        assert mean == pytest.approx(0.899750, abs=1e-6)

    def test_singletons_score_zero(self):
        labels = ["a", "b", "c"]
        m = np.array([[0.0, 2.0, 9.0], [2.0, 0.0, 7.0], [9.0, 7.0, 0.0]])
        scores, _ = silhouette(DistanceMatrix(labels, m), {"a": 1, "b": 1, "c": 2})
        assert scores["c"] == 0.0

    def test_single_cluster_scores_zero(self):
        labels = ["a", "b"]
        m = np.array([[0.0, 3.0], [3.0, 0.0]])
        scores, mean = silhouette(DistanceMatrix(labels, m), {"a": 1, "b": 1})
        assert scores == {"a": 0.0, "b": 0.0} and mean == 0.0

    def test_equal_a_and_b_scores_zero(self):
        labels = ["a", "b", "c", "d"]
        m = np.ones((4, 4)) - np.eye(4)
        scores, mean = silhouette(DistanceMatrix(labels, m),
                                  {"a": 1, "b": 1, "c": 2, "d": 2})
        assert mean == 0.0

    def test_assignment_must_cover_labels(self):
        dist = DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ContractError):
            silhouette(dist, {"a": 1})

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 2.0, 12)
        labels = [f"s{i}" for i in range(12)]
        m = np.abs(pts[:, None] - pts[None, :])
        dist = DistanceMatrix(labels, m)
        assignment = {lab: int(rng.integers(1, 4)) for lab in labels}
        scores, _ = silhouette(dist, assignment)
        lookup = dict(zip(labels, pts))
        want = oracles.silhouette_loops(labels, lambda a, b: abs(lookup[a] - lookup[b]),
                                        assignment)
        for lab in labels:
            assert scores[lab] == pytest.approx(want[lab], abs=1e-12)


_HASH_SEED_SCRIPT = """
import numpy as np
from diurnal import DistanceMatrix, agglomerative_cluster, silhouette
rng = np.random.default_rng(2024)
pts = rng.normal(0.0, 1.0, (40, 6))
m = np.abs(pts[:, None] - pts[None, :]).sum(axis=2)
dist = DistanceMatrix([f"S{i:02d}" for i in range(40)], m)
rep = agglomerative_cluster(dist, 4)
scores, mean = silhouette(dist, rep.assignment)
print(repr([g.height for g in rep.merges]), repr(scores), repr(mean))
"""


def test_cluster_and_silhouette_independent_of_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1


class TestDcor:
    def test_cancellation_case(self):
        assert dcor([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]) == 0.0

    def test_perfect_affine_dependence(self):
        x = [1.0, 4.0, 2.0, 9.0, 5.0]
        y = [2.0 * v + 1.0 for v in x]
        assert dcor(x, y) == pytest.approx(1.0, abs=1e-12)
        y_neg = [-3.0 * v for v in x]
        assert dcor(x, y_neg) == pytest.approx(1.0, abs=1e-12)

    def test_constant_sample_scores_zero(self):
        assert dcor([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == 0.0

    def test_symmetry(self):
        x = [1.0, 3.0, 2.0, 8.0]
        y = [0.0, 1.0, 5.0, 2.0]
        assert dcor(x, y) == dcor(y, x)

    def test_input_validation(self):
        with pytest.raises(ContractError):
            dcor([1.0, 2.0], [1.0])
        with pytest.raises(SampleTooSmallError):
            dcor([1.0], [1.0])
        with pytest.raises(ContractError):
            dcor([1.0, np.inf], [1.0, 2.0])

    def test_tiny_values_do_not_underflow(self):
        # The variance product of these samples is below the smallest
        # double, which once raised ZeroDivisionError.
        tiny = [0.0, 4.149396238913565e-148]
        assert dcor(tiny, tiny) == 1.0
        x, y = [1.0, 3.0, 2.0, 8.0], [0.0, 1.0, 5.0, 2.0]
        assert dcor([v * 2.0 ** -600 for v in x], y) == dcor(x, y)

    @given(st.lists(values, min_size=2, max_size=12),
           st.lists(values, min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_range_and_oracle(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        got = dcor(x, y)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(oracles.dcor_loops(x, y), abs=1e-9)

    def test_permutation_test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 24)
        y = 0.5 * x + rng.normal(0.0, 1.0, 24)
        r1 = dcor_permutation_test(x, y, n_perm=199, seed=42)
        r2 = dcor_permutation_test(x, y, n_perm=199, seed=42)
        assert r1 == r2
        r3 = dcor_permutation_test(x, y, n_perm=199, seed=43)
        assert r3.dcor == r1.dcor  # observed statistic ignores the seed

    def test_permutation_p_floor_for_perfect_dependence(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, 30)
        res = dcor_permutation_test(x, 2.0 * x, n_perm=199, seed=0)
        assert res.dcor == pytest.approx(1.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0 / 200.0)

    def test_permutation_p_large_for_independent_noise(self):
        rng = np.random.default_rng(12)
        res = dcor_permutation_test(rng.normal(size=40), rng.normal(size=40),
                                    n_perm=199, seed=1)
        assert res.p_value > 0.05

    def test_minimum_permutations_enforced(self):
        with pytest.raises(ContractError, match="99"):
            dcor_permutation_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], n_perm=50)


def _assert_matches(got: DcorResult, want: DcorResult) -> None:
    """The same p-value bit for bit and a dcor squared within ``DCOR_TIE``:
    the kernel sums the cross terms in einsum's order, the loop takes their
    mean. The square is compared, as its rounding is what ``DCOR_TIE``
    bounds: near an exact zero, an error of 1e-17 in dcor squared is one of
    3e-9 in dcor."""
    assert (got.p_value, got.n_perm) == (want.p_value, want.n_perm)
    assert got.dcor ** 2 == pytest.approx(want.dcor ** 2, abs=DCOR_TIE)


def _assert_same_table(got, want) -> None:
    """The same pairs in the same order, each matching as ``_assert_matches``."""
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
    for (_, _, res), (_, _, ref) in zip(got, want):
        _assert_matches(res, ref)


class TestBatchedPermutations:
    """The batched permutation test against the one-permutation loop: the
    same draws in the same order, so the same p-value bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.sampled_from([None, 0, 1]),
           st.integers(99, 260))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop(self, seed, n, decimals, n_perm):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), 0.3 * rng.normal(size=n)
        if decimals is not None:  # ties
            x, y = np.round(x, decimals), np.round(y + 0.5 * x, decimals)
        got = dcor_permutation_test(x, y, n_perm=n_perm, seed=[seed, 1])
        _assert_matches(got, oracles.dcor_permutation_loop(x, y, n_perm, [seed, 1]))

    def test_constant_profile_p_is_one(self):
        res = dcor_permutation_test(np.full(24, 3.5), np.arange(24.0), n_perm=199, seed=2)
        assert res == DcorResult(0.0, 1.0, 199)
        assert res == oracles.dcor_permutation_loop(np.full(24, 3.5), np.arange(24.0), 199, 2)

    @pytest.mark.parametrize("batch", [1, 7, 113, 500])
    @pytest.mark.parametrize("n_perm", [99, 199, 250])
    def test_batch_size_does_not_matter(self, monkeypatch, batch, n_perm):
        # batch = 113 is what 24-hour profiles get from the default budget.
        rng = np.random.default_rng(batch + n_perm)
        x = rng.normal(size=24)
        y = x + rng.normal(size=24)
        monkeypatch.setattr(similarity, "PERM_BATCH_CELLS", batch * 24 * 24)
        got = dcor_permutation_test(x, y, n_perm=n_perm, seed=[5, 0, 1, 2])
        _assert_matches(got, oracles.dcor_permutation_loop(x, y, n_perm, [5, 0, 1, 2]))

    def test_table_matches_pair_loop(self):
        rng = np.random.default_rng(9)
        profiles = {sid: rng.normal(size=24) for sid in ("S4", "S1", "S3", "S2", "S5")}
        got = dcor_table(profiles, n_perm=199, seed=[7, 3])
        _assert_same_table(got, oracles.dcor_table_loop(profiles, 199, [7, 3]))
        assert [(a, b) for a, b, _ in got][:4] == [("S1", "S2"), ("S1", "S3"),
                                                   ("S1", "S4"), ("S1", "S5")]

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "dcor.csv"
        write_dcor_csv(path, [("30d", "Jan", "a,b", "S2", DcorResult(0.5, 0.005, 199)),
                              ("30d", "Jan", "S2", "S3", DcorResult(1 / 3, 1.0, 199))])
        assert path.read_bytes() == (
            b"scale,window_label,station_a,station_b,dcor,p_value,n_perm\r\n"
            b'30d,Jan,"a,b",S2,0.5,0.005,199\r\n'
            b"30d,Jan,S2,S3,0.3333333333333333,1.0,199\r\n")


def _outcome(fn, *args):
    """A call's result, or the type and message of the pipeline error it
    raised."""
    try:
        return "ok", fn(*args)
    except PipelineError as exc:
        return "error", type(exc), str(exc)


# How a station's profile is broken: its middle value set to NaN or an
# infinity, one value short or one value too many; None keeps it as drawn.
BAD_PROFILES = [None, None, None, np.nan, np.inf, -np.inf, "short", "long"]


@st.composite
def dcor_profiles(draw, max_stations=8, lengths=st.integers(2, 30)):
    """2-8 stations' profiles of one length, in shuffled label order: mixes
    of a shared signal and noise, rounded now and then (ties), and now and
    then a constant profile."""
    n = draw(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = rng.normal(size=n)
    decimals = draw(st.sampled_from([None, 0, 1]))
    profiles = {}
    for k in draw(st.permutations(range(draw(st.integers(2, max_stations))))):
        if draw(st.integers(0, 5)) == 0:
            x = np.full(n, draw(st.sampled_from([0.0, 3.5, -1e-3])))
        else:
            x = draw(st.floats(-1, 1)) * shared + rng.normal(size=n)
        profiles[f"S{k}"] = x if decimals is None else np.round(x, decimals)
    return profiles


class TestDcorKernel:
    """``dcor_table`` against the pair loop of one-permutation tests in which
    pair (i, j) permutes station j with the draws of seed ``[*seed, j]``,
    the numpy draw equivalence that the kernel rests on, and the kernel's
    own properties."""

    @given(n=st.integers(1, 200), k=st.integers(1, 130),
           seed=st.one_of(st.integers(0, 2**64 - 1),
                          st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4)))
    @profile_settings(60)
    def test_permuted_rows_are_sequential_permutations(self, n, k, seed):
        batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batched.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
        want = np.stack([sequential.permutation(n) for _ in range(k)])
        assert np.array_equal(got, want)
        assert batched.bit_generator.state == sequential.bit_generator.state

    @given(profiles=dcor_profiles(), n_perm=st.integers(99, 260),
           seed=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
           rows=st.one_of(st.none(), st.integers(1, 98)))
    # A dcor squared of exactly 0 that the loop rounds to about 1e-17.
    @example(profiles={"S1": np.array([0.0, 0, 1, -1, -1, 1]),
                       "S3": np.array([-1.0, -0.0, 0, 0, -1, -1])},
             n_perm=99, seed=[0], rows=None)
    @profile_settings(30)
    def test_table_matches_pair_loop(self, profiles, n_perm, seed, rows):
        # ``rows`` permutations per batch splits every station over batches.
        n = len(next(iter(profiles.values())))
        cells = similarity.PERM_BATCH_CELLS if rows is None else rows * n * n
        with mock.patch.object(similarity, "PERM_BATCH_CELLS", cells):
            got = dcor_table(profiles, n_perm=n_perm, seed=seed)
        _assert_same_table(got, oracles.dcor_table_loop(profiles, n_perm, seed))

    @given(profiles=dcor_profiles(max_stations=6, lengths=st.integers(0, 6)),
           bad=st.lists(st.sampled_from(BAD_PROFILES), min_size=6, max_size=6),
           n_perm=st.sampled_from([98, 99]))
    @profile_settings(60)
    def test_first_bad_profile_raises_as_the_pair_loop(self, profiles, bad, n_perm):
        for (label, x), how in zip(sorted(profiles.items()), bad):
            if how == "short":
                profiles[label] = x[:-1]
            elif how == "long":
                profiles[label] = np.append(x, 1.0)
            elif how is not None and x.size:
                profiles[label] = np.where(np.arange(x.size) == x.size // 2, how, x)
        got = _outcome(dcor_table, profiles, n_perm, [4])
        want = _outcome(oracles.dcor_table_loop, profiles, n_perm, [4])
        assert got[0] == want[0]
        if got[0] == "ok":
            _assert_same_table(got[1], want[1])
        else:
            assert got == want

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "long"])
    def test_bad_profile_at_any_position(self, position, bad):
        rng = np.random.default_rng(position)
        profiles = {f"S{k}": rng.normal(size=5) for k in range(4)}
        x = profiles[f"S{position}"]
        profiles[f"S{position}"] = {"nan": np.append(x[:4], np.nan),
                                    "inf": np.append(np.inf, x[1:]),
                                    "short": x[:4], "long": np.append(x, 0.5)}[bad]
        want = _outcome(oracles.dcor_table_loop, profiles, 99, [2])
        assert want[:2] == ("error", ContractError)
        assert _outcome(dcor_table, profiles, 99, [2]) == want

    def test_one_station_has_no_pairs(self):
        assert dcor_table({"S1": [np.nan]}, n_perm=99) == []
        assert dcor_table({}, n_perm=99) == []

    @pytest.mark.parametrize("stations", range(4))
    def test_too_few_permutations_rejected_at_any_station_count(self, stations):
        profiles = {f"S{k}": [1.0, 2.0, 4.0] for k in range(stations)}
        with pytest.raises(ContractError, match="at least 99, got 5"):
            dcor_table(profiles, n_perm=5)

    @given(profiles=dcor_profiles(), seed=st.lists(st.integers(0, 2**32 - 1), max_size=2))
    @profile_settings(40)
    def test_pair_is_the_two_station_case(self, profiles, seed):
        # dcor() and dcor_permutation_test() run the table's own kernel on
        # the pair, with station j's seed, so they agree bit for bit.
        labels = sorted(profiles)
        for a, b, res in dcor_table(profiles, n_perm=99, seed=seed):
            x, y = profiles[a], profiles[b]
            assert dcor(x, y) == res.dcor
            assert dcor_permutation_test(x, y, 99, [*seed, labels.index(b)]) == res

    @pytest.mark.parametrize("rows", [1, 7, 113, 500])
    def test_batch_rows_do_not_change_the_table(self, monkeypatch, rows):
        # A BLAS product sums a row differently inside a larger stack.
        rng = np.random.default_rng(21)
        shared = rng.normal(size=24)
        profiles = {f"S{k}": np.round(rng.uniform(-1, 1) * shared + rng.normal(size=24), k % 3)
                    for k in range(9)}
        profiles["S9"] = np.full(24, 2.5)
        want = repr(dcor_table(profiles, n_perm=250, seed=[3]))
        monkeypatch.setattr(similarity, "PERM_BATCH_CELLS", rows * 24 * 24)
        assert repr(dcor_table(profiles, n_perm=250, seed=[3])) == want

    @pytest.mark.parametrize("n", [3, 24, 400])
    def test_permuted_stack_stays_within_budget(self, monkeypatch, n):
        stacks = []

        def cross(Bs, As):
            stacks.append(Bs.shape)
            return np.einsum("pk,ik->pi", Bs, As)

        monkeypatch.setattr(similarity, "_dcor_cross", cross)
        rng = np.random.default_rng(n)
        dcor_table({f"S{k}": rng.normal(size=n) for k in range(4)}, n_perm=199)
        # Stations 1-3 each score their observed matrix and 199 permuted ones.
        assert sum(rows for rows, _ in stacks) == 3 * (1 + 199)
        assert max(rows * cells for rows, cells in stacks) <= max(similarity.PERM_BATCH_CELLS,
                                                                 n * n)

    def test_every_draw_ties_on_length_two_or_constant_profiles(self):
        rng = np.random.default_rng(4)
        two = dcor_table({f"S{k}": rng.normal(size=2) for k in range(5)}, n_perm=199, seed=[1])
        assert {res.p_value for _, _, res in two} == {1.0}
        profiles = {f"S{k}": rng.normal(size=24) for k in range(4)}
        profiles["S2"] = np.full(24, -0.7)
        for a, b, res in dcor_table(profiles, n_perm=199, seed=[1]):
            if "S2" in (a, b):
                assert res == DcorResult(0.0, 1.0, 199)

    def test_p_values_roughly_uniform_for_independent_profiles(self):
        p = np.array([res.p_value for seed in range(3) for _, _, res in dcor_table(
            {f"S{k}": np.random.default_rng([seed, k]).normal(size=24) for k in range(12)},
            n_perm=199, seed=[seed])])
        assert p.size == 3 * 66
        assert 0.4 <= p.mean() <= 0.6
        assert np.mean(p <= 0.05) <= 0.12
        assert 0.3 <= np.mean(p <= 0.5) <= 0.7

    def test_p_values_small_for_a_shared_signal(self):
        p = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            shared = rng.normal(size=24)
            p += [res.p_value for _, _, res in dcor_table(
                {f"S{k}": shared + 0.5 * rng.normal(size=24) for k in range(8)},
                n_perm=199, seed=[seed])]
        assert len(p) == 3 * 28
        assert np.median(p) == 1 / 200
        assert np.mean(np.array(p) <= 0.05) >= 0.9


class TestDistanceCsv:
    def test_written_bytes(self, tmp_path):
        third = 1 / 3
        dist = DistanceMatrix(["s0", "a,b", "s2"], np.array(
            [[0.0, third, 1e-05], [third, 0.0, 2.5], [1e-05, 2.5, 0.0]]))
        path = tmp_path / "d.csv"
        write_distance_csv(path, dist)
        assert path.read_bytes() == (
            b'label,s0,"a,b",s2\r\n'
            b"s0,0.0,0.3333333333333333,1e-05\r\n"
            b'"a,b",0.3333333333333333,0.0,2.5\r\n'
            b"s2,1e-05,2.5,0.0\r\n")

    @given(st.lists(st.text(st.sampled_from('ab ,"\n\ré'), max_size=4), min_size=1,
                    max_size=6, unique=True),
           st.lists(st.sampled_from([0.0, -0.0, 1 / 3, 1e-05, 2.5, 1e16, np.inf]),
                    min_size=36, max_size=36))
    @profile_settings(60)
    def test_bytes_match_row_writer(self, tmp_path, labels, draws):
        n = len(labels)
        values = np.array(draws[:n * n]).reshape(n, n)
        lower = np.tril_indices(n, -1)
        values[lower] = values.T[lower]
        write_distance_csv(tmp_path / "new.csv", DistanceMatrix(labels, values))
        oracles.write_distance_rows(tmp_path / "old.csv", labels, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_matrix_validation(self):
        with pytest.raises(ContractError, match="symmetric"):
            DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ContractError, match="unique"):
            DistanceMatrix(["a", "a"], np.zeros((2, 2)))
