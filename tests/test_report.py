"""Binning, tables, radar sheets and the synthetic generator."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diurnal import (
    ContractError,
    EmptyInputError,
    Region,
    StationGroup,
    StationMeta,
    TrendTable,
    bin_cell,
    cluster_table,
    contour_grid,
    radar_sheet,
    synth_station,
    time_fields,
)
from diurnal.report import (
    P_BANDS,
    SLOPE_BANDS,
    read_cluster_csv,
    write_cluster_csv,
    write_contour_csv,
    write_merges_csv,
    write_radar_csv,
)
from diurnal.similarity import ClusterReport, Merge
from helpers import HALF_HOUR, HOUR


class TestBinCell:
    def test_band_labels_exact(self):
        assert SLOPE_BANDS == ("(-1.0, -0.03]", "(-0.03, 0.0]", "(0.0, 0.03]", "(0.03, 1.0]")
        assert P_BANDS == ("(0.001, 0.05]", "(0.05, 0.10]", "(0.10, 1]")

    @pytest.mark.parametrize("slope,band", [
        (-5.0, 0), (-1.0, 0), (-0.031, 0), (-0.03, 0),
        (-0.029, 1), (-1e-9, 1), (0.0, 1),
        (1e-9, 2), (0.029, 2), (0.03, 2),
        (0.0301, 3), (1.0, 3), (5.0, 3),
    ])
    def test_slope_bands_left_exclusive(self, slope, band):
        assert bin_cell(slope, 0.5)[0] == SLOPE_BANDS[band]

    @pytest.mark.parametrize("p,band", [
        (0.0, 0), (0.0005, 0), (0.001, 0), (0.04, 0), (0.05, 0),
        (0.0501, 1), (0.10, 1),
        (0.100001, 2), (0.5, 2), (1.0, 2),
    ])
    def test_p_bands_with_clamping(self, p, band):
        assert bin_cell(0.0, p)[1] == P_BANDS[band]

    @pytest.mark.parametrize("slope,p", [
        (np.nan, 0.5), (0.0, np.nan), (0.0, -0.1), (0.0, 1.5), (np.inf, 0.5),
    ])
    def test_invalid_inputs(self, slope, p):
        with pytest.raises(ContractError):
            bin_cell(slope, p)

    @given(st.floats(-2.0, 2.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_every_cell_lands_in_one_band_pair(self, slope, p):
        slope_band, p_band = bin_cell(slope, p)
        assert slope_band in SLOPE_BANDS and p_band in P_BANDS


def _cell(sid, label, hour, slope, p, scale="30d"):
    return (sid, scale, label, hour, 10, 20, 125.0, 1.7, p, slope, 0.1, False)


def _table(cells):
    """A trend table of row tuples."""
    return TrendTable(*zip(*cells))


class TestContourGrid:
    def test_groups_and_orders_cells(self):
        cells = [
            _cell("S2", "Feb", 0, 0.05, 0.01),
            _cell("S1", "Dec", 23, -0.2, 0.5),
            _cell("S1", "Jan", 2, 0.01, 0.07),
        ]
        grid = contour_grid(_table(cells))
        assert grid.station_id.tolist() == ["S1", "S1", "S2"]
        assert list(zip(grid.window_label.tolist(), grid.hour.tolist())) == [
            ("Jan", 2), ("Dec", 23), ("Feb", 0)]
        assert grid.sen_slope.tolist() == [0.01, -0.2, 0.05]
        assert grid.p_value.tolist() == [0.07, 0.5, 0.01]
        assert [SLOPE_BANDS[i] for i in grid.slope_band] == [
            "(0.0, 0.03]", "(-1.0, -0.03]", "(0.03, 1.0]"]
        assert [P_BANDS[i] for i in grid.p_band] == [
            "(0.05, 0.10]", "(0.10, 1]", "(0.001, 0.05]"]

    def test_bands_match_bin_cell(self):
        edges = [-5.0, -1.0, -0.03, -0.029, -0.0, 0.0, 1e-9, 0.03, 0.0301, 1.0, 5.0]
        ps = [0.0, 0.001, 0.05, 0.0501, 0.10, 0.100001, 1.0]
        cells = [_cell("S1", "Jan", h, slope, p)
                 for h, (slope, p) in enumerate(zip(edges * len(ps), ps * len(edges)))]
        grid = contour_grid(_table(cells[:24]))
        assert [(SLOPE_BANDS[i], P_BANDS[j]) for i, j in zip(grid.slope_band, grid.p_band)] == [
            bin_cell(c[9], c[8]) for c in cells[:24]]

    @pytest.mark.parametrize("slope,p,message", [
        (np.inf, 0.5, "sen_slope must be finite"),
        (0.0, 1.5, "p_value 1.5 out of [0, 1]"),
        (0.0, np.nan, "p_value nan out of [0, 1]"),
    ])
    def test_first_bad_cell_raises_as_bin_cell(self, slope, p, message):
        cells = [_cell("S2", "Jan", 0, np.nan, 0.5), _cell("S1", "Feb", 0, 0.0, -1.0),
                 _cell("S1", "Jan", 3, slope, p)]
        with pytest.raises(ContractError) as exc:
            contour_grid(_table(cells))
        assert str(exc.value) == message

    def test_mixed_scales_rejected(self):
        cells = [_cell("S2", "Feb", 0, 0.0, 0.5),
                 _cell("S1", "Jan", 0, 0.0, 0.5),
                 _cell("S2", "Feb-Mar", 0, 0.0, 0.5, scale="60db"),
                 _cell("S1", "Jan-Feb", 0, 0.0, 0.5, scale="60da")]
        with pytest.raises(ContractError, match="^station S2 mixes scales"):
            contour_grid(_table(cells))

    def test_csv_deterministic(self, tmp_path):
        cells = [_cell("S1", "Jan", h, 0.01 * h - 0.1, 0.05) for h in range(24)]
        write_contour_csv(tmp_path / "a.csv", contour_grid(_table(cells)))
        write_contour_csv(tmp_path / "b.csv", contour_grid(_table(reversed(cells))))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.fixture
def small_clustering():
    report = ClusterReport(
        k=2,
        labels=["AL1", "UK1", "UK2"],
        assignment={"UK1": 2, "UK2": 2, "AL1": 1},
        merges=[Merge(1, "UK1", "UK2", 0.5), Merge(2, "AL1", "UK1+UK2", 3.0)],
    )
    scores = {"UK1": 0.8, "UK2": 0.75, "AL1": 0.0}
    meta = {
        "UK1": StationMeta("UK1", "Moor Top", StationGroup.UKH, Region.UK, 54.0, -2.0, 700.0),
        "UK2": StationMeta("UK2", "Vale", StationGroup.UKL, Region.UK, 52.0, -1.0, 60.0),
        "AL1": StationMeta("AL1", "Colle", StationGroup.IH, Region.PIEMONTE, 45.0, 7.0, 1900.0),
    }
    return report, scores, meta


class TestClusterTable:
    def test_layout(self, small_clustering):
        report, scores, meta = small_clustering
        text = cluster_table(report, scores, meta)
        lines = text.splitlines()
        assert lines[0] == "Cluster i (n=1, mean silhouette 0.000)"
        assert lines[1].startswith("  AL1") and "IH" in lines[1] and "Piemonte" in lines[1]
        assert lines[2] == "Cluster ii (n=2, mean silhouette 0.775)"
        assert "+0.800" in lines[3]

    def test_missing_metadata_shows_dashes(self, small_clustering):
        report, scores, _ = small_clustering
        text = cluster_table(report, scores, None)
        assert " - " in text.splitlines()[1]

    def test_cluster_csv_round_trip(self, small_clustering, tmp_path):
        report, scores, _ = small_clustering
        path = tmp_path / "clusters.csv"
        write_cluster_csv(path, report, scores)
        back = read_cluster_csv(path)
        assert back == {"AL1": (1, 0.0), "UK1": (2, 0.8), "UK2": (2, 0.75)}

    def test_merges_csv(self, small_clustering, tmp_path):
        report, _, _ = small_clustering
        path = tmp_path / "merges.csv"
        write_merges_csv(path, report.merges)
        text = path.read_text()
        assert text.splitlines()[0] == "step,clusterA,clusterB,height"
        assert text.splitlines()[1] == "1,UK1,UK2,0.5"


class TestRadarSheet:
    def test_rows_grouped_by_month_cluster_region(self, small_clustering):
        _, _, meta = small_clustering
        monthly = {
            "Feb": {"UK1": (1, 0.4), "UK2": (1, 0.6), "AL1": (2, 0.3)},
            "Jan": {"UK1": (1, 0.5), "UK2": (2, 0.2), "AL1": (2, 0.1)},
        }
        sheet = radar_sheet(monthly, meta)
        rows = [(r.month, r.cluster, r.region, r.mean_silhouette, r.count)
                for r in sheet.rows]
        assert rows == [
            ("Jan", 1, "UK", 0.5, 1),
            ("Jan", 2, "Piemonte", 0.1, 1),
            ("Jan", 2, "UK", 0.2, 1),
            ("Feb", 1, "UK", pytest.approx(0.5), 2),
            ("Feb", 2, "Piemonte", 0.3, 1),
        ]

    def test_unknown_month_rejected(self, small_clustering):
        _, _, meta = small_clustering
        with pytest.raises(ContractError, match="month"):
            radar_sheet({"January": {"UK1": (1, 0.5)}}, meta)

    def test_station_missing_from_metadata(self, small_clustering):
        _, _, meta = small_clustering
        with pytest.raises(ContractError, match="metadata"):
            radar_sheet({"Jan": {"XX9": (1, 0.5)}}, meta)

    def test_empty_rejected(self, small_clustering):
        _, _, meta = small_clustering
        with pytest.raises(EmptyInputError):
            radar_sheet({}, meta)

    def test_csv_layout(self, small_clustering, tmp_path):
        _, _, meta = small_clustering
        sheet = radar_sheet({"Mar": {"UK1": (1, 0.25)}}, meta)
        write_radar_csv(tmp_path / "radar.csv", sheet)
        assert (tmp_path / "radar.csv").read_bytes() == (
            b"month,cluster,region,mean_silhouette,count\r\n"
            b"Mar,1,UK,0.25,1\r\n")


class TestSynthStation:
    def test_closed_form_surface(self):
        s = synth_station("S1", datetime(2001, 1, 1), n_years=1, base=10.0,
                          diurnal_amplitude=5.0, annual_amplitude=0.0)
        assert s.n == 365 * 24
        assert not s.missing.any()
        hours = np.arange(s.n) % 24
        expected = 10.0 + 5.0 * np.sin(2.0 * np.pi * hours / 24.0)
        np.testing.assert_allclose(s.values, expected, rtol=1e-12)

    def test_trend_component(self):
        s = synth_station("S1", datetime(2000, 1, 1), n_years=3, base=0.0,
                          diurnal_amplitude=0.0, trend_per_year=0.25)
        years, _, _, _ = time_fields(s.index64())
        np.testing.assert_allclose(s.values, 0.25 * (years - 2000), atol=1e-12)

    def test_annual_component_peaks_in_spring(self):
        s = synth_station("S1", datetime(2001, 1, 1), n_years=1, base=0.0,
                          diurnal_amplitude=0.0, annual_amplitude=8.0)
        # sin peaks a quarter year in, around day 91
        peak_slot = int(np.argmax(s.values))
        assert abs(peak_slot / 24.0 - 365.25 / 4.0) < 2.0

    def test_half_hour_step(self):
        s = synth_station("S1", datetime(2001, 1, 1), n_years=1, step=HALF_HOUR,
                          base=0.0, diurnal_amplitude=24.0, annual_amplitude=0.0)
        assert s.n == 365 * 48
        assert s.values[1] == pytest.approx(24.0 * np.sin(2.0 * np.pi * 0.5 / 24.0))

    def test_leap_year_has_feb_29(self):
        s = synth_station("S1", datetime(2004, 1, 1), n_years=1)
        assert s.n == 366 * 24
        _, months, days, _ = time_fields(s.index64())
        assert ((months == 2) & (days == 29)).sum() == 24

    @pytest.mark.parametrize("start, n_years, end", [
        (datetime(2000, 2, 29), 1, datetime(2001, 3, 1)),
        (datetime(2000, 2, 29, 6), 3, datetime(2003, 3, 1, 6)),
        (datetime(2000, 2, 29), 4, datetime(2004, 2, 29)),
    ])
    def test_leap_day_start_ends_on_1_march_of_a_common_year(self, start, n_years, end):
        s = synth_station("S1", start, n_years=n_years)
        assert s.n == (end - start) // HOUR
        assert s.timestamp(s.n - 1) == end - HOUR

    def test_noiseless_output_ignores_seed(self):
        a = synth_station("S1", datetime(2000, 1, 1), n_years=1, seed=1)
        b = synth_station("S1", datetime(2000, 1, 1), n_years=1, seed=999)
        assert a.values.tolist() == b.values.tolist()

    def test_noise_and_mask_deterministic_by_seed(self):
        kw = dict(n_years=1, noise_sd=0.5, missing_rate=0.1, seed=[7, 3])
        a = synth_station("S1", datetime(2000, 1, 1), **kw)
        b = synth_station("S1", datetime(2000, 1, 1), **kw)
        assert a.missing.tolist() == b.missing.tolist()
        keep = ~a.missing
        assert a.values[keep].tolist() == b.values[keep].tolist()
        assert 0.05 < a.missing.mean() < 0.15

    def test_validation(self):
        with pytest.raises(ContractError, match="naive"):
            synth_station("S1", datetime(2000, 1, 1, tzinfo=timezone.utc))
        with pytest.raises(ContractError, match="step"):
            synth_station("S1", datetime(2000, 1, 1), step=timedelta(minutes=15))
        with pytest.raises(ContractError, match="n_years"):
            synth_station("S1", datetime(2000, 1, 1), n_years=0)
        with pytest.raises(ContractError, match="passes year 9999"):
            synth_station("S1", datetime(9995, 1, 1), n_years=5)
        with pytest.raises(ContractError, match="missing_rate"):
            synth_station("S1", datetime(2000, 1, 1), missing_rate=1.0)
        with pytest.raises(ContractError, match="noise_sd"):
            synth_station("S1", datetime(2000, 1, 1), noise_sd=-0.5)
