"""End-to-end CLI behavior: pipelines, config files, exit codes."""

from __future__ import annotations

import csv
import hashlib
import subprocess
import sys
import weakref
from datetime import datetime

import numpy as np
import pytest

import oracles
from diurnal import (
    NetworkPanel,
    agglomerative_cluster,
    build_calendar,
    dcor_table,
    pairwise_dtw,
    read_metadata,
    read_panel,
    silhouette,
    synth_network,
    write_panel,
    write_records,
)
from diurnal import ingest
import diurnal.cli as cli_module
from diurnal.cli import cli
from diurnal.report import write_cluster_csv, write_merges_csv
from diurnal.similarity import write_dcor_csv, write_distance_csv
from helpers import grid_panel, make_series


def run(*argv):
    return cli(list(argv))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small synthetic dataset pushed through every stage once."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run("synth", "--out-dir", str(data), "--stations", "4", "--years", "6",
               "--noise-sd", "0.8", "--trend", "0.02", "--trend-spread", "0.03",
               "--missing-rate", "0.02", "--seed", "11") == 0
    assert run("impute", "--records", str(data / "records.csv"),
               "--out", str(root / "filled.csv")) == 0
    assert run("aggregate", "--records", str(root / "filled.csv"),
               "--scale", "30d", "--out", str(root / "panel.csv")) == 0
    assert run("trend", "--panel", str(root / "panel.csv"),
               "--out", str(root / "trend.csv")) == 0
    assert run("contour", "--trend", str(root / "trend.csv"),
               "--out", str(root / "contour.csv")) == 0
    assert run("cluster", "--panel", str(root / "panel.csv"),
               "--out-dir", str(root / "clusters"), "--k", "2",
               "--meta", str(data / "metadata.csv")) == 0
    assert run("radar", "--clusters-dir", str(root / "clusters"),
               "--meta", str(data / "metadata.csv"),
               "--out", str(root / "radar.csv")) == 0
    assert run("dcor", "--panel", str(root / "panel.csv"), "--window", "Jan",
               "--out", str(root / "dcor.csv")) == 0
    return root


class TestPipeline:
    def test_all_outputs_exist(self, pipeline_dir):
        for name in ("data/records.csv", "data/metadata.csv", "filled.csv",
                     "panel.csv", "trend.csv", "contour.csv", "radar.csv", "dcor.csv"):
            assert (pipeline_dir / name).exists(), name
        for mon in ("Jan", "Jun", "Dec"):
            assert (pipeline_dir / "clusters" / f"clusters_{mon}.csv").exists()
            assert (pipeline_dir / "clusters" / f"merges_{mon}.csv").exists()
            assert (pipeline_dir / "clusters" / f"dtw_{mon}.csv").exists()
            assert (pipeline_dir / "clusters" / f"cluster_table_{mon}.txt").exists()

    def test_filled_has_no_gaps(self, pipeline_dir):
        text = (pipeline_dir / "filled.csv").read_text().strip().splitlines()
        assert all(line.rsplit(",", 1)[1] != "" for line in text[1:])

    def test_trend_header(self, pipeline_dir):
        head = (pipeline_dir / "trend.csv").read_text().splitlines()[0]
        assert head == ("station_id,scale,window_label,hour,n,S,var_S,z,"
                        "p_value,sen_slope,lag1,serial_flag")

    def test_radar_header_and_months(self, pipeline_dir):
        lines = (pipeline_dir / "radar.csv").read_text().splitlines()
        assert lines[0] == "month,cluster,region,mean_silhouette,count"
        months = [line.split(",")[0] for line in lines[1:]]
        assert months[0] == "Jan" and months == sorted(
            months, key=["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
                         "Sep", "Oct", "Nov", "Dec"].index)

    def test_dcor_rows_are_sorted_pairs(self, pipeline_dir):
        lines = (pipeline_dir / "dcor.csv").read_text().splitlines()
        assert lines[0] == "scale,window_label,station_a,station_b,dcor,p_value,n_perm"
        pairs = [tuple(line.split(",")[2:4]) for line in lines[1:]]
        assert len(pairs) == 6 and all(a < b for a, b in pairs)


class TestDeterminism:
    def test_synth_byte_identical(self, tmp_path):
        args = ("--stations", "3", "--years", "2", "--noise-sd", "0.5",
                "--missing-rate", "0.1", "--seed", "4")
        assert run("synth", "--out-dir", str(tmp_path / "a"), *args) == 0
        assert run("synth", "--out-dir", str(tmp_path / "b"), *args) == 0
        for name in ("records.csv", "metadata.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_synth_128_station_sites_unchanged(self, tmp_path):
        # The metadata of 128 stations as written before stations past the
        # 128th wrapped round to the first sites.
        assert run("synth", "--out-dir", str(tmp_path), "--stations", "128",
                   "--years", "1", "--noise-sd", "0") == 0
        digest = hashlib.sha256((tmp_path / "metadata.csv").read_bytes()).hexdigest()
        assert digest == "020c444f6dc87fa6b3a12ce6a6fa38c1de4dc024b5e80c08f86446545dbafcba"

    def test_synth_past_128_stations_keeps_coordinates_in_range(self, tmp_path):
        assert run("synth", "--out-dir", str(tmp_path), "--stations", "200",
                   "--years", "1", "--noise-sd", "0") == 0
        meta = read_metadata(tmp_path / "metadata.csv")
        assert len(meta) == 200
        assert all(-90 <= m.latitude <= 90 and -180 <= m.longitude <= 180
                   for m in meta.values())

    def test_downstream_byte_identical(self, pipeline_dir, tmp_path):
        again = tmp_path / "again.csv"
        assert run("aggregate", "--records", str(pipeline_dir / "filled.csv"),
                   "--scale", "30d", "--out", str(again)) == 0
        assert again.read_bytes() == (pipeline_dir / "panel.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_options(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "agg.cfg"
        cfg.write_text("# aggregation settings\n"
                       f"records={pipeline_dir / 'filled.csv'}\n"
                       "scale=60db\n"
                       f"out={tmp_path / 'panel60.csv'}\n")
        assert run("aggregate", "--config", str(cfg)) == 0
        head = (tmp_path / "panel60.csv").read_text(encoding="utf-8").splitlines()
        assert head[1].split(",")[1] == "60db"

    def test_cli_flag_beats_config(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "agg.cfg"
        cfg.write_text(f"records={pipeline_dir / 'filled.csv'}\n"
                       "scale=60db\n"
                       f"out={tmp_path / 'ignored.csv'}\n")
        out = tmp_path / "explicit.csv"
        assert run("aggregate", "--config", str(cfg), "--out", str(out),
                   "--scale", "30d") == 0
        assert out.exists() and not (tmp_path / "ignored.csv").exists()
        assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[1] == "30d"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scale=30d\nshape=round\n")
        assert run("aggregate", "--config", str(cfg)) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scale 30d\n")
        assert run("aggregate", "--config", str(cfg)) == 1
        assert "key=value" in capsys.readouterr().err

    def test_repeated_config_key_names_its_second_line(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(f"stations=1\n# a comment\nout-dir={tmp_path / 'out'}\n"
                       " stations = 2\n")
        assert run("synth", "--config", str(cfg)) == 1
        assert capsys.readouterr().err.strip() == (
            "error: line 4: duplicate config key 'stations'")
        assert not (tmp_path / "out").exists()

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scale=45d\n")
        assert run("aggregate", "--config", str(cfg)) == 1
        assert "45d" in capsys.readouterr().err

    def test_config_byte_order_mark_skipped(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "trend.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfmin-years=4\n" + (
            f"panel={pipeline_dir / 'panel.csv'}\nout={tmp_path / 'trend.csv'}\n").encode())
        assert run("trend", "--config", str(cfg)) == 0
        assert (tmp_path / "trend.csv").exists()

    def test_config_byte_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"scale=30d\nout=caf\xe9.csv\n")
        assert run("aggregate", "--config", str(cfg)) == 1
        assert capsys.readouterr().err.strip() == "error: line 2: invalid UTF-8 byte 0xe9"


class TestExitCodes:
    def test_missing_required_option(self, capsys):
        assert run("aggregate") == 1
        assert "missing required option --records" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run("aggregate", "--no-such-flag")
        assert exc.value.code == 1

    def test_no_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["synth", "dcor"])
    def test_negative_seed_flag_exits_one(self, pipeline_dir, tmp_path, capsys, command):
        # numpy's SeedSequence would raise a bare ValueError on it.
        args = {"synth": ["--out-dir", str(tmp_path / "data")],
                "dcor": ["--panel", str(pipeline_dir / "panel.csv"),
                         "--out", str(tmp_path / "dcor.csv")]}[command]
        with pytest.raises(SystemExit) as exc:
            run(command, *args, "--seed", "-1")
        assert exc.value.code == 1
        assert "error: argument --seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["synth", "dcor"])
    def test_negative_seed_in_config_exits_one(self, pipeline_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("seed=-1\n" + {
            "synth": f"out-dir={out / 'data'}\n",
            "dcor": f"panel={pipeline_dir / 'panel.csv'}\nout={out / 'dcor.csv'}\n"}[command])
        assert run(command, "--config", str(cfg)) == 1
        assert capsys.readouterr().err.strip() == (
            "error: config key seed: expected a non-negative integer, got -1")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,key,value,message", [
        ("synth", "step", "2h", "expected 1h or 30m, got '2h'"),
        ("aggregate", "scale", "45d", "expected one of 10d, 30d, 60da, 60db, got '45d'"),
        ("cluster", "weights", "1,x,2", "expected wh,wv,wd (three numbers), got '1,x,2'"),
        ("cluster", "features", "shape", "expected slope or level, got 'shape'"),
        ("cluster", "metric", "cosine", "expected one of absolute, squared, got 'cosine'"),
        ("synth", "seed", "-1", "expected a non-negative integer, got -1"),
        ("dcor", "seed", "abc", "expected a non-negative integer, got abc"),
        ("synth", "stations", "0", "expected a positive integer, got 0"),
        ("synth", "stations", "-2", "expected a positive integer, got -2"),
        ("synth", "start-year", "0", "expected a year from 1 to 9999, got 0"),
        ("synth", "start-year", "10000", "expected a year from 1 to 9999, got 10000"),
    ])
    def test_bad_option_value_reads_the_same_as_flag_and_in_config(
            self, tmp_path, capsys, command, key, value, message):
        with pytest.raises(SystemExit) as exc:
            run(command, f"--{key}", value)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"diurnal {command}: error: argument --{key}: {message}")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert run(command, "--config", str(cfg)) == 1
        assert capsys.readouterr().err.strip() == f"error: config key {key}: {message}"

    def test_synth_past_year_9999_exits_one(self, tmp_path, capsys):
        message = "error: start year 9995 plus 10 years passes year 9999"
        data = tmp_path / "data"
        assert run("synth", "--out-dir", str(data), "--start-year", "9995",
                   "--years", "10") == 1
        assert capsys.readouterr().err.strip() == message
        cfg = tmp_path / "late.cfg"
        cfg.write_text(f"out-dir={data}\nstart-year=9995\nyears=10\n")
        assert run("synth", "--config", str(cfg)) == 1
        assert capsys.readouterr().err.strip() == message
        assert not data.exists()

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        assert run("aggregate", "--records", str(tmp_path / "nope.csv"),
                   "--scale", "30d", "--out", str(tmp_path / "out.csv")) == 2

    def test_pipeline_error_exits_one(self, pipeline_dir, tmp_path, capsys):
        # raw records still have gaps; aggregate refuses without --skip-missing
        code = run("aggregate", "--records", str(pipeline_dir / "data" / "records.csv"),
                   "--scale", "30d", "--out", str(tmp_path / "out.csv"))
        assert code == 1
        assert "impute first" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("T01,0001-01-01T00:00:00+01:00,1",
         "error: line 2: malformed timestamp '0001-01-01T00:00:00+01:00'"),
        ("T" * (csv.field_size_limit() + 1) + ",2001-01-01T00:00:00Z,1",
         f"error: line 2: field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["offset-overflow", "field-over-limit"])
    def test_unreadable_record_exits_one_with_its_line(self, tmp_path, capsys, row, message):
        records = tmp_path / "records.csv"
        records.write_text(f"station_id,timestamp,temp_c\n{row}\n", encoding="utf-8")
        assert run("impute", "--records", str(records), "--out", str(tmp_path / "f.csv")) == 1
        assert capsys.readouterr().err.strip() == message

    def test_invalid_utf8_record_exits_one_with_its_line(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_bytes(b"station_id,timestamp,temp_c\nT01,2001-01-01T00:00:00Z,1\n"
                            b"T01,2001-01-01T01:00:00Z,2\xff\n")
        assert run("impute", "--records", str(records), "--out", str(tmp_path / "f.csv")) == 1
        assert capsys.readouterr().err.strip() == "error: line 3: invalid UTF-8 byte 0xff"

    def test_impute_reads_a_record_file_with_a_byte_order_mark(self, tmp_path):
        # As spreadsheet tools save "CSV UTF-8".
        records = tmp_path / "records.csv"
        records.write_bytes(b"\xef\xbb\xbfstation_id,timestamp,temp_c\n"
                            b"T01,2001-01-01T00:00:00Z,1\nT01,2001-01-01T01:00:00Z,\n"
                            b"T01,2001-01-01T02:00:00Z,3\n")
        assert run("impute", "--records", str(records), "--out", str(tmp_path / "f.csv")) == 0
        assert (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "T01,2001-01-01T00:00:00Z,1.0", "T01,2001-01-01T01:00:00Z,2.0",
            "T01,2001-01-01T02:00:00Z,3.0"]

    def test_unreadable_metadata_exits_one_with_its_line(self, pipeline_dir, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        name = "N" * (csv.field_size_limit() + 1)
        meta.write_text("station_id,name,group,region,latitude,longitude,altitude_m\n"
                        f"SYN01,{name},UKH,UK,52.0,-1.5,600\n", encoding="utf-8")
        assert run("cluster", "--panel", str(pipeline_dir / "panel.csv"), "--window", "Jan",
                   "--out-dir", str(tmp_path / "c"), "--k", "2", "--meta", str(meta)) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: line 2: field larger than field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("row,message", [
        ("S1,30d,Smarch,0,5,3,8.5,0.7,0.49,0.1,0.2,0",
         "error: line 2: label 'Smarch' does not belong to scale 30d"),
        ("S1,30d,Jan,99,5,3,8.5,0.7,0.49,0.1,0.2,0", "error: line 2: hour 99 out of range 0-23"),
    ], ids=["foreign-label", "hour-99"])
    def test_contour_rejects_trend_row_outside_its_calendar(self, tmp_path, capsys, row, message):
        trend = tmp_path / "trend.csv"
        trend.write_text("station_id,scale,window_label,hour,n,S,var_S,z,p_value,sen_slope,"
                         f"lag1,serial_flag\n{row}\n", encoding="utf-8")
        assert run("contour", "--trend", str(trend), "--out", str(tmp_path / "c.csv")) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "c.csv").exists()

    def test_contour_rejects_a_trend_file_of_two_scales(self, tmp_path, capsys):
        trend = tmp_path / "trend.csv"
        trend.write_text("station_id,scale,window_label,hour,n,S,var_S,z,p_value,sen_slope,"
                         "lag1,serial_flag\nA,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,0\n"
                         "B,10d,Jan01-10,0,5,3,8.5,0.7,0.49,0.1,0.2,0\n", encoding="utf-8")
        assert run("contour", "--trend", str(trend), "--out", str(tmp_path / "c.csv")) == 1
        assert capsys.readouterr().err.strip() == (
            "error: line 3: scale 10d differs from the first row's scale 30d; "
            "a trend file holds one scale")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("p,slope,message", [
        ("nan", "0.1", "error: line 2: p_value nan out of [0, 1]"),
        ("0.49", "", "error: line 2: sen_slope nan is not finite"),
    ])
    def test_contour_rejects_a_bad_p_value_or_slope_with_its_line(self, tmp_path, capsys,
                                                                  p, slope, message):
        trend = tmp_path / "trend.csv"
        trend.write_text("station_id,scale,window_label,hour,n,S,var_S,z,p_value,sen_slope,"
                         f"lag1,serial_flag\nS1,30d,Jan,0,5,3,8.5,0.7,{p},{slope},0.2,0\n",
                         encoding="utf-8")
        assert run("contour", "--trend", str(trend), "--out", str(tmp_path / "c.csv")) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "c.csv").exists()

    def test_radar_rejects_an_out_of_range_cluster_row(self, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text("station_id,name,group,region,latitude,longitude,altitude_m\n"
                        "S1,A,UKH,UK,54.0,-2.0,600\n", encoding="utf-8")
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "clusters_Jan.csv").write_text(
            "station_id,cluster_id,silhouette\nS1,0,nan\n", encoding="utf-8")
        assert run("radar", "--clusters-dir", str(tmp_path / "c"), "--meta", str(meta),
                   "--out", str(tmp_path / "radar.csv")) == 1
        assert capsys.readouterr().err.strip() == "error: line 2: cluster id 0 is not positive"
        assert not (tmp_path / "radar.csv").exists()

    def test_contour_rejects_a_repeated_trend_cell(self, tmp_path, capsys):
        trend = tmp_path / "trend.csv"
        trend.write_text("station_id,scale,window_label,hour,n,S,var_S,z,p_value,sen_slope,"
                         "lag1,serial_flag\nS1,30d,Jan,0,5,3,8.5,0.7,0.49,0.1,0.2,0\n"
                         "S1,30d,Jan,0,5,-3,8.5,-0.7,0.49,-0.4,0.2,0\n", encoding="utf-8")
        assert run("contour", "--trend", str(trend), "--out", str(tmp_path / "c.csv")) == 1
        assert capsys.readouterr().err.strip() == (
            "error: line 3: station S1: second row for scale 30d, window Jan, hour 0")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--lambda", "nan", "error: DTW lam must be finite, got nan"),
        ("--weights", "inf,1,1", "error: DTW wh must be finite, got inf"),
    ])
    def test_cluster_rejects_non_finite_dtw_option(self, pipeline_dir, tmp_path, capsys,
                                                   option, value, message):
        assert run("cluster", "--panel", str(pipeline_dir / "panel.csv"), "--window", "Jan",
                   "--out-dir", str(tmp_path / "c"), "--k", "2", option, value) == 1
        assert capsys.readouterr().err.strip() == message

    def test_skip_missing_flag_clears_it(self, pipeline_dir, tmp_path):
        assert run("aggregate", "--records", str(pipeline_dir / "data" / "records.csv"),
                   "--scale", "30d", "--out", str(tmp_path / "out.csv"),
                   "--skip-missing") == 0

    def test_bad_window_label(self, pipeline_dir, tmp_path, capsys):
        assert run("dcor", "--panel", str(pipeline_dir / "panel.csv"),
                   "--window", "January", "--out", str(tmp_path / "d.csv")) == 1
        assert "January" in capsys.readouterr().err


class TestHalfHourPath:
    def test_30m_synth_imputes_to_hourly(self, tmp_path):
        data = tmp_path / "d"
        assert run("synth", "--out-dir", str(data), "--stations", "2", "--years", "2",
                   "--step", "30m", "--noise-sd", "0.4", "--missing-rate", "0.05",
                   "--seed", "3") == 0
        filled = tmp_path / "filled.csv"
        assert run("impute", "--records", str(data / "records.csv"),
                   "--out", str(filled), "--to-hourly") == 0
        assert run("aggregate", "--records", str(filled), "--scale", "10d",
                   "--out", str(tmp_path / "panel.csv")) == 0
        lines = (tmp_path / "panel.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1].split(",")[3] == "Jan01-10"

    # Both stages collapse records through to_hourly's one rule; aggregate's
    # error once named no station.
    @pytest.mark.parametrize("argv", [("impute", "--to-hourly"), ("aggregate", "--scale", "30d")],
                             ids=["impute", "aggregate"])
    def test_to_hourly_rejects_15_minute_records(self, tmp_path, capsys, argv):
        records = tmp_path / "q.csv"
        records.write_text("station_id,timestamp,temp_c\n" + "".join(
            f"Q1,2000-01-01T00:{m:02d}:00Z,{m / 10}\n" for m in range(0, 60, 15)))
        out = tmp_path / "out.csv"
        assert run(*argv, "--records", str(records), "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == (
            "error: station Q1: cannot collapse step 0:15:00 to hourly")
        assert not out.exists()

    def test_aggregate_averages_raw_30m(self, tmp_path):
        data = tmp_path / "d"
        assert run("synth", "--out-dir", str(data), "--stations", "1", "--years", "1",
                   "--step", "30m") == 0
        assert run("aggregate", "--records", str(data / "records.csv"),
                   "--scale", "30d", "--out", str(tmp_path / "p.csv")) == 0


class TestClusterOptions:
    def test_single_window_with_dtw_options(self, pipeline_dir, tmp_path):
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(pipeline_dir / "panel.csv"),
                   "--out-dir", str(out), "--k", "3", "--window", "Jul",
                   "--weights", "1,1,1", "--lambda", "0.2",
                   "--metric", "squared", "--features", "level") == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["clusters_Jul.csv", "dtw_Jul.csv", "merges_Jul.csv"]

    def test_bad_weights(self, pipeline_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("cluster", "--panel", str(pipeline_dir / "panel.csv"),
                "--out-dir", str(tmp_path), "--weights", "1,2")
        assert exc.value.code == 1

    def test_k_larger_than_stations(self, pipeline_dir, tmp_path, capsys):
        assert run("cluster", "--panel", str(pipeline_dir / "panel.csv"),
                   "--out-dir", str(tmp_path), "--k", "99", "--window", "Jan") == 1


class TestProfileErrors:
    @pytest.fixture
    def thin_panel(self, tmp_path):
        """Two stations over two years. S1's Jan cell at hour 3 is valid in
        one year only; S2's Jan cell at hour 5 in none."""
        rng = np.random.default_rng(5)
        panels = []
        for sid, hour, n_valid in (("S1", 3, 1), ("S2", 5, 0)):
            counts = np.ones((1, 2, 12, 24), np.int64)
            counts[0, n_valid:, 0, hour] = 0
            means = np.where(counts > 0, rng.normal(5.0, 3.0, counts.shape), np.nan)
            panels.append(NetworkPanel("30d", [sid], [2001, 2002], means, counts))
        path = tmp_path / "panel.csv"
        write_panel(path, panels)
        return path

    def test_slope_needs_two_valid_years(self, thin_panel, tmp_path, capsys):
        assert run("cluster", "--panel", str(thin_panel), "--out-dir", str(tmp_path / "c"),
                   "--k", "2", "--window", "Jan", "--features", "slope") == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S1, window Jan, hour 3: "
            "need at least 2 valid years for slope features, have 1")

    @pytest.mark.parametrize("argv", [
        ("cluster", "--out-dir", "{tmp}/c", "--k", "2", "--features", "level"),
        ("dcor", "--out", "{tmp}/d.csv"),
    ])
    def test_level_needs_a_valid_year(self, thin_panel, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run(*argv, "--panel", str(thin_panel), "--window", "Jan") == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S2, window Jan, hour 5: no valid years for level features")


def _write_panels(path, specs, rng):
    """A panel CSV of ``(station, scale, n_years, window, hour, n_valid)``
    specs: every cell valid, except that the given (window, hour) cell is
    valid in its first ``n_valid`` years only."""
    panels = []
    for sid, scale, n_years, window, hour, n_valid in specs:
        counts = np.ones((1, n_years, build_calendar(scale).n_windows, 24), np.int64)
        counts[0, n_valid:, window, hour] = 0
        means = np.where(counts > 0, rng.normal(5.0, 3.0, counts.shape), np.nan)
        panels.append(NetworkPanel(scale, [sid], range(2001, 2001 + n_years), means, counts))
    write_panel(path, panels)
    return path


class TestNothingWrittenOnFailure:
    """A cluster, dcor or trend run that fails exits 1 and leaves no output."""

    @pytest.fixture
    def three_stations(self, tmp_path):
        """3 stations x 3 years at 30d; S1's Jul cell at hour 3 is valid in
        one year only."""
        return _write_panels(tmp_path / "panel.csv", [
            ("S1", "30d", 3, 6, 3, 1), ("S2", "30d", 3, 0, 0, 3), ("S3", "30d", 3, 0, 0, 3)],
            np.random.default_rng(7))

    @pytest.fixture
    def mixed_scales(self, tmp_path):
        return _write_panels(tmp_path / "mixed.csv", [
            ("A", "30d", 2, 0, 0, 2), ("B", "10d", 2, 0, 0, 2)], np.random.default_rng(8))

    def test_cluster_window_failing_after_others(self, three_stations, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(three_stations), "--out-dir", str(out),
                   "--k", "2") == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "error: station S1, window Jul, hour 3: "
            "need at least 2 valid years for slope features, have 1")
        assert captured.out == ""
        assert not out.exists()

    def test_cluster_k_above_station_count(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(pipeline_dir / "panel.csv"),
                   "--out-dir", str(out), "--k", "99") == 1
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_later_short_window_beats_k_above_station_count(self, three_stations,
                                                             tmp_path, capsys):
        # S1 is short of years in Jul; Jan, the first window, would fail on
        # --k, but every window's profiles are checked before any is
        # clustered.
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(three_stations), "--out-dir", str(out),
                   "--k", "4") == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S1, window Jul, hour 3: "
            "need at least 2 valid years for slope features, have 1")
        assert not out.exists()

    def test_first_of_two_short_windows_is_named(self, tmp_path, capsys):
        # S1 is short of years in Jul, S2 in Mar: Mar comes first.
        panel = _write_panels(tmp_path / "panel.csv", [
            ("S1", "30d", 3, 6, 3, 1), ("S2", "30d", 3, 2, 5, 1), ("S3", "30d", 3, 0, 0, 3)],
            np.random.default_rng(11))
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(panel), "--out-dir", str(out), "--k", "2") == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S2, window Mar, hour 5: "
            "need at least 2 valid years for slope features, have 1")
        assert not out.exists()

    @pytest.mark.parametrize("command,out_option", [("cluster", "--out-dir"),
                                                    ("dcor", "--out")])
    def test_window_outside_the_scale(self, pipeline_dir, tmp_path, capsys,
                                      command, out_option):
        out = tmp_path / "out"
        assert run(command, "--panel", str(pipeline_dir / "panel.csv"),
                   out_option, str(out), "--window", "Foo") == 1
        assert capsys.readouterr().err.strip() == (
            "error: unknown window label 'Foo' for scale 30d")
        assert not out.exists()

    def test_cluster_station_missing_from_metadata(self, pipeline_dir, tmp_path, capsys):
        # The metadata lists SYN01 and SYN02 of the panel's four stations;
        # every window's table is rendered before the output directory is
        # made.
        lines = (pipeline_dir / "data" / "metadata.csv").read_text().splitlines(True)
        meta = tmp_path / "meta.csv"
        meta.write_text("".join(lines[:3]))
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(pipeline_dir / "panel.csv"), "--out-dir",
                   str(out), "--k", "2", "--meta", str(meta)) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: station SYN03 missing from metadata"
        assert captured.out == ""
        assert not out.exists()

    def test_trend_with_no_usable_cell(self, tmp_path, capsys):
        # The writer's rule: an empty table is not written.
        panel = _write_panels(tmp_path / "panel.csv", [
            ("S1", "30d", 4, 0, 0, 4), ("S2", "30d", 4, 0, 0, 4)], np.random.default_rng(9))
        out = tmp_path / "trend.csv"
        assert run("trend", "--panel", str(panel), "--out", str(out), "--min-years", "9") == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "error: no cell had enough usable years for a trend test")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("window", [[], ["--window", "Jul"]], ids=["all", "Jul"])
    def test_dcor_on_one_station(self, tmp_path, capsys, window):
        # The rule is the library's own (dcor_table), so it is checked
        # after the window labels and worded as the library words it.
        panel = _write_panels(tmp_path / "panel.csv", [("S1", "30d", 3, 0, 0, 3)],
                              np.random.default_rng(5))
        out = tmp_path / "dcor.csv"
        assert run("dcor", "--panel", str(panel), "--out", str(out), *window) == 1
        assert capsys.readouterr().err.strip() == (
            "error: distance correlation needs at least 2 profiles")
        assert not out.exists()

    def test_dcor_label_checked_before_station_count(self, tmp_path, capsys):
        panel = _write_panels(tmp_path / "panel.csv", [("S1", "30d", 3, 0, 0, 3)],
                              np.random.default_rng(5))
        out = tmp_path / "dcor.csv"
        assert run("dcor", "--panel", str(panel), "--out", str(out), "--window", "Foo") == 1
        assert capsys.readouterr().err.strip() == (
            "error: unknown window label 'Foo' for scale 30d")
        assert not out.exists()

    @pytest.mark.parametrize("command,out_option", [("cluster", "--out-dir"),
                                                    ("dcor", "--out"), ("trend", "--out")])
    def test_panel_mixing_scales(self, mixed_scales, tmp_path, capsys, command, out_option):
        # A's 2 x 12 x 24 rows at 30d come first; B's first row, at 10d, is
        # line 578.
        out = tmp_path / "out"
        assert run(command, "--panel", str(mixed_scales), out_option, str(out)) == 1
        assert capsys.readouterr().err.strip() == (
            "error: line 578: scale 10d differs from the first row's scale 30d; "
            "a panel file holds one scale")
        assert not out.exists()

    def test_cluster_success_prints_one_line_per_window(self, three_stations, tmp_path,
                                                        capsys):
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(three_stations), "--out-dir", str(out),
                   "--k", "2", "--features", "level") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(build_calendar("30d").labels)
        assert len(list(out.iterdir())) == 36


class TestClusterErrorOrder:
    """Within a window, its profiles are checked before ``--k``; across
    windows, the first failing window's error is named, whichever check it
    fails."""

    def test_first_window_short_of_years_beats_k(self, tmp_path, capsys):
        # S1 is short of years in Jan, the first window, and --k is above
        # the station count.
        panel = _write_panels(tmp_path / "panel.csv", [
            ("S1", "30d", 3, 0, 3, 1), ("S2", "30d", 3, 0, 0, 3), ("S3", "30d", 3, 0, 0, 3)],
            np.random.default_rng(7))
        out = tmp_path / "c"
        assert run("cluster", "--panel", str(panel), "--out-dir", str(out), "--k", "4") == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S1, window Jan, hour 3: "
            "need at least 2 valid years for slope features, have 1")
        assert not out.exists()


class TestConsoleScript:
    def test_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "diurnal.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "COMMAND" in proc.stdout

    def test_no_args_exits_one(self):
        proc = subprocess.run([sys.executable, "-m", "diurnal.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 1

    @pytest.mark.parametrize("stage", ["impute", "aggregate"])
    def test_records_stages_leave_numpy_ma_unimported(self, pipeline_dir, tmp_path, stage):
        # On numpy 2.4 a plain np.unique imports numpy.ma, about 14 ms a process.
        argv = {"impute": ["impute", "--records", str(pipeline_dir / "data" / "records.csv"),
                           "--out", str(tmp_path / "filled.csv")],
                "aggregate": ["aggregate", "--records", str(pipeline_dir / "filled.csv"),
                              "--scale", "10d", "--out", str(tmp_path / "panel.csv")]}[stage]
        code = ("import sys; from diurnal.cli import cli; "
                "print(cli(sys.argv[1:]), 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


class TestAggregateOverflow:
    def test_overflowing_window_mean_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # A year of hourly readings at 1e308: each month's hourly sums pass
        # the largest double. The stage once wrote a mean of inf, which
        # read_panel then rejected.
        records = tmp_path / "records.csv"
        write_records(records, [make_series(np.full(8760, 1e308), start=datetime(2001, 1, 1),
                                            sid="A")])
        out = tmp_path / "panel.csv"
        assert run("aggregate", "--records", str(records), "--scale", "30d",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err.strip() == (
            "error: station A, year 2001, window Jan, hour 0: mean of the readings is not finite")
        assert not out.exists()


class TestTrendOverflow:
    def test_overflowing_means_exit_one_and_write_nothing(self, tmp_path, capsys):
        # Finite yearly means whose pair differences overflow: the trend
        # stage once wrote sen_slope -inf and an empty lag1 for this cell,
        # which contour then rejected.
        panel = grid_panel(np.random.default_rng(16), n_years=4, valid_rate=1.0)
        panel.means[0, :, 2, 7] = [1e308, -1e308, 1.5e308, -1.7e308]
        write_panel(tmp_path / "panel.csv", [panel])
        assert run("trend", "--panel", str(tmp_path / "panel.csv"),
                   "--out", str(tmp_path / "trend.csv")) == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S1, window May-Jun, hour 7: "
            "lag-1 autocorrelation overflows: centered sums are not finite")
        assert not (tmp_path / "trend.csv").exists()

    @pytest.mark.parametrize("command,options", [
        ("cluster", ("--out-dir", "out", "--k", "2", "--features", "level")),
        ("dcor", ("--out", "out", "--n-perm", "99"))])
    def test_overflowing_level_mean_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                                 command, options):
        # Three finite years at 1.7e308 whose mean overflows.
        rng = np.random.default_rng(17)
        panels = [grid_panel(rng, sid, n_years=3, valid_rate=1.0) for sid in ("S1", "S2", "S3")]
        panels[1].means[0, :, 4, 2] = 1.7e308
        write_panel(tmp_path / "panel.csv", panels)
        options = [str(tmp_path / v) if v == "out" else v for v in options]
        assert run(command, "--panel", str(tmp_path / "panel.csv"), *options) == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S2, window Sep-Oct, hour 2: mean of the valid years is not finite")
        assert not (tmp_path / "out").exists()

    def test_overflowing_slope_cell_is_named(self, tmp_path, capsys):
        # Its Sen's slope error was once printed without the cell.
        rng = np.random.default_rng(16)
        panels = [grid_panel(rng, sid, n_years=4, valid_rate=1.0) for sid in ("S1", "S2", "S3")]
        panels[1].means[0, :, 2, 7] = [1e308, -1e308, 1.5e308, -1.7e308]
        write_panel(tmp_path / "panel.csv", panels)
        assert run("cluster", "--panel", str(tmp_path / "panel.csv"), "--out-dir",
                   str(tmp_path / "out"), "--k", "2") == 1
        assert capsys.readouterr().err.strip() == (
            "error: station S2, window May-Jun, hour 7: "
            "Sen's slope overflows: a pair slope or their median is not finite")
        assert not (tmp_path / "out").exists()


class TestPanelReleased:
    @pytest.mark.parametrize("command,options", [
        ("cluster", ("--out-dir", "out", "--k", "2")),
        ("dcor", ("--out", "out", "--n-perm", "99"))])
    def test_no_panel_is_held_while_the_kernels_run(self, tmp_path, monkeypatch, command,
                                                     options):
        # The DTW phase and the permutation tests need only the profiles:
        # the panel, as large as every station's grid, is freed before them.
        refs, alive = [], []

        def read(path):
            panel = read_panel(path)
            refs.append(weakref.ref(panel))
            return panel

        def check(kernel):
            def run_kernel(*args, **kwargs):
                alive.append(refs[0]() is not None)
                return kernel(*args, **kwargs)
            return run_kernel

        monkeypatch.setattr(cli_module, "read_panel", read)
        monkeypatch.setattr(cli_module, "window_dtw", check(cli_module.window_dtw))
        monkeypatch.setattr(cli_module, "dcor_table", check(cli_module.dcor_table))
        rng = np.random.default_rng(19)
        write_panel(tmp_path / "panel.csv",
                    [grid_panel(rng, sid, "60da", valid_rate=1.0) for sid in ("S1", "S2", "S3")])
        options = [str(tmp_path / v) if v == "out" else v for v in options]
        assert run(command, "--panel", str(tmp_path / "panel.csv"), *options) == 0
        assert alive == [False] * (1 if command == "cluster" else 6)


class TestRaggedYears:
    """A panel file whose stations cover different years: S2 lacks a middle
    year and S3 starts two years after the others. ``trend``, ``cluster``
    and ``dcor`` give bitwise what the per-station oracles give on each
    station's own years."""

    YEARS = {"S1": range(2001, 2009), "S2": [2001, 2002, 2003, 2005, 2006, 2007, 2008],
             "S3": range(2003, 2009)}

    @pytest.fixture
    def ragged(self, tmp_path):
        rng = np.random.default_rng(23)
        panels = [grid_panel(rng, sid, "30d", levels=40, step=0.1, valid_rate=0.9,
                             years=years) for sid, years in self.YEARS.items()]
        write_panel(tmp_path / "panel.csv", panels)
        return tmp_path / "panel.csv", panels

    def test_trend(self, ragged, tmp_path):
        path, panels = ragged
        assert run("trend", "--panel", str(path), "--out", str(tmp_path / "trend.csv")) == 0
        rows = [row for p in panels for row in oracles.trend_surface_cells(p)]
        oracles.write_trend_rows(tmp_path / "want.csv", rows)
        assert (tmp_path / "trend.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["slope", "level"])
    def test_cluster(self, ragged, tmp_path, kind):
        path, panels = ragged
        out, want = tmp_path / "out", tmp_path / "want"
        assert run("cluster", "--panel", str(path), "--out-dir", str(out), "--k", "2",
                   "--features", kind) == 0
        want.mkdir()
        for label in build_calendar("30d").labels:
            dist = pairwise_dtw({sid: v for p in panels
                                 for sid, v in oracles.hour_profile_cells(p, label, kind).items()})
            rep = agglomerative_cluster(dist, 2)
            write_distance_csv(want / f"dtw_{label}.csv", dist)
            write_cluster_csv(want / f"clusters_{label}.csv", rep,
                              silhouette(dist, rep.assignment)[0])
            write_merges_csv(want / f"merges_{label}.csv", rep.merges)
        assert sorted(f.name for f in out.iterdir()) == sorted(f.name for f in want.iterdir())
        for f in want.iterdir():
            assert (out / f.name).read_bytes() == f.read_bytes(), f.name

    def test_dcor(self, ragged, tmp_path):
        path, panels = ragged
        assert run("dcor", "--panel", str(path), "--out", str(tmp_path / "dcor.csv"),
                   "--n-perm", "99", "--seed", "4") == 0
        rows = []
        for w, label in enumerate(build_calendar("30d").labels):
            levels = {sid: v for p in panels
                      for sid, v in oracles.hour_profile_cells(p, label, "level").items()}
            rows += [("30d", label, *pair) for pair in dcor_table(levels, 99, [4, w])]
        write_dcor_csv(tmp_path / "want.csv", rows)
        assert (tmp_path / "dcor.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestRecordsStagesBytes:
    """``impute`` and ``aggregate`` write the bytes of the per-slot oracles,
    and the same bytes with the compact-run path of the records reader
    switched off, on a regular records file (every slot a row, so each
    station's runs chain) and on an irregular one (rows left out, rows out
    of order and a station resumed at the end of the file), whose stations
    go through the general path."""

    @pytest.fixture(params=["regular", "irregular"])
    def records(self, request, tmp_path):
        series, _ = synth_network(2, datetime(2001, 1, 1), n_years=1, missing_rate=0.05,
                                  seed=3)
        path = tmp_path / "records.csv"
        write_records(path, series)
        if request.param == "irregular":
            header, *rows = path.read_text().splitlines()
            rows = [row for k, row in enumerate(rows) if k % 97 != 5]
            rows[100:150] = rows[149:99:-1]
            rows = rows[:8000] + rows[8700:] + rows[8000:8700]
            path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def _stages(self, records, out):
        out.mkdir()
        assert run("impute", "--records", str(records), "--out", str(out / "filled.csv")) == 0
        assert run("aggregate", "--records", str(records), "--skip-missing", "--scale", "10d",
                   "--out", str(out / "raw.csv")) == 0
        assert run("aggregate", "--records", str(out / "filled.csv"), "--scale", "30d",
                   "--out", str(out / "panel.csv")) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    def test_outputs_match_the_oracles_and_the_general_path(self, records, tmp_path,
                                                             monkeypatch):
        got = self._stages(records, tmp_path / "got")
        raw = oracles.read_records_rows(records)
        filled = [oracles.seasonal_split_impute_loop(s) for s in raw.values()]
        oracles.write_records_rows(tmp_path / "filled.csv", filled)
        oracles.write_panel_rows(tmp_path / "raw.csv", [oracles.hourly_window_means_loop(
            s, build_calendar("10d"), skip_missing=True) for s in raw.values()])
        oracles.write_panel_rows(tmp_path / "panel.csv", [oracles.hourly_window_means_loop(
            s, build_calendar("30d")) for s in filled])
        assert got == {name: (tmp_path / name).read_bytes() for name in got}
        monkeypatch.setattr(ingest, "_chained_series", lambda sid, pieces, step: None)
        assert self._stages(records, tmp_path / "general") == got
