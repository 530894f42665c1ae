"""Command line driver for the analysis pipeline.

Subcommands mirror the processing stages:

    synth -> impute -> aggregate -> trend -> contour
                              \\-> cluster -> radar
                               \\-> dcor

Every option can also be supplied through a config file of ``key=value``
lines (``--config PATH``); a flag given on the command line wins over the
file, and the file wins over the built-in default. Config keys are the long
option names without the leading dashes.

Exit status: 0 on success, 1 for usage or pipeline errors, 2 for I/O
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ._util import parse_bool, undecoded_error
from .aggregate import (
    SCALES,
    build_calendar,
    hourly_window_means,
    read_panel,
    write_panel,
)
from .errors import ContractError, EmptyInputError, ParseError, PipelineError
from .impute import MONTH_ABBR, seasonal_split_impute
from .ingest import (
    HALF_HOUR,
    HOUR,
    read_metadata,
    read_records,
    to_hourly,
    write_metadata,
    write_records,
)
from .report import (
    cluster_table,
    contour_grid,
    radar_sheet,
    read_cluster_csv,
    write_cluster_csv,
    write_contour_csv,
    write_merges_csv,
    write_radar_csv,
)
from .similarity import (
    METRICS,
    DtwConfig,
    agglomerative_cluster,
    dcor_table,
    silhouette,
    window_dtw,
    write_dcor_csv,
    write_distance_csv,
)
from .synth import synth_network
from .trend import (
    read_trend_csv,
    trend_surface,
    window_profiles,
    write_trend_csv,
)

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    flag: str
    parse: Callable[[str], object]
    default: object
    help: str
    dest: str | None = None
    is_flag: bool = False

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")

    @property
    def dest_name(self) -> str:
        return self.dest or self.key.replace("-", "_")


def _choice_arg(choices: Mapping[str, object], expected: str) -> Callable[[str], object]:
    """The parser of an option whose text is a key of ``choices``, giving
    its value; the error says it expected ``expected``."""
    def parse(text: str) -> object:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return choices[text]
    return parse


_step_arg = _choice_arg({"1h": HOUR, "30m": HALF_HOUR}, "1h or 30m")
_scale_arg = _choice_arg(dict(zip(SCALES, SCALES)), f"one of {', '.join(SCALES)}")
_features_arg = _choice_arg({"slope": "slope", "level": "level"}, "slope or level")
_metric_arg = _choice_arg(dict(zip(METRICS, METRICS)), f"one of {', '.join(METRICS)}")


def _weights_arg(text: str) -> tuple[float, float, float]:
    try:
        wh, wv, wd = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected wh,wv,wd (three numbers), got {text!r}") from None
    return wh, wv, wd


def _int_arg(lo: int, hi: float, expected: str) -> Callable[[str], int]:
    """The parser of an integer option from ``lo`` to ``hi``, whose error
    says it expected ``expected``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    return parse


_seed_arg = _int_arg(0, math.inf, "a non-negative integer")
_stations_arg = _int_arg(1, math.inf, "a positive integer")
_year_arg = _int_arg(1, 9999, "a year from 1 to 9999")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the pipeline reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: str) -> dict[str, str]:
    """The ``key=value`` lines of a config file, read as the data readers
    read a file: one UTF-8 byte order mark at its start is skipped, and a
    byte that is not UTF-8, and a key given a second time, raise
    ``ParseError`` with its line."""
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if error := undecoded_error(line, line_no):
                raise error
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in s.partition("="))
            if not sep or not key:
                raise ParseError(f"expected key=value, got {s!r}", line_no)
            if key in cfg:
                raise ParseError(f"duplicate config key {key!r}", line_no)
            cfg[key] = value
    return cfg


def _config_defaults(path: str, opts: Sequence[_Opt]) -> dict[str, object]:
    """The parsed value of each key of a config file, by option dest; the
    whole file is checked before any value is used."""
    config, allowed = _load_config(path), {o.key: o for o in opts}
    for key in config:
        if key not in allowed:
            raise ContractError(
                f"unknown config key {key!r}; allowed: {', '.join(sorted(allowed))}")
    parsed = {}
    for key, raw in config.items():
        o = allowed[key]
        try:
            parsed[o.dest_name] = o.parse(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ContractError(f"config key {key}: {exc}") from None
    return parsed


def _add_command(subs, name: str, help_text: str, opts: Sequence[_Opt], run) -> None:
    sp = subs.add_parser(name, help=help_text, description=help_text)
    sp.add_argument("--config", default=None, metavar="PATH",
                    help="key=value file supplying defaults for the options below")
    for o in opts:
        if o.is_flag:
            sp.add_argument(o.flag, dest=o.dest_name, action="store_true", help=o.help)
        else:
            sp.add_argument(o.flag, dest=o.dest_name, type=o.parse, default=o.default,
                            metavar=o.key.upper().replace("-", "_"), help=o.help)
    sp.set_defaults(_run=run, _opts=tuple(opts), _parser=sp)


# ---------------------------------------------------------------- synth

_SYNTH_OPTS = (
    _Opt("--out-dir", str, _REQUIRED, "directory for records.csv and metadata.csv"),
    _Opt("--stations", _stations_arg, 6, "number of stations to generate, at least 1"),
    _Opt("--years", int, 10, "calendar years per station"),
    _Opt("--start-year", _year_arg, 2000, "first year, 1-9999"),
    _Opt("--step", _step_arg, HOUR, "sampling step, 1h or 30m"),
    _Opt("--base", float, 10.0, "base temperature, degrees C"),
    _Opt("--diurnal-amplitude", float, 5.0, "amplitude of the daily cycle"),
    _Opt("--annual-amplitude", float, 8.0, "amplitude of the seasonal cycle"),
    _Opt("--trend", float, 0.02, "warming trend, degrees per year"),
    _Opt("--trend-spread", float, 0.0, "extra trend per station group index"),
    _Opt("--group-spread", float, 3.0, "extra base temperature per station group index"),
    _Opt("--noise-sd", float, 1.0, "observation noise standard deviation"),
    _Opt("--missing-rate", float, 0.0, "fraction of slots masked at random"),
    _Opt("--seed", _seed_arg, 0, "random seed, a non-negative integer"),
)


def _run_synth(ns) -> int:
    series, metas = synth_network(
        ns.stations, datetime(ns.start_year, 1, 1), n_years=ns.years, step=ns.step, base=ns.base,
        diurnal_amplitude=ns.diurnal_amplitude, annual_amplitude=ns.annual_amplitude,
        trend_per_year=ns.trend, trend_spread=ns.trend_spread, group_spread=ns.group_spread,
        noise_sd=ns.noise_sd, missing_rate=ns.missing_rate, seed=ns.seed)
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records(out / "records.csv", series)
    write_metadata(out / "metadata.csv", metas)
    print(f"wrote {out / 'records.csv'} and {out / 'metadata.csv'} ({ns.stations} stations)")
    return 0


# ---------------------------------------------------------------- impute

_IMPUTE_OPTS = (
    _Opt("--records", str, _REQUIRED, "input records CSV"),
    _Opt("--out", str, _REQUIRED, "output records CSV with gaps filled"),
    _Opt("--to-hourly", parse_bool, False, "collapse a 30-minute series to hourly means "
         "after filling", is_flag=True),
)


def _run_impute(ns) -> int:
    series = read_records(ns.records)
    out_series = []
    for sid in sorted(series):
        # Each raw series is released once its station is filled, and a
        # filled series that is collapsed once it is.
        filled = seasonal_split_impute(series.pop(sid))
        out_series.append(to_hourly(filled) if ns.to_hourly else filled)
        del filled
    write_records(ns.out, out_series)
    print(f"wrote {ns.out} ({len(out_series)} stations)")
    return 0


# ---------------------------------------------------------------- aggregate

_AGGREGATE_OPTS = (
    _Opt("--records", str, _REQUIRED, "input records CSV (hourly, or 30m to be averaged)"),
    _Opt("--scale", _scale_arg, _REQUIRED, "window calendar: " + ", ".join(SCALES)),
    _Opt("--out", str, _REQUIRED, "output panel CSV"),
    _Opt("--skip-missing", parse_bool, False, "aggregate around masked slots instead of "
         "requiring an imputed series", is_flag=True),
)


def _run_aggregate(ns) -> int:
    cal = build_calendar(ns.scale)
    series = read_records(ns.records)
    # Each raw series is released once its station is aggregated.
    panels = [hourly_window_means(to_hourly(series.pop(sid)), cal,
                                  skip_missing=ns.skip_missing)
              for sid in sorted(series)]
    write_panel(ns.out, panels)
    print(f"wrote {ns.out} ({len(panels)} stations, scale {ns.scale})")
    return 0


# ---------------------------------------------------------------- trend

_TREND_OPTS = (
    _Opt("--panel", str, _REQUIRED, "input panel CSV"),
    _Opt("--out", str, _REQUIRED, "output trend CSV"),
    _Opt("--min-years", int, 3, "minimum valid years per cell"),
)


def _run_trend(ns) -> int:
    table = trend_surface(read_panel(ns.panel), min_years=ns.min_years)
    write_trend_csv(ns.out, table)
    print(f"wrote {ns.out} ({len(table)} cells)")
    return 0


# ---------------------------------------------------------------- contour

_CONTOUR_OPTS = (
    _Opt("--trend", str, _REQUIRED, "input trend CSV"),
    _Opt("--out", str, _REQUIRED, "output contour CSV with slope and p bands"),
)


def _run_contour(ns) -> int:
    table = contour_grid(read_trend_csv(ns.trend))
    write_contour_csv(ns.out, table)
    print(f"wrote {ns.out} ({len(table)} cells)")
    return 0


# ---------------------------------------------------------------- cluster

_CLUSTER_OPTS = (
    _Opt("--panel", str, _REQUIRED, "input panel CSV"),
    _Opt("--out-dir", str, _REQUIRED, "directory for per-window cluster outputs"),
    _Opt("--k", int, 4, "number of clusters"),
    _Opt("--window", str, None, "single window label to cluster (default: all windows)"),
    _Opt("--features", _features_arg, "slope",
         "per-hour feature: slope (Sen's slope across years) or level (mean)"),
    _Opt("--weights", _weights_arg, (1.0, 1.0, 2.0), "DTW move weights wh,wv,wd"),
    _Opt("--lambda", float, 0.0, "DTW off-diagonal penalty", dest="lam"),
    _Opt("--metric", _metric_arg, "absolute", "DTW local cost: absolute or squared"),
    _Opt("--meta", str, None, "station metadata CSV listing every panel station, as for "
         "radar; adds a readable cluster table"),
)


def _run_cluster(ns) -> int:
    panel = read_panel(ns.panel)
    windows = list(panel.labels) if ns.window is None else [ns.window]
    config = DtwConfig(*ns.weights, lam=ns.lam, metric=ns.metric)
    meta = read_metadata(ns.meta) if ns.meta else None
    # Every window is clustered, and its table rendered, before the first
    # file is written, so a window that fails leaves no output behind.
    results = []
    profiles = window_profiles(panel, windows, ns.features)
    del panel  # the profiles are all the DTW phase needs
    for label, dist in zip(windows, window_dtw(profiles, config)):
        rep = agglomerative_cluster(dist, ns.k)
        scores, mean = silhouette(dist, rep.assignment)
        table = None if meta is None else cluster_table(rep, scores, meta)
        results.append((label, dist, rep, scores, mean, table))
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for label, dist, rep, scores, mean, table in results:
        write_distance_csv(out / f"dtw_{label}.csv", dist)
        write_cluster_csv(out / f"clusters_{label}.csv", rep, scores)
        write_merges_csv(out / f"merges_{label}.csv", rep.merges)
        if table is not None:
            (out / f"cluster_table_{label}.txt").write_text(table, encoding="utf-8")
        print(f"{label}: k={ns.k} mean_silhouette={mean:.4f}")
    return 0


# ---------------------------------------------------------------- dcor

_DCOR_OPTS = (
    _Opt("--panel", str, _REQUIRED, "input panel CSV"),
    _Opt("--out", str, _REQUIRED, "output dcor CSV"),
    _Opt("--window", str, None, "single window label (default: all windows)"),
    _Opt("--n-perm", int, 199, "permutations for the p-value (>= 99)"),
    _Opt("--seed", _seed_arg, 0, "random seed, a non-negative integer"),
)


def _run_dcor(ns) -> int:
    panel = read_panel(ns.panel)
    windows = list(panel.labels) if ns.window is None else [ns.window]
    profiles = window_profiles(panel, windows, "level")
    scale, positions = panel.scale, [panel.labels.index(label) for label in windows]
    del panel  # the profiles are all the permutation tests need
    rows = []
    for label, position, window in zip(windows, positions, profiles):
        pairs = dcor_table(window, n_perm=ns.n_perm, seed=[ns.seed, position])
        rows += [(scale, label, *pair) for pair in pairs]
    write_dcor_csv(ns.out, rows)
    print(f"wrote {ns.out} ({len(rows)} pairs)")
    return 0


# ---------------------------------------------------------------- radar

_RADAR_OPTS = (
    _Opt("--clusters-dir", str, _REQUIRED,
         "directory holding monthly clusters_<Mon>.csv files"),
    _Opt("--meta", str, _REQUIRED, "station metadata CSV"),
    _Opt("--out", str, _REQUIRED, "output radar CSV"),
)


def _run_radar(ns) -> int:
    meta = read_metadata(ns.meta)
    monthly = {}
    for mon in MONTH_ABBR:
        path = Path(ns.clusters_dir) / f"clusters_{mon}.csv"
        if path.exists():
            monthly[mon] = read_cluster_csv(path)
    if not monthly:
        raise EmptyInputError(f"no clusters_<Mon>.csv files found in {ns.clusters_dir}")
    rows = radar_sheet(monthly, meta)
    write_radar_csv(ns.out, rows)
    print(f"wrote {ns.out} ({len(rows)} rows, {len(monthly)} months)")
    return 0


# ---------------------------------------------------------------- driver

_COMMANDS = (
    ("synth", "generate synthetic station records and metadata", _SYNTH_OPTS, _run_synth),
    ("impute", "fill gaps by within-month linear interpolation", _IMPUTE_OPTS, _run_impute),
    ("aggregate", "average hourly records into window/hour panels", _AGGREGATE_OPTS,
     _run_aggregate),
    ("trend", "Mann-Kendall, Sen's slope and serial-correlation screening", _TREND_OPTS,
     _run_trend),
    ("contour", "bin trend cells into slope and p-value bands", _CONTOUR_OPTS, _run_contour),
    ("cluster", "DTW distances, average-linkage clusters and silhouettes", _CLUSTER_OPTS,
     _run_cluster),
    ("dcor", "pairwise distance correlation with a permutation test", _DCOR_OPTS, _run_dcor),
    ("radar", "summarize monthly clusterings by region", _RADAR_OPTS, _run_radar),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diurnal",
                     description="diurnal temperature pattern analysis pipeline")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, help_text, opts, run in _COMMANDS:
        _add_command(subs, name, help_text, opts, run)
    return parser


def cli(argv: Sequence[str] | None = None) -> int:
    """Run the pipeline CLI; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "_run"):
        parser.error("a subcommand is required")
    try:
        if args.config:
            # The file's values are the defaults, so a command-line flag wins (argparse
            # parses a text default again; each option's parser gives its text back).
            args._parser.set_defaults(**_config_defaults(args.config, args._opts))
            args = parser.parse_args(argv)
        for o in args._opts:
            if getattr(args, o.dest_name) is _REQUIRED:
                raise ContractError(f"missing required option {o.flag}")
        return args._run(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
