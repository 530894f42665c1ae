"""Benchmark of the ``diurnal`` CLI pipeline on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from the seed, each CLI stage runs in a fresh
interpreter with one BLAS/OpenMP thread, and every output is verified by the
oracles in ``verify.py``. The stage chain repeats while it fits in S seconds.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one traced chain runs and the last line reports the
per-layer metrics. The lines before it give every metric by name
and unit, the error rate, the output fingerprints and the run record.
Exit status is 2 when the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gen import sha256
from stage import spin
from verify import verify
from workloads import ANALYSIS_STAGES, STAGES, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
RUN_LIMIT_S = 165.0      # the whole run, generation and verification included
SETUP_PROBES = 5
MAX_REPS = 20            # samples per stage at most
# Time of one stage.SpeedSampler sample at the reference speed: reported times
# are wall times scaled to this speed (about the typical speed of the 2-vCPU
# virtual machine the benchmark was built on).
SPEED_SAMPLE_S = 2.5e-4
# When the host slows, stage time grows about as this power of the sample
# time (measured; see README.md, "Reference speed").
SPEED_EXPONENT = 1.5

END_TO_END = (("pipeline_s", "s"), ("analysis_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in reporting order."""
    spans = ("ingest.read_records", "ingest.write_records", "ingest.to_hourly",
             "impute.seasonal_split_impute", "aggregate.hourly_window_means",
             "aggregate.write_panel", "aggregate.read_panel", "trend.trend_surface",
             "trend.write_trend_csv", "trend.read_trend_csv", "similarity.pairwise_dtw",
             "similarity.agglomerative_cluster", "similarity.silhouette",
             "similarity.dcor_permutation_test", "report.contour_grid",
             "report.write_contour_csv", "report.radar_sheet", "report.read_cluster_csv")
    out = [(f"{s}.s", "s", "lower") for s in spans]
    out += [("ingest.read_records.cpu_s", "s", "lower")]
    out += [(f"{s}.calls", "count", "lower") for s in (
        "aggregate.read_panel", "aggregate.year_series", "trend.mk_test", "trend.sen_slope",
        "similarity.dtw_distance")]
    out += [(c, "count", "lower") for c in (
        "ingest.rows_read", "ingest.bytes_read", "ingest.rows_written", "ingest.bytes_written",
        "impute.slots_filled", "trend.cells", "trend.mk_pairs", "similarity.dcor_permutations")]
    out += [("similarity.dtw_cells_per_s", "cells/s", "higher")]
    for stage in STAGES:
        out += [(f"cli.{stage}.s", "s", "lower"), (f"cli.{stage}.self_s", "s", "lower"),
                (f"cli.{stage}.rss_mb", "MB", "lower")]
    out += [("trace.overhead_s", "s", "lower"), ("trace.coverage", "ratio", "higher")]
    return out


PER_LAYER = _layer_metrics()
# Counters and the function whose wrapper produces them.
COUNTER_SOURCE = {
    "ingest.rows_read": "ingest.read_records", "ingest.bytes_read": "ingest.read_records",
    "ingest.rows_written": "ingest.write_records",
    "ingest.bytes_written": "ingest.write_records",
    "impute.slots_filled": "impute.seasonal_split_impute",
    "trend.cells": "trend.trend_surface", "trend.mk_pairs": "trend.mk_test",
    "similarity.dcor_permutations": "similarity.dcor_permutation_test",
}


def reference_s() -> float:
    """A fixed pure-Python loop between chains, recorded but not used to scale."""
    return spin(1_500_000)


def speed_factor(samples: list[float]) -> float:
    """Reference-speed seconds per measured second, from speed samples taken at
    even intervals: each interval counts (SPEED_SAMPLE_S / sample) ** SPEED_EXPONENT."""
    return statistics.fmean((SPEED_SAMPLE_S / x) ** SPEED_EXPONENT for x in samples)


def speed_scale(results: list[dict]) -> tuple[list[tuple[float, float]], float | None]:
    """Per process, the speed factors of its (set-up, stage).

    A stage is scaled by the samples taken while it ran and its set-up by those
    taken right after set-up; a stage too short to be sampled uses its set-up
    samples. Without any samples times are left unscaled.
    """
    pooled = [x for r in results for x in r.get("speed", []) + r.get("setup_speed", [])]
    if not pooled:
        return [(1.0, 1.0)] * len(results), None
    scales = []
    for r in results:
        setup = speed_factor(r.get("setup_speed") or pooled)
        scales.append((setup, speed_factor(r["speed"]) if r.get("speed") else setup))
    return scales, statistics.median(pooled)


class Runner:
    """Starts stage processes inside one run's work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)

    def stage(self, argv: list[str], trace: bool) -> dict:
        self.count += 1
        result_path = self.work / f"stage-{self.count}.json"
        log = self.work / f"stage-{self.count}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"rc": None, "error": "run time limit reached", "argv": argv}
        with open(log, "wb") as out:
            spawn_t = time.monotonic()
            cmd = [sys.executable, str(HERE / "stage.py"), str(result_path), repr(spawn_t),
                   "1" if trace else "0", str(SRC), "--", *argv]
            try:
                subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env,
                               cwd=self.work, timeout=remaining, check=False)
            except subprocess.TimeoutExpired:
                return {"rc": None, "error": "stage timed out", "argv": argv}
        try:
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            return {"rc": None, "error": f"stage wrote no result:\n{tail}", "argv": argv}

    def chain(self, argvs: list[list[str]], out_dir: Path, fresh: bool = True,
              trace: bool = False) -> list[dict]:
        """Run stages in order until one fails; ``fresh`` clears earlier outputs first."""
        if fresh:
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
        results = []
        for argv in argvs:
            results.append(self.stage(argv, trace))
            if results[-1].get("rc") != 0:
                break
        return results


def fingerprints(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): sha256(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_values(traced: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics from the traced chain's spans and counters."""
    wall: dict[str, float] = {}
    cpu: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    missing: set[str] = set()
    values: dict[str, float | None] = {}
    covered = total = 0.0
    for r in traced:
        spans = r.get("spans", [])
        missing.update(r.get("missing", []))
        for key, v in r.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + v
        kids: dict[int, list] = {}
        for name, parent, t0, t1, c0, c1 in spans:
            wall[name] = wall.get(name, 0.0) + (t1 - t0)
            cpu[name] = cpu.get(name, 0.0) + (c1 - c0)
            calls[name] = calls.get(name, 0) + 1
            kids.setdefault(parent, []).append((t0, t1))
        for i, (name, parent, t0, t1, _, _) in enumerate(spans):
            if parent == -1:
                self_s = (t1 - t0) - _union(kids.get(i, []))
                stage = name.split(".", 1)[1]
                values[f"cli.{stage}.s"] = t1 - t0
                values[f"cli.{stage}.self_s"] = self_s
                values[f"cli.{stage}.rss_mb"] = r["rss_mb"]
                covered += (t1 - t0) - self_s
                total += t1 - t0
    dtw_s = wall.get("similarity.pairwise_dtw", 0.0)
    values["similarity.dtw_cells_per_s"] = (
        counters.get("similarity.dtw_cells", 0) / dtw_s if dtw_s > 0 else 0.0)
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        source = COUNTER_SOURCE.get(name, base)
        if name.startswith("cli."):
            values[name] = 0.0          # stage not in this workload's chain
        elif source in missing or source + ":counters" in missing:
            values[name] = None         # the wrapped function no longer exists
        elif name in COUNTER_SOURCE:
            values[name] = counters.get(name, 0)
        elif kind == "s":
            values[name] = wall.get(base, 0.0)
        elif kind == "cpu_s":
            values[name] = cpu.get(base, 0.0)
        else:
            values[name] = calls.get(base, 0)
    if {"similarity.pairwise_dtw", "similarity.pairwise_dtw:counters"} & missing:
        values["similarity.dtw_cells_per_s"] = None
    values["trace.overhead_s"] = sum(r["overhead_s"] for r in traced)
    values["trace.coverage"] = covered / total if total > 0 else 0.0
    return values


def run_record(args, input_digests: dict, ref: list[float], speed: float | None) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "thread_pins": THREAD_PINS, "reference_s": ref, "inputs": input_digests,
        "speed_sample_s": speed, "speed_reference_s": SPEED_SAMPLE_S,
    }


def measure(args, work: Path) -> dict:
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    in_dir, out_dir = work / "in", work / "out"
    inputs = wl.generate(in_dir, args.seed)
    input_digests = inputs.digests()
    runner = Runner(work, deadline)
    argvs = wl.argvs(in_dir, out_dir)
    # The stages an analyst reruns on an existing panel, repeated when a full chain
    # no longer fits, so that short analysis stages get several samples too.
    suffix = argvs[next(i for i, a in enumerate(argvs) if a[0] in ANALYSIS_STAGES):]
    ref = [reference_s()]

    probes = [runner.stage([], False) for _ in range(SETUP_PROBES)]
    units: list[list[dict]] = []
    problems: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    attempted = failed = 0
    measured = 0.0
    took: dict[int, float] = {}

    def next_unit():
        if args.trace:
            return None
        runs = max(sum(1 for rs in units for r in rs if r["argv"][0] == a[0])
                   for a in suffix)
        first = units[0]
        guess = sum(r["stage_s"] + r["setup_s"] for r in first[len(argvs) - len(suffix):])
        for unit in (argvs, suffix):
            cost = took.get(len(unit), guess)
            if runs < MAX_REPS and measured + cost <= args.seconds \
                    and time.monotonic() + cost < deadline:
                return unit
        return None

    unit = argvs
    while unit is not None:
        t0 = time.monotonic()
        results = runner.chain(unit, out_dir, fresh=unit is argvs, trace=bool(args.trace))
        took[len(unit)] = time.monotonic() - t0
        measured += took[len(unit)]
        units.append(results)
        ok = len(results) == len(unit) and all(r.get("rc") == 0 for r in results)
        following = next_unit() if ok else None
        # Outputs are checked after the first chain and after the last unit.
        if ok and (len(units) == 1 or following is None):
            found = verify(wl, inputs, in_dir, out_dir, args.seed, stages=[a[0] for a in unit])
        else:
            found = {}
        if len(units) == 1:
            digests = fingerprints(out_dir)
        for r in results:
            stage = r["argv"][0]
            msgs = list(found.get(stage, []))
            if r.get("rc") != 0:
                msgs.append(f"exit {r.get('rc')}: {r.get('error', '')}".strip())
            attempted += 1
            failed += bool(msgs)
            problems.setdefault(stage, []).extend(f"unit {len(units)}: {m}" for m in msgs)
        unit = following if ok and not failed else None
    ref.append(reference_s())

    untraced = probes + ([] if args.trace else [r for results in units for r in results])
    scales, speed = speed_scale(untraced)
    per_stage: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for r, (_, scale) in zip(untraced, scales):
        if r.get("rc") == 0 and r["argv"]:
            per_stage.setdefault(r["argv"][0], []).append(r["stage_s"] * scale)
            wall.setdefault(r["argv"][0], []).append(r["stage_s"])
    layers = None
    if args.trace and len(units[0]) == len(argvs) and not failed:
        layers = layer_values(units[0])
    complete = layers is not None if args.trace else len(per_stage) == len(argvs)
    correct = failed == 0 and complete and all(p.get("rc") == 0 for p in probes)
    return {
        "record": run_record(args, input_digests, ref, speed), "per_stage": per_stage,
        "wall": wall,
        "setup": [r["setup_s"] * scale for r, (scale, _) in zip(untraced, scales)
                  if "setup_s" in r],
        "rss": [r["rss_mb"] for r in untraced[len(probes):] if "rss_mb" in r],
        "layers": layers, "digests": digests, "correct": correct,
        "problems": {k: v for k, v in problems.items() if v},
        "attempted": attempted, "failed": failed,
        "spans": [r.get("spans", []) for r in units[0]] if layers is not None else None,
    }


def end_to_end(res: dict) -> dict[str, float]:
    """pipeline_s and analysis_s sum each stage's median time over the run."""
    medians = {stage: statistics.median(v) for stage, v in res["per_stage"].items()}
    return {
        "pipeline_s": sum(medians.values()),
        "analysis_s": sum(v for stage, v in medians.items() if stage in ANALYSIS_STAGES),
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": max(res["rss"]),
    }


def report(args, res: dict) -> dict:
    """Print the human-readable summary and return the final JSON object."""
    print("run-record " + json.dumps(res["record"], sort_keys=True))
    for name, path_digest in sorted(res["digests"].items()):
        print(f"fingerprint {args.workload} {name} {path_digest}")
    for stage, msgs in res["problems"].items():
        for msg in msgs:
            print(f"verify FAIL {stage}: {msg}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"error_rate {rate} ({res['failed']} of {res['attempted']} stage invocations)")
    for stage, vals in res["per_stage"].items():
        q1, med, q3 = quartiles(vals)
        print(f"stage {stage} median={med!r} q1={q1!r} q3={q3!r} n={len(vals)} s "
              f"(wall median={statistics.median(res['wall'][stage])!r} s)")
    if res["setup"]:
        q1, med, q3 = quartiles(res["setup"])
        print(f"setup median={med!r} q1={q1!r} q3={q3!r} n={len(res['setup'])} s")
    metrics = {}
    if res["per_stage"] and res["setup"] and res["rss"]:
        units = dict(END_TO_END)
        for name, value in end_to_end(res).items():
            print(f"metric {name} {value!r} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
        walls = {stage: statistics.median(v) for stage, v in res["wall"].items()}
        print(f"wall pipeline_s {sum(walls.values())!r} s (unscaled; median speed sample "
              f"{res['record']['speed_sample_s']!r} s against {SPEED_SAMPLE_S!r} s)")
    if args.trace:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            value = (res["layers"] or {}).get(name)
            print(f"layer {name} {'absent' if value is None else repr(value)} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": res["correct"], "attempted": max(res["attempted"], 1),
            "failed": res["failed"] if res["attempted"] else 1, "metrics": metrics}


def save(args, res: dict, final: dict) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = res.pop("spans")
    if spans is not None:
        with open(out / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(res, final=final), fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "diurnal" / "cli.py").is_file():
        print(f"error: no diurnal package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    final = report(args, res)
    save(args, res, final)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
