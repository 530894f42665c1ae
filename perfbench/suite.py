"""Run the benchmark over workloads and seeds and summarise every metric.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--sets 1]
                               [--seconds 20] [--trace-runs 1]

Each run is a separate ``run.py`` process, started the way BENCHMARK.json's
command starts it. For every workload and end-to-end metric this prints the
median, the quartiles, the sample count and the spread (q3 - q1) / median:
"ok" within a third of the metric's bound in BENCHMARK.json, "within bound"
within the bound, else "TOO WIDE". With ``--sets 2`` it also compares
the second set's median with the first. Runs that share a workload and seed
must produce byte-identical outputs: each stage whose output digests differ
counts as a failed stage invocation in the set's error rate. Per-layer
metrics come from ``--trace-runs`` traced runs per workload (median shown).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.exit(f"run.py failed for {workload} seed {seed}:\n{proc.stderr[-2000:]}")
    prints = {}
    for line in lines:
        if line.startswith("fingerprint "):
            _, _, name, digest = line.split(" ")
            prints[name] = digest
        elif line.startswith("verify FAIL"):
            print(f"  {workload} seed {seed}: {line}")
    return dict(json.loads(lines[-1]), fingerprints=prints, workload=workload, seed=seed,
                took=time.monotonic() - t0)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = quartiles(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def determinism_failures(runs: list[dict]) -> list[str]:
    """Stages whose outputs differ between runs of one workload and seed."""
    first: dict = {}
    out = []
    for r in runs:
        key = (r["workload"], r["seed"])
        if key not in first:
            first[key] = r["fingerprints"]
            continue
        ref, now = first[key], r["fingerprints"]
        for stage, path in WORKLOADS[r["workload"]].outputs().items():
            differ = sorted(f for f in set(ref) | set(now)
                            if (f == path or f.startswith(path + "/")) and ref.get(f) != now.get(f))
            if differ:
                out.append(f"{r['workload']} seed {r['seed']} {stage}: {', '.join(differ[:4])}"
                           + (f" and {len(differ) - 4} more" if len(differ) > 4 else ""))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace-runs", type=int, default=1)
    args = p.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else {}
    seconds = args.seconds or spec.get("run_seconds", 20)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    workloads = args.workloads.split(",")

    sets: list[list[dict]] = []
    for s in range(args.sets):
        runs = []
        for wl in workloads:
            for seed in seed_list(args.seeds):
                runs.append(run_once(wl, seed, seconds, 0))
                print(f"set {s + 1} {wl} seed {seed} ({runs[-1]['took']:.1f} s): "
                      f"{json.dumps(runs[-1]['metrics'])}", flush=True)
        sets.append(runs)
    all_runs = [r for runs in sets for r in runs]

    print("\nworkload  metric        median         q1             q3             n   "
          "spread  bound/3  verdict")
    for wl in workloads:
        first_medians = {}
        for i, runs in enumerate(sets):
            mine = [r for r in runs if r["workload"] == wl]
            for name in mine[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in mine]
                unit = mine[0]["metrics"][name]["unit"]
                med, q1, q3, sp = spread(vals)
                bound = bounds.get(name)
                verdict = "" if bound is None or name == "setup_s" else \
                    "ok" if sp <= bound / 3 else "within bound" if sp <= bound else "TOO WIDE"
                if i == 0:
                    first_medians[name] = med
                elif bound is not None:
                    worse = (med - first_medians[name]) / first_medians[name]
                    verdict += f"; set {i + 1} vs 1: {worse:+.3f} " + \
                        ("ok" if worse <= bound else "WORSE THAN BOUND")
                print(f"{wl:<9} {name:<13} {med:<14.6g} {q1:<14.6g} {q3:<14.6g} "
                      f"{len(vals):<3} {sp:<7.4f} {'' if bound is None else bound / 3:<8.4g} "
                      f"{verdict} [{unit}]")

    nondet = determinism_failures(all_runs)
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs) + len(nondet)
    for line in nondet:
        print(f"determinism FAIL {line}")
    print(f"\nerror_rate {failed / attempted!r} ({failed} of {attempted} stage invocations, "
          f"{len(nondet)} of them differing outputs between runs of one seed)")

    if args.trace_runs:
        print("\nper-layer metrics (median over traced runs)")
        for wl in workloads:
            traced = [run_once(wl, seed, seconds, 1)
                      for seed in seed_list(args.seeds)[:args.trace_runs]]
            for name, m in traced[0]["metrics"].items():
                vals = [r["metrics"][name]["value"] for r in traced]
                shown = "absent" if None in vals else repr(statistics.median(vals))
                print(f"{wl:<9} {name:<40} {shown} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
