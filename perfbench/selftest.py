"""Self-test of the verifier: every oracle must flag a perturbed output.

    python3 perfbench/selftest.py [SEED]

For each workload this runs the stage chain once on its seeded inputs,
requires the outputs to verify clean, then perturbs one value of one output
at a time (restoring it afterwards) and requires ``verify`` to report a
problem for the stage that wrote it. Prints one PASS/FAIL line per case and
exits 1 if any case fails.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys
from pathlib import Path

import run
import verify as verify_module
from verify import Context, trend_rows, verify
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def edit(lines: list[str], row: int, column: str, change) -> None:
    """Apply ``change`` to one field of data row ``row`` (0-based, header excluded)."""
    header = next(csv.reader([lines[0]]))
    fields = next(csv.reader([lines[row + 1]]))
    c = header.index(column)
    fields[c] = change(fields[c])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    lines[row + 1] = buf.getvalue()


def plus(delta):
    return lambda text: repr(float(text) + delta)


def drop_last(lines: list[str]) -> None:
    lines.pop()


# Each case: (stage, output file, what is perturbed, how, text the problem must contain).

def impute_cases(ctx: Context):
    rec = ctx.inputs.records
    miss = rec.missing[ctx.station_ids[0]]
    if ctx.workload.impute_to_hourly:
        miss = miss[0::2] | miss[1::2]
    observed, filled = int((~miss).argmax()), int(miss.argmax())
    yield ("impute", "filled.csv", "observed value + 0.1",
           lambda ls: edit(ls, observed, "temp_c", plus(0.1)), "bit-for-bit")
    yield ("impute", "filled.csv", "filled value + 50",
           lambda ls: edit(ls, filled, "temp_c", plus(50.0)), "month-pool neighbours")
    yield ("impute", "filled.csv", "last row dropped", drop_last, "rows, expected")


def aggregate_cases(ctx: Context):
    with open(ctx.out_dir / "panel.csv", encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1
    row = ctx.aggregate_rows(n_rows)[0]
    yield ("aggregate", "panel.csv", "sampled cell mean + 1e-6",
           lambda ls: edit(ls, row, "mean_temp", plus(1e-6)), "recomputed")
    yield ("aggregate", "panel.csv", "last row dropped", drop_last, "rows, expected")


def trend_cases(ctx: Context):
    index, _ = trend_rows(ctx)
    row = index[ctx.trend_cells(index)[1][0]]
    first = ctx.station_ids[0]

    def shift_station(ls):
        for r in range(len(ls) - 1):
            if ls[r + 1].startswith(first + ","):
                edit(ls, r, "sen_slope", plus(0.1))
    yield ("trend", "trend.csv", "sampled S + 2",
           lambda ls: edit(ls, row, "S", lambda s: str(int(s) + 2)), "pair enumeration")
    yield ("trend", "trend.csv", "sampled Sen slope x (1 + 1e-10)",
           lambda ls: edit(ls, row, "sen_slope", lambda s: repr(float(s) * (1 + 1e-10) + 1e-14)),
           "sorted median")
    yield ("trend", "trend.csv", f"every slope of {first} + 0.1", shift_station,
           "does not recover")
    yield ("trend", "trend.csv", "last row dropped", drop_last, "testable cells")


def contour_cases(ctx: Context):
    top = verify_module.SLOPE_BANDS[3]
    yield ("contour", "contour.csv", "slope band of row 1 changed",
           lambda ls: edit(ls, 0, "slope_band",
                           lambda b: top if b != top else verify_module.SLOPE_BANDS[2]),
           "bands")
    yield ("contour", "contour.csv", "last row dropped", drop_last, "rows, trend.csv")


def cluster_cases(ctx: Context):
    label = ctx.workload.cluster_windows[0]
    i, j = ctx.dtw_pairs(0)[0]
    sids = ctx.station_ids
    dtw, clusters = f"clusters/dtw_{label}.csv", f"clusters/clusters_{label}.csv"

    def both(ls):
        edit(ls, i, sids[j], plus(1e-6))
        edit(ls, j, sids[i], plus(1e-6))

    def swap(ls):
        ids = [next(csv.reader([line]))[1] for line in ls[1:]]
        other = next(r for r, cid in enumerate(ids) if cid != ids[0])
        edit(ls, 0, "cluster_id", lambda _: ids[other])
        edit(ls, other, "cluster_id", lambda _: ids[0])
    yield ("cluster", dtw, f"sampled pair ({sids[i]}, {sids[j]}) + 1e-6 both ways", both,
           "DP oracle")
    yield ("cluster", dtw, "one entry + 1", lambda ls: edit(ls, i, sids[j], plus(1.0)),
           "not symmetric")
    yield ("cluster", clusters, "silhouette set to 1.5",
           lambda ls: edit(ls, 0, "silhouette", lambda s: "1.5"), "outside [-1, 1]")
    yield ("cluster", clusters, "silhouette + 1e-6",
           lambda ls: edit(ls, 0, "silhouette", plus(1e-6)), "silhouette of")
    yield ("cluster", clusters, "two stations swap clusters", swap, "merge tree cut")
    yield ("cluster", f"clusters/merges_{label}.csv", "first merge height + 1e-6",
           lambda ls: edit(ls, 0, "height", plus(1e-6)), "average linkage")


def radar_cases(ctx: Context):
    yield ("radar", "radar.csv", "count of row 1 + 1",
           lambda ls: edit(ls, 0, "count", lambda s: str(int(s) + 1)), "recomputed")
    yield ("radar", "radar.csv", "mean silhouette of row 1 + 1e-6",
           lambda ls: edit(ls, 0, "mean_silhouette", plus(1e-6)), "recomputed")
    yield ("radar", "radar.csv", "last row dropped", drop_last, "rows, expected")


def dcor_cases(ctx: Context):
    yield ("dcor", "dcor.csv", "dcor of row 1 + 1e-6",
           lambda ls: edit(ls, 0, "dcor", plus(1e-6)), "double-centring oracle")
    yield ("dcor", "dcor.csv", "p of row 1 + 0.001",
           lambda ls: edit(ls, 0, "p_value", plus(0.001)), "whole count")
    yield ("dcor", "dcor.csv", "last row dropped", drop_last, "pairs, expected")


CASES = {"impute": impute_cases, "aggregate": aggregate_cases, "trend": trend_cases,
         "contour": contour_cases, "cluster": cluster_cases, "radar": radar_cases,
         "dcor": dcor_cases}


def check_workload(wl, seed: int, work: Path) -> list[bool]:
    in_dir, out_dir = work / "in", work / "out"
    inputs = wl.generate(in_dir, seed)
    runner = run.Runner(work, deadline=float("inf"))
    results = runner.chain(wl.argvs(in_dir, out_dir), out_dir)
    if len(results) != len(wl.chain) or any(r["rc"] != 0 for r in results):
        print(f"FAIL {wl.name}: the stage chain did not complete: {results[-1]}")
        return [False]
    clean = verify(wl, inputs, in_dir, out_dir, seed)
    if any(clean.values()):
        print(f"FAIL {wl.name}: unperturbed outputs do not verify: {clean}")
        return [False]
    print(f"PASS {wl.name}: unperturbed outputs verify")
    outcomes = []
    ctx = Context(wl, inputs, in_dir, out_dir, seed)
    for stage in wl.stages:
        for want, rel, what, perturb, expect in CASES[stage](ctx):
            path = out_dir / rel
            original = path.read_text(encoding="utf-8")
            lines = original.rstrip("\n").split("\n")
            perturb(lines)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                found = verify(wl, inputs, in_dir, out_dir, seed, stages=[want])[want]
            finally:
                path.write_text(original, encoding="utf-8")
            hit = [msg for msg in found if expect in msg]
            print(f"{'PASS' if hit else 'FAIL'} {wl.name} {want}: {what}: "
                  f"{hit[0] if hit else f'no problem mentioning {expect!r} in {found}'}")
            outcomes.append(bool(hit))
    return outcomes


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    if not (run.SRC / "diurnal" / "cli.py").is_file():
        print(f"error: no diurnal package under {run.SRC}", file=sys.stderr)
        return 2
    verify_module.MAX_MESSAGES = 1000   # report every problem, not the first few
    outcomes = []
    for wl in WORKLOADS.values():
        work = HERE / ".work" / f"selftest-{wl.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            outcomes += check_workload(wl, seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(outcomes)} of {len(outcomes)} self-test cases passed")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
