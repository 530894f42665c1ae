"""The four benchmark workloads: inputs, stage chains and why each exists."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

# Stages whose input is a panel; their summed time is ``analysis_s``.
ANALYSIS_STAGES = ("trend", "contour", "cluster", "radar", "dcor")
STAGES = ("impute", "aggregate") + ANALYSIS_STAGES


@dataclass(frozen=True)
class Workload:
    name: str
    wid: int
    why: str
    inputs: dict            # keyword arguments for the generator
    chain: tuple            # argv templates, {in} = inputs dir, {out} = outputs dir
    # What the verifier needs to know about the chain.
    impute_to_hourly: bool = False
    aggregate_scale: str | None = None
    aggregate_input: str = "filled"     # "filled" (impute output) or "raw"
    cluster_k: int | None = None
    cluster_windows: tuple = ()
    dcor_window: str | None = None

    def generate(self, in_dir: Path, seed: int) -> gen.Inputs:
        if "step_min" in self.inputs:
            return gen.generate_records(in_dir, seed, self.wid, **self.inputs)
        return gen.generate_panel(in_dir, seed, self.wid, **self.inputs)

    def argvs(self, in_dir: Path, out_dir: Path) -> list[list[str]]:
        return [[a.format(**{"in": in_dir, "out": out_dir}) for a in argv.split()]
                for argv in self.chain]

    @property
    def stages(self) -> list[str]:
        return [argv.split()[0] for argv in self.chain]

    def outputs(self) -> dict[str, str]:
        """Each stage's output file or directory, relative to the outputs dir."""
        out = {}
        for argv in self.chain:
            words = argv.split()
            flag = "--out" if "--out" in words else "--out-dir"
            out[words[0]] = words[words.index(flag) + 1].replace("{out}/", "")
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "archive", 1,
        "I/O-bound hourly archive (4 stations x 16 y, 2% gaps): CSV read/write "
        "dominates, the similarity kernels do almost nothing",
        dict(n_stations=4, n_years=16, step_min=60, gap_rate=0.02),
        ("impute --records {in}/records.csv --out {out}/filled.csv",
         "aggregate --records {out}/filled.csv --scale 30d --out {out}/panel.csv",
         "trend --panel {out}/panel.csv --out {out}/trend.csv",
         "contour --trend {out}/trend.csv --out {out}/contour.csv",
         "cluster --panel {out}/panel.csv --out-dir {out}/clusters --k 2 "
         "--meta {in}/metadata.csv",
         "radar --clusters-dir {out}/clusters --meta {in}/metadata.csv --out {out}/radar.csv",
         "dcor --panel {out}/panel.csv --out {out}/dcor.csv --window Jan"),
        aggregate_scale="30d", cluster_k=2, cluster_windows=gen.MONTHS,
        dcor_window="Jan"),
    Workload(
        "gappy", 2,
        "30-min records with 15% gaps and outages: reads 4 rows per row written, "
        "step inference, to_hourly, empty fields and 60db partial windows",
        dict(n_stations=4, n_years=8, step_min=30, gap_rate=0.15, outages=6),
        ("aggregate --records {in}/records.csv --skip-missing --scale 60db "
         "--out {out}/panel.csv",
         "impute --records {in}/records.csv --to-hourly --out {out}/filled.csv",
         "trend --panel {out}/panel.csv --out {out}/trend.csv"),
        impute_to_hourly=True, aggregate_scale="60db", aggregate_input="raw"),
    Workload(
        "network", 3,
        "monthly analysis of 24 stations x 12 y from a panel: per-cell trend loop "
        "and scalar DTW dominate, no records CSV",
        dict(n_stations=24, n_years=12),
        ("trend --panel {in}/panel.csv --out {out}/trend.csv",
         "contour --trend {out}/trend.csv --out {out}/contour.csv",
         "cluster --panel {in}/panel.csv --out-dir {out}/clusters --k 4 "
         "--meta {in}/metadata.csv",
         "radar --clusters-dir {out}/clusters --meta {in}/metadata.csv --out {out}/radar.csv",
         "dcor --panel {in}/panel.csv --out {out}/dcor.csv --window Jul"),
        cluster_k=4, cluster_windows=gen.MONTHS, dcor_window="Jul"),
    Workload(
        "dense", 4,
        "80 stations, one window: the only workload where average linkage's cubic "
        "cost matters; never calls trend",
        dict(n_stations=80, n_years=10),
        ("cluster --panel {in}/panel.csv --out-dir {out}/clusters --window Jul --k 4 "
         "--meta {in}/metadata.csv",
         "radar --clusters-dir {out}/clusters --meta {in}/metadata.csv --out {out}/radar.csv"),
        cluster_k=4, cluster_windows=("Jul",)),
)}
