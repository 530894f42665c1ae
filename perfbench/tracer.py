"""Wrapper tracer: spans around diurnal's public functions, installed from outside.

Each traced function is replaced, in every ``diurnal.*`` namespace that binds
it, by one wrapper that records a span: name, parent span, wall start/end and
process CPU start/end. Spans stay in memory and are written out by the stage
runner when the stage ends. Counters (rows read, cells tested, ...) are
computed from arguments and results after the span has closed, so their cost
is not charged to the layer.
"""

from __future__ import annotations

import functools
import sys
import time

# Functions whose spans the per-layer metrics come from, followed by the
# remaining readers and writers the CLI stages call, so that coverage counts them.
TRACED = (
    "ingest.read_records", "ingest.write_records", "ingest.to_hourly",
    "impute.seasonal_split_impute",
    "aggregate.hourly_window_means", "aggregate.write_panel", "aggregate.read_panel",
    "aggregate.year_series",
    "trend.trend_surface", "trend.mk_test", "trend.sen_slope",
    "trend.write_trend_csv", "trend.read_trend_csv",
    "similarity.pairwise_dtw", "similarity.dtw_distance",
    "similarity.agglomerative_cluster", "similarity.silhouette",
    "similarity.dcor_permutation_test",
    "report.contour_grid", "report.write_contour_csv", "report.radar_sheet",
    "report.read_cluster_csv",
    "ingest.read_metadata", "similarity.write_distance_csv", "report.write_cluster_csv",
    "report.write_merges_csv", "report.cluster_table", "report.write_radar_csv",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def _file_size(path) -> int:
    with open(path, "rb") as fh:
        return fh.seek(0, 2)


def _count_read(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"ingest.rows_read": _data_rows(path), "ingest.bytes_read": _file_size(path)}


def _count_written(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"ingest.rows_written": _data_rows(path), "ingest.bytes_written": _file_size(path)}


def _count_filled(args, kwargs, result):
    return {"impute.slots_filled": int(_arg(args, kwargs, 0, "series").missing.sum())}


def _count_cells(args, kwargs, result):
    return {"trend.cells": len(result)}


def _count_pairs(args, kwargs, result):
    return {"trend.mk_pairs": result.n * (result.n - 1) // 2}


def _count_dtw_cells(args, kwargs, result):
    sizes = [len(p) for p in _arg(args, kwargs, 0, "profiles").values()]
    total = sum(sizes)
    # Every ordered pair (a, b), a != b, fills a len(a) x len(b) table.
    return {"similarity.dtw_cells": total * total - sum(s * s for s in sizes)}


def _count_perms(args, kwargs, result):
    return {"similarity.dcor_permutations": result.n_perm}


COUNTERS = {
    "ingest.read_records": _count_read,
    "ingest.write_records": _count_written,
    "impute.seasonal_split_impute": _count_filled,
    "trend.trend_surface": _count_cells,
    "trend.mk_test": _count_pairs,
    "similarity.pairwise_dtw": _count_dtw_cells,
    "similarity.dcor_permutation_test": _count_perms,
}


class Tracer:
    """Collects spans as lists ``[name, parent, start, end, cpu_start, cpu_end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.counter_s = 0.0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, 0.0, 0.0, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        span[4] = time.process_time()
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            span[5] = time.process_time()
            self._stack.pop()
        count = COUNTERS.get(name)
        if count is not None:
            t = time.perf_counter()
            try:
                counts = count(args, kwargs, result)
            except (KeyError, IndexError, AttributeError, TypeError, OSError):
                # The function's signature or result changed; its counters go absent.
                counts = {}
                self.missing.append(name + ":counters")
            for key, value in counts.items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.counter_s += time.perf_counter() - t
        return result

    def call_cost(self, n: int = 20000) -> float:
        """Seconds the wrapper adds to one call, measured on a no-op."""
        def noop():
            return None
        wrapped = self.wrap("trace.calibrate", noop)
        t = time.perf_counter()
        for _ in range(n):
            noop()
        direct = time.perf_counter() - t
        mark = len(self.spans)
        t = time.perf_counter()
        for _ in range(n):
            wrapped()
        traced = time.perf_counter() - t
        del self.spans[mark:]
        return max(0.0, (traced - direct) / n)

    def overhead_s(self) -> float:
        """What tracing added to the stage: the wrapper's cost per span, and
        the time spent computing counters."""
        return len(self.spans) * self.call_cost() + self.counter_s

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, names=TRACED) -> None:
        """Wrap each named function wherever a loaded ``diurnal`` module binds it.

        A name that no longer exists is recorded in ``missing`` instead.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "diurnal" or key.startswith("diurnal."))]
        for name in names:
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"diurnal.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
