"""Run one ``diurnal`` CLI stage in this fresh interpreter and record its cost.

    python3 stage.py RESULT_JSON SPAWN_T TRACE SRC_DIR -- ARGV...

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` spans interpreter start-up, importing ``diurnal.cli``
and building its parser. The stage itself is timed around
``diurnal.cli.cli(ARGV)``. With TRACE=1 the wrapper tracer is installed
first and the spans go into RESULT_JSON with the timings; otherwise a speed
sampler runs alongside the stage. Without ARGV the process is a set-up
probe: it starts, imports, builds the parser and stops.
"""

import contextlib
import signal
import sys
import time


def spin(n: int) -> float:
    """Seconds taken by a fixed pure-Python loop of n steps."""
    t = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


class SpeedSampler:
    """Times a short fixed loop every 50 ms of the stage, on the same CPU.

    The host's speed drifts by up to a half within and between runs on a
    shared machine. The loop runs at the same moments as the stage, so each
    sample measures the speed the stage got over its interval; run.py scales
    stage times by it. The samples cost about 0.5% and are subtracted.
    """

    INTERVAL_S = 0.05
    STEPS = 2000
    SETUP_SAMPLES = 10      # taken back to back right after set-up

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        return spin(self.STEPS)

    def _tick(self, signum, frame):
        self.samples.append(self.sample())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``VmHWM`` covers only the address space built after exec; ``ru_maxrss``
    would also count the parent's memory at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    result_path, spawn_t, trace, src_dir = sys.argv[1:5]
    argv = sys.argv[6:]
    import diurnal.cli
    diurnal.cli.build_parser()
    setup_s = time.monotonic() - float(spawn_t)
    # The speed the set-up ran at, for scaling it like the stage.
    sampler = SpeedSampler() if trace != "1" else None
    setup_speed = [sampler.sample() for _ in range(SpeedSampler.SETUP_SAMPLES)] if sampler else []

    import json
    import os
    import traceback

    result = {"setup_s": setup_s, "setup_speed": setup_speed, "argv": argv}
    module_dir = os.path.dirname(os.path.abspath(diurnal.cli.__file__))
    if module_dir != os.path.join(os.path.abspath(src_dir), "diurnal"):
        result.update(rc=None, error=f"imported diurnal from {module_dir}, not {src_dir}")
        run = None
    elif not argv:  # a set-up probe: start, import, build the parser, stop
        result["rc"] = 0
        run = None
    elif trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        name = f"cli.{argv[0]}"
        run = lambda: tracer.call(name, diurnal.cli.cli, argv)  # noqa: E731
    else:
        tracer = None
        run = lambda: diurnal.cli.cli(argv)  # noqa: E731

    if run is not None:
        with sampler or contextlib.nullcontext():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result["rc"] = run()
            except SystemExit as exc:  # argparse rejects the command line
                result["rc"] = exc.code
            except Exception:  # a crash is a failed stage, reported with its traceback
                result.update(rc=None, error=traceback.format_exc())
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        sampled = sum(sampler.samples) if sampler else 0.0
        result.update(stage_s=wall - sampled, cpu_s=cpu - sampled,
                      speed=sampler.samples if sampler else [])
        if tracer is not None:
            result.update(spans=tracer.spans, counters=tracer.counters,
                          missing=tracer.missing, overhead_s=tracer.overhead_s())
    result["rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
