"""cmkit benchmark: one workload, one process, one query at a time.

    python3 bench/run.py --workload {sweep,census,queries} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; cmkit is imported from the `src/` directory next to
this one.  Passes of the workload run in a closed loop until S seconds
have passed (at least one pass).  Every answer is checked after its pass,
out of the timed region.  With `--trace 0` the run prints the end-to-end
metrics; with `--trace 1` it alternates untraced and traced passes of the
same queries and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
and the metrics with their units.  See README.md for the workloads and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 15
SETUP_CODE = "import cmkit.cli; cmkit.cli.build_parser()"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_cmkit() -> None:
    """Put the checkout's sources first on the path and make sure they,
    not some other installed copy, are what gets imported."""
    if not (SRC / "cmkit" / "cli.py").is_file():
        raise ImportError(f"no cmkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmkit

    if Path(cmkit.__file__).resolve().parent != SRC / "cmkit":
        raise ImportError(f"cmkit imported from {cmkit.__file__}, not {SRC}")


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its
    parser, the cost every CLI call pays before any work."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def _passes(runner, seconds: float, tracer=None):
    """Untraced passes for `seconds`; with a tracer, each is followed by a
    traced pass of the same queries."""
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass(index))
        if tracer is not None:
            traced.append(runner.run_pass(index, tracer))
        index += 1
    return untraced, traced


def end_to_end(results, setup: list[float]) -> tuple[dict[str, float], dict[str, str]]:
    walls = [r.wall_s for r in results]
    latencies_ms = [t * 1e3 for r in results for t in r.latencies_s]
    rates = [r.records / r.wall_s for r in results]
    p90 = (
        statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1]
        if len(latencies_ms) > 1
        else latencies_ms[0]
    )
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "records_per_s": statistics.median(rates),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(walls)} passes",
        "records_per_s": f"median of {len(rates)} passes",
        "query_p50_ms": f"of {len(latencies_ms)} queries",
        "query_p90_ms": f"of {len(latencies_ms)} queries",
        "peak_rss_mb": "this process",
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_cmkit()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    import workloads
    from tracing import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print(
        f"cmkit benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"machine: cpus={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        runner = workloads.Runner(args.workload, args.seed, Path(workdir))
        if args.trace:
            tracer = Tracer()
            untraced, traced = _passes(runner, args.seconds, tracer)
            results = untraced + traced
            # tracing must not change a single answer
            same = all(u.digests == t.digests for u, t in zip(untraced, traced))
            values = tracer.metrics(
                [r.wall_s for r in untraced],
                [r.wall_s for r in traced],
                runner.cache_hits / len(results),
            )
            units = LAYER_METRICS
            notes = {name: f"{len(traced)} traced passes" for name in units}
        else:
            setup = measure_setup()
            results, _ = _passes(runner, args.seconds)
            same = True
            values, notes = end_to_end(results, setup)
            units = END_TO_END

    attempted = sum(len(r.latencies_s) for r in results)
    failed = sum(r.failed for r in results)
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:16.6f} {unit:6s} {notes[name]}")
    print(
        f"attempted={attempted} failed={failed} failed_frac={failed / attempted:g} "
        f"traced_equals_untraced={same}"
    )
    report = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
