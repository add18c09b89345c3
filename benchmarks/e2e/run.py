#!/usr/bin/env python3
"""End-to-end benchmark of the cuMF reproduction: one workload per process.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload train-mp --seed 0 --seconds 12 --trace 0

The workload's inputs come from ``--seed``; the measured loop repeats
for at least ``--seconds`` (and at least the workload's minimum number
of repetitions); every output is checked against plain-NumPy oracles.
Standard output is two JSON lines: the run's environment, then the
result ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the ``end_to_end`` list of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` list (``--trace 1``).  A traced run also writes the
chrome-trace JSON of its spans (``--trace-out``).  Progress and tables
go to standard error.  The exit code is 0 when every oracle passed, 1
when one failed and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".e2e_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-mp", "train-dp", "serve-replay", "serve-lifecycle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of each measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-out", type=Path, help="chrome-trace JSON of a traced run (default: .e2e_out/trace-<workload>-s<seed>.json)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/``; False when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (SRC, HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(SRC)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git ("unknown" outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seconds: float, calibrator) -> tuple[list[float], list[float], int]:
    """Repeat ``workload.rep`` for ``seconds``, at least ``min_reps`` times; raw walls, normalised walls, queries served."""
    raw, walls, queries = [], [], 0
    start = time.perf_counter()
    while len(walls) < workload.min_reps or time.perf_counter() - start < seconds:
        served, wall, normalised = calibrator.timed(workload.rep, len(walls))
        queries += served
        raw.append(wall)
        walls.append(normalised)
    return raw, walls, queries


def span_metrics(recorder, table: dict, reps: int, queries: int) -> dict:
    """Per-layer wall metrics of a traced loop, per repetition."""
    values = {}
    for name, row in table.items():
        values[f"{name}.self_s"] = row["self_s"] / reps
        values[f"{name}.calls"] = row["calls"] / reps
    store = table.get("store.recommend_batch")
    values["store.us_per_query"] = store["self_s"] / queries * 1e6 if store and queries else 0.0
    values["service.recommend.p50_us"] = recorder.percentile_us("service.recommend", 50)
    values["service.recommend.p99_us"] = recorder.percentile_us("service.recommend", 99)
    values["service.rate.p50_us"] = recorder.percentile_us("service.rate", 50)
    return values


def select(values: dict, wanted: list, required: bool, problems: list) -> dict:
    """The ``BENCHMARK.json`` metrics, by name and unit, from the computed values."""
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in values and required:
            raise KeyError(f"workload computed no value for {name}")
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            problems.append(f"{name} is not finite ({value})")
            value = 0.0
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    for var in BLAS_VARS:  # one process, one BLAS thread: pinned before NumPy loads
        os.environ[var] = "1"
    benchmark_file = ROOT / "BENCHMARK.json"
    if not import_program() or not benchmark_file.is_file():
        print(f"no repro package under {SRC} (or no {benchmark_file.name}): nothing to benchmark", file=sys.stderr)
        return 2
    import numpy as np

    from calibrate import Calibrator
    from spans import SpanRecorder
    from workloads import make_workload

    spec = json.loads(benchmark_file.read_text())
    SCRATCH.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.smoke, SCRATCH)
    calibrator = Calibrator()
    try:
        _, setup_raw, setups = zip(*(calibrator.timed(workload.setup) for _ in range(1 if args.smoke else 3)))
        workload.warmup()
        raw, walls, _ = measure(workload, args.seconds, calibrator)
        # Before finish(): the baselines and oracles it runs are not the workload.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log = {"setup_raw_s": setup_raw, "rep_raw_s": raw}
        if args.trace:
            values = workload.layer_counters(walls)
            # The traced loop also runs before finish(), so both loops see the
            # same allocator state.  The large blocks finish() frees raise
            # glibc's dynamic malloc thresholds; replays after it ran ~25%
            # faster (no difference with MALLOC_MMAP_THRESHOLD_ fixed).
            workload.setup()
            with SpanRecorder() as recorder:
                traced_raw, traced, queries = measure(workload, args.seconds, calibrator)
            workload.finish()
            table = recorder.self_times()
            values.update(span_metrics(recorder, table, len(traced), queries))
            values["trace_overhead"] = workload.rep_wall(traced) / workload.rep_wall(walls) - 1.0
            out = args.trace_out or SCRATCH / f"trace-{args.workload}-s{args.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(recorder.to_chrome(table)))
            log.update(traced_rep_raw_s=traced_raw, trace_file=str(out))
            print_table("self time per repetition", {k: v["self_s"] / len(traced) for k, v in table.items()}, "s")
            metrics = select(values, spec["per_layer"], False, workload.problems)
        else:
            workload.finish()
            values = workload.end_to_end(walls)
            values["setup_s"] = float(np.median(setups))
            values["peak_rss_mb"] = peak_rss_mb
            metrics = select(values, spec["end_to_end"], True, workload.problems)
        log.update(reference_s=calibrator.references)
    finally:
        workload.close()
        calibrator.close()

    correct = not workload.problems
    for problem in workload.problems[:20]:
        print(f"oracle: {problem}", file=sys.stderr)
    print_table(f"{args.workload} seed {args.seed}", {k: m["value"] for k, m in metrics.items()}, "")
    env = {
        "env": {
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "wall_s": time.perf_counter() - began,
        # Replays are open loops on the simulated clock: each query's
        # latency counts from its scheduled arrival, so the load
        # generator can never run late.
        "generator_lateness_s": 0.0,
        "problems": workload.problems[:20],
        **log,
    }
    print(json.dumps(env))
    result = {"correct": correct, "attempted": workload.attempted, "failed": workload.failed, "metrics": metrics}
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0 if correct else 1


def print_table(title: str, values: dict, unit: str) -> None:
    print(f"--- {title}", file=sys.stderr)
    for name in sorted(values):
        print(f"  {name:<34} {values[name]:>14.6g} {unit}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
