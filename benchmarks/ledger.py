#!/usr/bin/env python3
"""Append one measured record of a workload to its ``BENCH_<workload>.json`` ledger.

Usage, from the repository root::

    python3 benchmarks/ledger.py --workload train-dp --seeds 0-4
    python3 benchmarks/ledger.py --workload train-dp --seeds 0-4 --checkout ../parent
    python3 benchmarks/ledger.py --smoke

For one workload and a seed list it runs ``benchmarks/e2e/run.py`` inside
``--checkout`` (default: this repository) through ``ab.run_once``: one
untraced run per seed, each lasting ``run_seconds`` from
``BENCHMARK.json``, and one traced run on the first seed.  It then calls
the checkout's ``benchmarks/mem_probe.py`` ``probe()`` in a child process
for the ``tracemalloc`` set-up and loop peaks.  A record holds

* ``sha`` (the runs' ``git_sha``) and ``label`` (``--label``, else the
  short sha, with ``+dirty`` when tracked files differ from the commit);
* ``env``, the environment line of the first run;
* ``end_to_end``: per metric, the per-seed ``values`` (in ``seeds``
  order) and their ``median``, ``q1``, ``q3`` and ``min``;
* ``per_layer``: the traced run's metrics (self times, calls, counters);
* ``memory``: ``setup_peak_mb``, ``loop_peak_mb`` and the probe's
  ``peak_rss_mb`` (null for a checkout without the probe).

The record goes to ``BENCH_<workload>.json`` at the repository root, a
JSON list in the order written; a record with the same sha and label
replaces the old one.  The script then prints
``benchmarks/e2e/compare.py``'s table of the new per-seed values against
the previous record in the file.  The exit code is 1 when compare reads
a metric as ``worse``.  ``--smoke`` writes one smoke-size seed of
``--workload`` (default train-mp) to a temporary directory, compares the
record with itself and deletes the directory: a check that the tool
runs, whose exit code ignores the verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import ab  # noqa: E402

# ab puts benchmarks/e2e on the path.
import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
PROBE_REPS = 3


def run_lines(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool, trace: int) -> tuple[dict, dict]:
    """The environment line and the result of one ``run.py`` run."""
    env, result = ab.run_once(checkout, workload, seed, seconds, smoke, trace).splitlines()[-2:]
    return json.loads(env), json.loads(result)


def memory(checkout: Path, workload: str, seed: int, smoke: bool) -> dict | None:
    """``mem_probe.probe()`` of ``checkout`` in a child process; None when the checkout has no probe."""
    if not (checkout / "benchmarks" / "mem_probe.py").is_file():
        return None
    code = (
        "import json, sys; sys.path.insert(0, 'benchmarks'); from mem_probe import probe; "
        f"print(json.dumps(probe({workload!r}, {seed}, {1 if smoke else PROBE_REPS}, {smoke})))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=checkout, env={**os.environ, **ONE_BLAS_THREAD}, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{checkout}: mem_probe {workload} seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return {name: probe[name] for name in ("setup_peak_mb", "loop_peak_mb", "peak_rss_mb")}


def dirty(checkout: Path) -> bool:
    """True when tracked files in ``checkout`` differ from its commit."""
    done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout, capture_output=True, text=True)
    return done.returncode == 0 and bool(done.stdout.strip())


def summary(values: list[float]) -> dict:
    q1, median, q3 = compare.quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "min": min(values)}


def measure(checkout: Path, workload: str, seeds: list[int], seconds: float, smoke: bool, label: str | None) -> dict:
    """Run the workload's seeds, its traced run and its memory probe; the ledger record."""
    runs = []
    for seed in seeds:
        print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
        runs.append(run_lines(checkout, workload, seed, seconds, smoke, 0))
    print(f"{workload} seed {seeds[0]} traced", file=sys.stderr, flush=True)
    _, traced = run_lines(checkout, workload, seeds[0], seconds, smoke, 1)
    env = runs[0][0]
    sha = env["env"]["git_sha"]
    return {
        "sha": sha,
        "label": label or sha[:12] + ("+dirty" if dirty(checkout) else ""),
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "smoke": smoke,
        "env": env["env"],
        "end_to_end": {m["name"]: summary([result["metrics"][m["name"]]["value"] for _, result in runs]) for m in SPEC["end_to_end"]},
        "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        "memory": memory(checkout, workload, seeds[0], smoke),
    }


def per_seed(record: dict) -> dict[str, dict[int, dict]]:
    """A record's end-to-end values in ``compare.load``'s shape: workload → seed → metric values."""
    e2e = record["end_to_end"]
    return {record["workload"]: {seed: {name: e2e[name]["values"][i] for name in e2e} for i, seed in enumerate(record["seeds"])}}


def append(path: Path, record: dict) -> dict | None:
    """Write ``record`` into the ledger at ``path``; returns the previous record (None for the first)."""
    ledger = json.loads(path.read_text()) if path.is_file() else []
    key = (record["sha"], record["label"])
    ledger = [old for old in ledger if (old["sha"], old["label"]) != key]
    previous = ledger[-1] if ledger else None
    path.write_text(json.dumps(ledger + [record], indent=1) + "\n")
    return previous


def verdict(previous: dict, record: dict) -> bool:
    """Print compare's table of ``record`` against ``previous``; True when a metric reads ``worse``."""
    print(f"{record['workload']}: {previous['label']} -> {record['label']}")
    lines, any_worse = compare.compare(per_seed(previous), per_seed(record), SPEC)
    print("\n".join(lines))
    return any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ab.WORKLOAD_NAMES, help="required unless --smoke (default train-mp)")
    parser.add_argument("--seeds", default="0-4", help="seed list: 0-4, or 1,4,7 (default 0-4)")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to measure (default: this repository)")
    parser.add_argument("--label", help="the record's name (default: the short sha, +dirty for a modified tree)")
    parser.add_argument("--smoke", action="store_true", help="one smoke-size seed into a temporary directory")
    args = parser.parse_args(argv)
    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="ledger-smoke-") as out_dir:
            record = measure(args.checkout.resolve(), args.workload or "train-mp", [0], 0.0, True, args.label)
            append(Path(out_dir) / f"BENCH_{record['workload']}.json", record)
            verdict(record, record)
        return 0
    if args.workload is None:
        parser.error("give --workload, or --smoke")
    record = measure(args.checkout.resolve(), args.workload, ab.parse_seeds(args.seeds), ab.RUN_SECONDS, False, args.label)
    path = ROOT / f"BENCH_{args.workload}.json"
    previous = append(path, record)
    print(f"wrote {record['label']} to {path}")
    if previous is None:
        print("first record of this ledger: nothing to compare")
        return 0
    return 1 if verdict(previous, record) else 0


if __name__ == "__main__":
    sys.exit(main())
