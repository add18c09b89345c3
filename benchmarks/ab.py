#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two checkouts in alternating pairs.

Usage, from the repository root::

    python3 benchmarks/ab.py PARENT CHANGE --seeds 30-39 --workload serve-lifecycle
    python3 benchmarks/ab.py --smoke

For each seed and workload it runs ``benchmarks/e2e/run.py --trace 0``
once from each checkout, each as its own process started in that
checkout's root, so each side imports its own ``src/``.  Every run
lasts ``run_seconds`` from ``BENCHMARK.json``, the benchmark's own run
length.  The side that runs first alternates from seed to seed, so drift
on a shared machine lands on both sides alike.  Standard outputs go to
``.e2e_out/ab/a.jsonl`` and ``.e2e_out/ab/b.jsonl`` (truncated first),
and ``benchmarks/e2e/compare.py`` then prints its table over the two.
The exit code is 1 when a run fails or compare reads a metric as
``worse``.

``--smoke`` runs one seed of every workload at smoke size with this
checkout on both sides: it checks that the tool runs end to end, and
its exit code ignores the verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
OUT = ROOT / ".e2e_out" / "ab"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

import compare  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"3"``, ``"0-9"`` or ``"1,4,7"`` → the seed list."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool, trace: int = 0) -> str:
    """Standard output of one ``run.py`` run inside ``checkout`` (untraced unless ``trace=1``)."""
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd + ["--smoke"] * smoke, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}")
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, nargs="?", help="baseline checkout")
    parser.add_argument("b", type=Path, nargs="?", help="changed checkout")
    parser.add_argument("--seeds", default="0-9", help="seed list: 0-9, or 1,4,7 (default 0-9)")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES, help="repeatable; default all four")
    parser.add_argument("--smoke", action="store_true", help="one smoke-size pair of this checkout against itself")
    args = parser.parse_args(argv)
    if args.smoke:
        args.a = args.b = ROOT
        args.seeds = "0"
    elif args.a is None or args.b is None:
        parser.error("give two checkouts, or --smoke")
    workloads = args.workload or list(WORKLOAD_NAMES)
    seconds = 0.0 if args.smoke else RUN_SECONDS
    OUT.mkdir(parents=True, exist_ok=True)
    files = {side: OUT / f"{side}.jsonl" for side in "ab"}
    for path in files.values():
        path.write_text("")
    checkouts = {"a": args.a.resolve(), "b": args.b.resolve()}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = "ab" if i % 2 == 0 else "ba"
        for workload in workloads:
            for side in order:
                print(f"seed {seed} {workload} {side.upper()}", file=sys.stderr, flush=True)
                with files[side].open("a") as out:
                    out.write(run_once(checkouts[side], workload, seed, seconds, args.smoke))
    code = compare.main([str(files["a"]), str(files["b"])])
    return 0 if args.smoke else code


if __name__ == "__main__":
    sys.exit(main())
