#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` and ``B`` hold the standard output of any number of untraced
``run.py`` runs (the environment line before each result names its
workload and seed).  For every workload and end-to-end metric it prints
each side's median and quartiles, the change of B's median, the verdict
and the pairs B won.  Runs pair by seed; without shared seeds they pair
in file order.

Simulated metrics (``sim_*``) repeat bit for bit for a seed, so on
shared seeds their bound is exact: the last column counts the seed
pairs that are bit-identical, and the verdict is

* ``same`` — every pair is bit-identical;
* ``better`` — every pair that differs is better in B;
* ``worse`` — otherwise.

Host metrics, and simulated metrics without shared seeds, are judged
against the ``BENCHMARK.json`` bound:

* ``better`` — B wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than A's quartile spread, or every B
  run beats every A run;
* ``unresolved`` — either side's quartile spread, as a share of its
  median, is wider than the bound (unless every B run is worse than
  every A run);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``same`` — otherwise.

The exit code is 1 when any pair reads ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: Path) -> dict[str, dict[int, dict]]:
    """workload → seed → metric values, from a file of run output lines (first run per seed)."""
    runs: dict[str, dict[int, dict]] = {}
    env = None
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        if "env" in record:
            env = record
        elif "metrics" in record and env is not None:
            if not env.get("trace"):
                values = {name: metric["value"] for name, metric in record["metrics"].items()}
                runs.setdefault(env["workload"], {}).setdefault(env["seed"], values)
            env = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], bound: float, lower: bool) -> tuple[str, int]:
    """The comparison rule of the module docstring; returns (verdict, pairs B won)."""
    sign = 1.0 if lower else -1.0  # sign * (y - x) < 0  <=>  y is better than x
    a1, ma, a3 = quartiles(a)
    b1, mb, b3 = quartiles(b)
    won = sum(sign * (y - x) < 0 for x, y in pairs)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = max((a3 - a1) / abs(ma) if ma else 0.0, (b3 - b1) / abs(mb) if mb else 0.0)
    every_better = all(sign * (y - x) < 0 for x in a for y in b)
    every_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if every_better or (pairs and won >= 0.9 * len(pairs) and -worse_by * abs(ma) > a3 - a1):
        return "better", won
    if spread > bound and not every_worse:
        return "unresolved", won
    if worse_by > bound:
        return "worse", won
    return "same", won


def exact_verdict(pairs: list[tuple[float, float]], lower: bool) -> tuple[str, int]:
    """Seed-paired simulated values: any difference is a real change; returns (verdict, pairs B won)."""
    sign = 1.0 if lower else -1.0
    won = sum(sign * (y - x) < 0 for x, y in pairs)
    differing = sum(x != y for x, y in pairs)
    if not differing:
        return "same", won
    return ("better" if won == differing else "worse"), won


def compare(a_runs: dict, b_runs: dict, spec: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<16} {'metric':<16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} {'change':>8} "
        f"{'verdict':<10} {'won':>6} {'sim identical':>13}"
    ]
    any_worse = False
    for workload in sorted(set(a_runs) & set(b_runs)):
        a_seeds, b_seeds = a_runs[workload], b_runs[workload]
        shared = [seed for seed in a_seeds if seed in b_seeds]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            a = [run[name] for run in a_seeds.values()]
            b = [run[name] for run in b_seeds.values()]
            if shared:
                pairs = [(a_seeds[seed][name], b_seeds[seed][name]) for seed in shared]
            else:
                pairs = list(zip(a, b))
            exact = name.startswith("sim_") and bool(shared)
            if exact:
                result, won = exact_verdict(pairs, lower)
            else:
                result, won = verdict(a, b, pairs, metric["bound"], lower)
            any_worse |= result == "worse"
            a1, ma, a3 = quartiles(a)
            b1, mb, b3 = quartiles(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            identical = f"{sum(x == y for x, y in pairs)}/{len(pairs)}" if exact else ""
            lines.append(
                f"{workload:<16} {name:<16} {f'{ma:.6g} [{a1:.6g}, {a3:.6g}]':>32} {f'{mb:.6g} [{b1:.6g}, {b3:.6g}]':>32} "
                f"{change:>+8.2%} {result:<10} {f'{won}/{len(pairs)}':>6} {identical:>13}"
            )
    return lines, any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="run output lines of the baseline")
    parser.add_argument("b", type=Path, help="run output lines of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, any_worse = compare(load(args.a), load(args.b), spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
