#!/usr/bin/env python
"""Multi-GPU scaling and reduction schemes (Figures 5 and 9).

Trains SU-ALS on 1, 2 and 4 simulated GPUs, prints the per-iteration
simulated time and speedup, and then compares the three inter-GPU
reduction schemes on a Hugewiki-sized reduction.

Run:  python examples/multi_gpu_scaling.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.comm import OnePhaseParallelReduction, ReduceToOne, TwoPhaseTopologyReduction
from repro.core import ALSConfig, CuMF
from repro.datasets import NETFLIX, YAHOOMUSIC, generate_ratings
from repro.experiments.common import full_scale_seconds
from repro.experiments.reduction_ablation import reduction_rows


def scaling_demo() -> None:
    spec = NETFLIX.scaled(max_rows=1500, f=16)
    data = generate_ratings(spec, seed=3, noise_sigma=0.3)
    config = ALSConfig(f=16, lam=0.05, iterations=5, seed=2)

    print("=== SU-ALS scaling on the Netflix-like workload ===")
    print("gpus  final test RMSE  full-scale s/iter  speedup")
    baseline = None
    for n_gpus in (1, 2, 4):
        model = CuMF(config, backend="su" if n_gpus > 1 else "mo", n_gpus=n_gpus)
        result = model.fit(data.train, data.test)
        full = full_scale_seconds(NETFLIX) if n_gpus == 1 else full_scale_seconds(NETFLIX, "su", n_gpus=n_gpus)
        baseline = baseline or full
        print(f"{n_gpus:>4}  {result.final_test_rmse:>15.4f}  {full:>17.2f}  {baseline / full:>7.2f}x")

    print("\nYahooMusic full-scale per-iteration seconds (task graphs only, no numerics):")
    for n_gpus in (1, 2, 4):
        full = full_scale_seconds(YAHOOMUSIC) if n_gpus == 1 else full_scale_seconds(YAHOOMUSIC, "su", n_gpus=n_gpus)
        print(f"  {n_gpus} GPU(s): {full:.2f} s")


def reduction_demo() -> None:
    print("\n=== Reduction schemes on a dual-socket 4-GPU machine (Hugewiki-sized) ===")
    for row in reduction_rows():
        print(
            f"  {row['scheme']:<22} reduce {row['reduce_seconds']:.3f}s + solve {row['solve_seconds']:.3f}s"
            f"  -> {row['speedup_vs_reduce_to_one']:.2f}x vs reduce-to-one"
        )
    # The same schemes are usable directly on a solver:
    _ = (ReduceToOne(), OnePhaseParallelReduction(), TwoPhaseTopologyReduction())


if __name__ == "__main__":
    scaling_demo()
    reduction_demo()
