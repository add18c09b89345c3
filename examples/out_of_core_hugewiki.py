#!/usr/bin/env python
"""Out-of-core batching and the Hugewiki-style data-parallel pass (§4.4, §5.4).

Demonstrates the two mechanisms that let one machine handle matrices far
beyond GPU memory:

1. the eq.-8 partition planner choosing (p, q) for every Table-5 workload;
2. out-of-core streaming: when a pass needs q > 1 batches, each batch
   loads its R block and X slice into the GPU.  The serial schedule pays
   every load; the eager schedule runs them, double buffered, under the
   previous batch's kernels ("close-to-zero data loading time except for
   the first load").  cuMF's earlier hop, disk to host memory on CPU
   threads, is left out: the simulated machine has no disk;
3. an actual SU-ALS run on a Hugewiki-shaped (scaled) matrix with the
   data-parallel path and the two-phase reduction forced on.

Run:  python examples/out_of_core_hugewiki.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import ALSConfig
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.partition_planner import plan_partitions
from repro.datasets import DATASETS, HUGEWIKI, NETFLIX, YAHOOMUSIC, generate_ratings
from repro.gpu.specs import TITAN_X


def planner_demo() -> None:
    print("=== Eq. 8 partition plans (4x 12 GB GPUs) ===")
    for spec in DATASETS.values():
        plan_x = plan_partitions(spec.m, spec.n, spec.nz, spec.f, TITAN_X.global_bytes, n_gpus=4)
        plan_t = plan_partitions(spec.n, spec.m, spec.nz, spec.f, TITAN_X.global_bytes, n_gpus=4)
        print(f"  {spec.name:<12} update-X: {plan_x.describe()}")
        print(f"  {'':<12} update-Θ: {plan_t.describe()}")


def outofcore_demo() -> None:
    print("\n=== Out-of-core streaming on one 12 GB GPU (MO-ALS, full scale) ===")
    for spec in (NETFLIX, YAHOOMUSIC):
        config = ALSConfig(f=spec.f, lam=spec.lam)
        serial = MemoryOptimizedALS(config, scheduler="serial").iteration_time(spec)
        eager = MemoryOptimizedALS(config, scheduler="eager").iteration_time(spec)
        loads = serial.breakdown.get("h2d", 0.0)
        print(f"  {spec.name:<10} q_x={serial.q_x} q_theta={serial.q_theta}: {loads:.3f}s of batch loads")
        print(f"  {'':<10} serial {serial.seconds:.3f}s/iter, eager {eager.seconds:.3f}s/iter ({serial.seconds - eager.seconds:.3f}s hidden)")


def hugewiki_run() -> None:
    print("\n=== SU-ALS on a Hugewiki-shaped matrix (scaled numerics, data-parallel path) ===")
    spec = HUGEWIKI.scaled(max_rows=3000, f=16)
    data = generate_ratings(spec, seed=9, noise_sigma=0.3)
    solver = ScaleUpALS(ALSConfig(f=16, lam=0.05, iterations=4, seed=4), n_gpus=4, force_data_parallel=True, q_override=2)
    result = solver.fit(data.train, data.test)
    for stats in result.history:
        print(f"  iter {stats.iteration}: test RMSE {stats.test_rmse:.4f}")
    full = ScaleUpALS(ALSConfig(f=HUGEWIKI.f, lam=HUGEWIKI.lam), n_gpus=4).iteration_time(HUGEWIKI)
    print(f"  full-scale Hugewiki per-iteration time on 4 GPUs: {full.seconds:.1f} s (q_x={full.q_x}, q_theta={full.q_theta})")


if __name__ == "__main__":
    planner_demo()
    outofcore_demo()
    hugewiki_run()
