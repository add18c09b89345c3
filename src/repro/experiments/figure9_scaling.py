"""Figure 9: SU-ALS scalability on one, two and four GPUs.

Netflix and YahooMusic both fit on one device, so only model parallelism
is exercised (exactly as §5.4 notes); the paper reports close-to-linear
speedup (3.8× at four GPUs) bounded only by PCIe contention.
"""

from __future__ import annotations

from repro.core.config import ALSConfig
from repro.datasets.registry import NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.experiments.common import full_scale_seconds, netflix_like, remap_time_axis, run_solvers, yahoomusic_like

__all__ = ["figure9_series"]


def _panel(data, full_spec: DatasetSpec, f: int, iterations: int, seed: int, gpu_counts: tuple[int, ...]) -> dict:
    cfg = ALSConfig(f=f, lam=0.05, iterations=iterations, seed=seed)
    specs = {
        p: {"name": "mo", "config": cfg} if p == 1 else {"name": "su", "config": cfg, "n_gpus": p}
        for p in gpu_counts
    }
    fits = run_solvers(specs, data.train, data.test)
    curves = {}
    iteration_seconds = {}
    for p in gpu_counts:
        full = full_scale_seconds(full_spec) if p == 1 else full_scale_seconds(full_spec, "su", n_gpus=p)
        curves[p] = remap_time_axis(fits[p], full)
        iteration_seconds[p] = full
    base = iteration_seconds[gpu_counts[0]]
    return {
        "dataset": full_spec.name,
        "curves": curves,
        "seconds_per_iteration": iteration_seconds,
        "speedup": {p: base / iteration_seconds[p] for p in gpu_counts},
    }


def figure9_series(
    max_rows: int = 1000,
    f: int = 16,
    iterations: int = 6,
    seed: int = 21,
    gpu_counts: tuple[int, ...] = (1, 2, 4),
) -> list[dict]:
    """Both panels of Figure 9 with the requested GPU counts."""
    return [
        _panel(netflix_like(max_rows=max_rows, f=f, seed=seed), NETFLIX, f, iterations, seed, gpu_counts),
        _panel(yahoomusic_like(max_rows=max_rows, f=f, seed=seed + 1), YAHOOMUSIC, f, iterations, seed, gpu_counts),
    ]
