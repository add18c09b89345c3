"""Figure 7: convergence with vs without aggressive register usage."""

from __future__ import annotations

from repro.core.config import ALSConfig
from repro.datasets.registry import NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.experiments.common import full_scale_seconds, netflix_like, remap_time_axis, run_solvers, yahoomusic_like

__all__ = ["figure7_series"]


def _panel(data, full_spec: DatasetSpec, f: int, iterations: int, seed: int) -> dict:
    with_cfg = ALSConfig(f=f, lam=0.05, iterations=iterations, seed=seed, use_registers=True)
    fits = run_solvers(
        {
            "with": {"name": "mo", "config": with_cfg},
            "without": {"name": "mo", "config": with_cfg, "use_registers": False},
        },
        data.train,
        data.test,
    )
    with_fit, without_fit = fits["with"], fits["without"]
    with_full = full_scale_seconds(full_spec, use_registers=True)
    without_full = full_scale_seconds(full_spec, use_registers=False)
    return {
        "dataset": full_spec.name,
        "with_registers": remap_time_axis(with_fit, with_full),
        "without_registers": remap_time_axis(without_fit, without_full),
        "seconds_per_iteration_with": with_full,
        "seconds_per_iteration_without": without_full,
        "slowdown_without_registers": without_full / with_full,
    }


def figure7_series(max_rows: int = 1000, f: int = 16, iterations: int = 6, seed: int = 5) -> list[dict]:
    """Both panels of Figure 7 (Netflix-like and YahooMusic-like)."""
    return [
        _panel(netflix_like(max_rows=max_rows, f=f, seed=seed), NETFLIX, f, iterations, seed),
        _panel(yahoomusic_like(max_rows=max_rows, f=f, seed=seed + 1), YAHOOMUSIC, f, iterations, seed),
    ]
