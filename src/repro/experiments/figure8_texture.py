"""Figure 8: convergence with vs without the texture-memory path."""

from __future__ import annotations

from repro.core.config import ALSConfig
from repro.datasets.registry import NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.experiments.common import full_scale_seconds, netflix_like, remap_time_axis, run_solvers, yahoomusic_like

__all__ = ["figure8_series"]


def _panel(data, full_spec: DatasetSpec, f: int, iterations: int, seed: int) -> dict:
    with_cfg = ALSConfig(f=f, lam=0.05, iterations=iterations, seed=seed, use_texture=True)
    fits = run_solvers(
        {
            "with": {"name": "mo", "config": with_cfg},
            "without": {"name": "mo", "config": with_cfg, "use_texture": False},
        },
        data.train,
        data.test,
    )
    with_fit, without_fit = fits["with"], fits["without"]
    with_full = full_scale_seconds(full_spec, use_texture=True)
    without_full = full_scale_seconds(full_spec, use_texture=False)
    return {
        "dataset": full_spec.name,
        "with_texture": remap_time_axis(with_fit, with_full),
        "without_texture": remap_time_axis(without_fit, without_full),
        "seconds_per_iteration_with": with_full,
        "seconds_per_iteration_without": without_full,
        "slowdown_without_texture": without_full / with_full,
    }


def figure8_series(max_rows: int = 1000, f: int = 16, iterations: int = 6, seed: int = 9) -> list[dict]:
    """Both panels of Figure 8 (Netflix-like and YahooMusic-like)."""
    return [
        _panel(netflix_like(max_rows=max_rows, f=f, seed=seed), NETFLIX, f, iterations, seed),
        _panel(yahoomusic_like(max_rows=max_rows, f=f, seed=seed + 1), YAHOOMUSIC, f, iterations, seed),
    ]
