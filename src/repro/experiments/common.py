"""Shared utilities for the experiment drivers.

The convergence experiments combine two ingredients (see DESIGN.md):

* **real numerics at laptop scale** — a scaled-down synthetic workload
  that is actually factorized, giving a genuine RMSE-per-iteration (or
  per-epoch) trajectory;
* **full-scale timing** — the per-iteration seconds the same solver would
  take on the paper-scale dataset: for cuMF, the solver's own update
  graphs sized by the dataset and run on the simulated GPUs
  (:func:`full_scale_seconds`); for the CPU baselines, the cluster model.

:func:`remap_time_axis` stitches the two together, which is how every
"RMSE vs training time" series in Figures 6-10 is produced.

Solvers are requested *declaratively*: a driver states ``{"name": "mo",
"config": ...}`` specs and :func:`run_solvers` turns them into fitted
results through the solver registry, so no experiment imports a solver
class or hand-wires a constructor.
"""

from __future__ import annotations

from repro.core.config import ALSConfig, FitResult
from repro.core.solver import make_solver
from repro.datasets.registry import HUGEWIKI, NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.datasets.synthetic import SyntheticRatings, generate_ratings

__all__ = [
    "netflix_like",
    "yahoomusic_like",
    "hugewiki_like",
    "run_solvers",
    "full_scale_seconds",
    "remap_time_axis",
    "series_reaches",
    "format_table",
]


def netflix_like(max_rows: int = 1500, f: int = 16, seed: int = 7) -> SyntheticRatings:
    """A scaled-down Netflix-shaped workload (dense rows, small n)."""
    spec = NETFLIX.scaled(max_rows=max_rows, f=f)
    return generate_ratings(spec, seed=seed, noise_sigma=0.3)


def yahoomusic_like(max_rows: int = 1500, f: int = 16, seed: int = 11) -> SyntheticRatings:
    """A scaled-down YahooMusic-shaped workload (larger, sparser item side)."""
    spec = YAHOOMUSIC.scaled(max_rows=max_rows, f=f)
    return generate_ratings(spec, seed=seed, noise_sigma=0.3)


def hugewiki_like(max_rows: int = 4000, f: int = 16, seed: int = 13) -> SyntheticRatings:
    """A scaled-down Hugewiki-shaped workload (huge m, tiny n)."""
    spec = HUGEWIKI.scaled(max_rows=max_rows, f=f)
    return generate_ratings(spec, seed=seed, noise_sigma=0.3)


def run_solvers(specs: dict[str, dict], train, test=None) -> dict[str, FitResult]:
    """Fit one registry-built solver per spec; returns ``{key: FitResult}``.

    Each value of ``specs`` is a declarative solver spec as accepted by
    :func:`~repro.core.solver.make_solver` — typically
    ``{"name": "mo", "config": ALSConfig(...)}`` plus solver keywords
    like ``cores`` or ``n_gpus``.
    """
    return {key: make_solver(spec).fit(train, test) for key, spec in specs.items()}


def full_scale_seconds(dataset: DatasetSpec, name: str = "mo", **options) -> float:
    """Simulated seconds of one iteration of GPU solver ``name`` on ``dataset``.

    The solver comes from the registry with the dataset's own ``f``/λ;
    ``options`` are solver keywords (``n_gpus``, ``spec``) or config
    overrides (``use_registers=False``, ``f=100``).
    """
    config = ALSConfig(f=dataset.f, lam=dataset.lam, iterations=1)
    return make_solver({"name": name, "config": config, **options}).iteration_time(dataset).seconds


def remap_time_axis(result: FitResult, seconds_per_iteration: float) -> list[dict]:
    """RMSE-vs-time series with the time axis rescaled to full-scale seconds."""
    series = []
    for stats in result.history:
        series.append(
            {
                "iteration": stats.iteration,
                "seconds": stats.iteration * seconds_per_iteration,
                "test_rmse": stats.test_rmse,
                "train_rmse": stats.train_rmse,
            }
        )
    return series


def series_reaches(series: list[dict], target_rmse: float) -> float:
    """First time (seconds) at which a series' test RMSE ≤ target, else inf."""
    for point in series:
        if point["test_rmse"] <= target_rmse:
            return point["seconds"]
    return float("inf")


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render a list of dicts as a fixed-width text table (for bench output)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered)
    return f"{header}\n{sep}\n{body}"


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
