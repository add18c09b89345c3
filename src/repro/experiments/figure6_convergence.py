"""Figure 6: RMSE convergence — cuMF (1 GPU) vs NOMAD and libMF (30 cores).

Both datasets (Netflix-like and YahooMusic-like) are factorized at reduced
scale with all three systems; the time axes are rescaled to the full-scale
per-iteration (cuMF, simulated GPU) / per-epoch (SGD, 30-core CPU model)
times, reproducing the qualitative shape of Figure 6: ALS iterations are
individually slower than SGD epochs, so cuMF starts behind, but each ALS
iteration makes far more progress, so it catches up and wins.
"""

from __future__ import annotations

from repro.cluster.nodes import ClusterSpec, NodeSpec
from repro.cluster.perf import distributed_sgd_epoch_time
from repro.core.config import ALSConfig
from repro.datasets.registry import NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.experiments.common import full_scale_seconds, netflix_like, remap_time_axis, run_solvers, yahoomusic_like

__all__ = ["figure6_series", "CPU_30_CORES"]

#: The 30-core single machine of §5.2.
CPU_30_CORES = NodeSpec(
    "xeon-30-core", cores=30, ghz=2.5, flops_per_cycle=8, memory_gib=256, memory_bw=100e9, network_bw=1.25e9, price_per_hour=2.0
)


def _one_dataset(data, full_spec: DatasetSpec, iterations: int, epochs: int, f: int, seed: int) -> dict:
    # The numeric run uses a λ suited to the generator's 1-5 rating scale;
    # the dataset's own λ (e.g. YahooMusic's 1.4, tuned for 0-100 ratings)
    # only sizes the full-scale iteration time.
    als_cfg = ALSConfig(f=f, lam=0.05, iterations=iterations, seed=seed)
    fits = run_solvers(
        {
            "cumf": {"name": "mo", "config": als_cfg},
            "libmf": {"name": "libmf-sgd", "config": als_cfg, "lr": 0.05, "epochs": epochs, "cores": 30},
            "nomad": {"name": "nomad", "config": als_cfg, "lr": 0.05, "epochs": epochs, "workers": 30},
        },
        data.train,
        data.test,
    )
    cumf_iter_s = full_scale_seconds(full_spec)
    epoch_s = distributed_sgd_epoch_time(full_spec, ClusterSpec(CPU_30_CORES, 1))

    return {
        "dataset": full_spec.name,
        "cumf": remap_time_axis(fits["cumf"], cumf_iter_s),
        "libmf": remap_time_axis(fits["libmf"], epoch_s),
        "nomad": remap_time_axis(fits["nomad"], epoch_s * 1.05),  # NOMAD's token passing adds slight overhead on one node
        "cumf_seconds_per_iteration": cumf_iter_s,
        "sgd_seconds_per_epoch": epoch_s,
    }


def figure6_series(
    max_rows: int = 1200,
    f: int = 16,
    iterations: int = 8,
    epochs: int = 12,
    seed: int = 3,
) -> list[dict]:
    """The two panels of Figure 6 (Netflix-like and YahooMusic-like)."""
    panels = []
    panels.append(_one_dataset(netflix_like(max_rows=max_rows, f=f, seed=seed), NETFLIX, iterations, epochs, f, seed))
    panels.append(
        _one_dataset(yahoomusic_like(max_rows=max_rows, f=f, seed=seed + 1), YAHOOMUSIC, iterations, epochs, f, seed)
    )
    return panels
