"""Figure 10: cuMF on 4 GPUs vs NOMAD on 64 HPC / 32 AWS nodes (Hugewiki).

The Hugewiki update-Θ pass is the one place the medium-size experiments
exercise real data parallelism: X (50M × f) cannot be replicated, so the
grid partition + two-phase topology-aware reduction is used.  The CPU
competitor is NOMAD running on a 64-node HPC cluster and on a 32-node AWS
cluster; the paper's headline is that one machine with four GPUs matches
the former and is ~10× faster than the latter.
"""

from __future__ import annotations

from repro.cluster.nodes import AWS_M3_XLARGE, HPC_NODE, ClusterSpec
from repro.cluster.perf import distributed_sgd_epoch_time
from repro.core.config import ALSConfig
from repro.datasets.registry import HUGEWIKI
from repro.experiments.common import full_scale_seconds, hugewiki_like, remap_time_axis, run_solvers

__all__ = ["figure10_series"]


def figure10_series(max_rows: int = 2500, f: int = 16, iterations: int = 6, epochs: int = 10, seed: int = 31) -> dict:
    """The three curves of Figure 10 plus their per-pass full-scale times."""
    data = hugewiki_like(max_rows=max_rows, f=f, seed=seed)

    cfg = ALSConfig(f=f, lam=HUGEWIKI.lam, iterations=iterations, seed=seed)
    fits = run_solvers(
        {
            "cumf": {"name": "su", "config": cfg, "n_gpus": 4},
            "nomad": {"name": "nomad", "config": cfg, "lr": 0.05, "epochs": epochs, "workers": 16},
        },
        data.train,
        data.test,
    )
    cumf_iter_s = full_scale_seconds(HUGEWIKI, "su", n_gpus=4)
    hpc64 = ClusterSpec(HPC_NODE, 64, "NOMAD 64-node HPC")
    aws32 = ClusterSpec(AWS_M3_XLARGE, 32, "NOMAD 32-node AWS")
    epoch_hpc = distributed_sgd_epoch_time(HUGEWIKI, hpc64)
    epoch_aws = distributed_sgd_epoch_time(HUGEWIKI, aws32)

    return {
        "dataset": HUGEWIKI.name,
        "cumf_4gpu": remap_time_axis(fits["cumf"], cumf_iter_s),
        "nomad_hpc64": remap_time_axis(fits["nomad"], epoch_hpc),
        "nomad_aws32": remap_time_axis(fits["nomad"], epoch_aws),
        "cumf_seconds_per_iteration": cumf_iter_s,
        "nomad_hpc64_seconds_per_epoch": epoch_hpc,
        "nomad_aws32_seconds_per_epoch": epoch_aws,
    }
