"""Figure 11: per-iteration time on the three extreme-scale workloads.

SparkALS, Factorbird and Facebook are too large to factorize numerically
in this reproduction; following §5.5 the comparison is per-iteration (or
per-epoch) latency, which both sides produce from their performance
models: cuMF@4×GK210 from SU-ALS's own update graphs sized by the
dataset, the baselines from the cluster model.  The cuMF f=100 row is the "largest MF problem reported"
run (3.8 hours per iteration in the paper).

Like the convergence drivers, the comparison is *declarative*: one
``_WORKLOADS`` table states dataset, baseline system, cluster and timing
model per bar group, and :func:`figure11_rows` evaluates it.
"""

from __future__ import annotations

from repro.cluster.nodes import AWS_C3_2XLARGE, AWS_M3_2XLARGE, ClusterSpec
from repro.cluster.perf import (
    distributed_als_iteration_time,
    parameter_server_epoch_time,
    rotation_als_iteration_time,
)
from repro.datasets.registry import CUMF_LARGEST, FACEBOOK, FACTORBIRD, SPARKALS
from repro.experiments.common import full_scale_seconds
from repro.gpu.specs import GK210

__all__ = ["figure11_rows"]

#: Per-iteration times the paper reports for the original systems (seconds).
PAPER_BASELINE_SECONDS = {"SparkALS": 240.0, "Factorbird": 563.0, "Facebook": float("nan")}
PAPER_CUMF_SECONDS = {"SparkALS": 24.0, "Factorbird": 92.0, "Facebook": 746.0, "cuMF": 3.8 * 3600.0}

#: One entry per bar group: the baseline system, its cluster, and the
#: performance model that produces its per-iteration (or per-epoch) time.
_WORKLOADS = [
    {
        "dataset": SPARKALS,
        "paper_key": "SparkALS",
        "baseline_system": "Spark MLlib ALS (50 nodes)",
        "cluster": (AWS_M3_2XLARGE, 50, "50x m3.2xlarge"),
        "baseline_model": distributed_als_iteration_time,
    },
    {
        "dataset": FACTORBIRD,
        "paper_key": "Factorbird",
        "baseline_system": "Factorbird parameter server (50 nodes)",
        "cluster": (AWS_C3_2XLARGE, 50, "50x c3.2xlarge"),
        "baseline_model": parameter_server_epoch_time,
    },
    {
        "dataset": FACEBOOK,
        "paper_key": "Facebook",
        "baseline_system": "Facebook Giraph rotation ALS (50 workers)",
        "cluster": (AWS_C3_2XLARGE, 50, "50 Giraph workers"),
        "baseline_model": rotation_als_iteration_time,
    },
]


def figure11_rows(n_gpus: int = 4) -> list[dict]:
    """One row per bar group in Figure 11 (plus the f=100 largest run)."""
    rows = []
    for workload in _WORKLOADS:
        dataset = workload["dataset"]
        node, n_nodes, label = workload["cluster"]
        cluster = ClusterSpec(node, n_nodes, label)
        rows.append(
            {
                "workload": dataset.name,
                "baseline_system": workload["baseline_system"],
                "baseline_seconds": workload["baseline_model"](dataset, cluster),
                "cumf_seconds": full_scale_seconds(dataset, "su", n_gpus=n_gpus, spec=GK210),
                "paper_baseline_seconds": PAPER_BASELINE_SECONDS[workload["paper_key"]],
                "paper_cumf_seconds": PAPER_CUMF_SECONDS[workload["paper_key"]],
            }
        )

    rows.append(
        {
            "workload": CUMF_LARGEST.name + " (f=100)",
            "baseline_system": "none (largest problem reported)",
            "baseline_seconds": float("nan"),
            "cumf_seconds": full_scale_seconds(CUMF_LARGEST, "su", n_gpus=n_gpus, spec=GK210, f=100),
            "paper_baseline_seconds": float("nan"),
            "paper_cumf_seconds": PAPER_CUMF_SECONDS["cuMF"],
        }
    )

    for row in rows:
        base, cumf = row["baseline_seconds"], row["cumf_seconds"]
        row["speedup"] = base / cumf if cumf and base == base else float("nan")
    return rows
