"""Table 1: speed and cost of cuMF vs NOMAD, SparkALS and Factorbird.

Following the paper, the NOMAD row compares Hugewiki *convergence-scale*
time (we use 20 epochs/iterations as the unit of work), while the
SparkALS and Factorbird rows compare per-iteration latency; cost is
price-per-node-hour × nodes × time.
"""

from __future__ import annotations

from repro.baselines.cost_model import table1_entries
from repro.cluster.nodes import AWS_C3_2XLARGE, AWS_M3_2XLARGE, AWS_M3_XLARGE, ClusterSpec
from repro.cluster.perf import (
    distributed_als_iteration_time,
    distributed_sgd_epoch_time,
    parameter_server_epoch_time,
)
from repro.datasets.registry import FACTORBIRD, HUGEWIKI, SPARKALS
from repro.experiments.common import full_scale_seconds
from repro.gpu.specs import GK210

__all__ = ["table1_rows"]

#: The paper's Table 1 reference values (speedup, cost fraction).
PAPER_TABLE1 = {
    "NOMAD": {"speed": 10.0, "cost": 0.03},
    "SparkALS": {"speed": 10.0, "cost": 0.01},
    "Factorbird": {"speed": 6.0, "cost": 0.02},
}

#: The three baseline clusters of Table 1, declared once.
_CLUSTERS = {
    "NOMAD": (AWS_M3_XLARGE, 32, "NOMAD 32x m3.xlarge"),
    "SparkALS": (AWS_M3_2XLARGE, 50, "SparkALS 50x m3.2xlarge"),
    "Factorbird": (AWS_C3_2XLARGE, 50, "Factorbird 50x c3.2xlarge"),
}


def table1_rows(n_gpus: int = 4, als_iterations: int = 10, sgd_epochs: int = 40) -> list[dict]:
    """Regenerate the three rows of Table 1 from the performance models.

    The NOMAD row compares time for an equivalent amount of convergence
    progress: ALS reaches the Hugewiki RMSE plateau in roughly
    ``als_iterations`` iterations while SGD needs ~4x as many epochs
    (consistent with the Figure 6/10 numeric runs), hence the separate
    ``sgd_epochs`` knob.  SparkALS and Factorbird compare per-iteration
    latency, as in the paper.
    """
    clusters = {name: ClusterSpec(*spec) for name, spec in _CLUSTERS.items()}

    nomad_seconds = distributed_sgd_epoch_time(HUGEWIKI, clusters["NOMAD"]) * sgd_epochs
    cumf_hugewiki = full_scale_seconds(HUGEWIKI, "su", n_gpus=n_gpus, spec=GK210) * als_iterations
    spark_seconds = distributed_als_iteration_time(SPARKALS, clusters["SparkALS"])
    cumf_spark = full_scale_seconds(SPARKALS, "su", n_gpus=n_gpus, spec=GK210)
    factorbird_seconds = parameter_server_epoch_time(FACTORBIRD, clusters["Factorbird"])
    cumf_factorbird = full_scale_seconds(FACTORBIRD, "su", n_gpus=n_gpus, spec=GK210)

    entries = table1_entries(
        nomad_seconds, cumf_hugewiki, spark_seconds, cumf_spark, factorbird_seconds, cumf_factorbird
    )
    rows = []
    for entry in entries:
        paper = PAPER_TABLE1[entry.baseline]
        rows.append(
            {
                "baseline": entry.baseline,
                "nodes": entry.baseline_nodes,
                "price_per_node_hr": entry.baseline_price_per_node_hr,
                "baseline_seconds": entry.baseline_seconds,
                "cumf_seconds": entry.cumf_seconds,
                "cumf_speedup": entry.speedup,
                "cumf_cost_fraction": entry.cost_ratio,
                "cumf_cost_efficiency": entry.cost_efficiency,
                "paper_speedup": paper["speed"],
                "paper_cost_fraction": paper["cost"],
            }
        )
    return rows
