"""SparkALS — ALS with per-partition Θ subsets (Spark MLlib style).

SparkALS improves on PALS by splitting Θᵀ into *overlapping* partitions
{Θᵀ_i}, where partition ``i`` contains only the θ_v columns referenced by
the rows of X partition ``i`` (§2.2).  The numerics stay standard ALS;
what matters for the comparison is

* the communication volume (how many θ columns each partition needs), and
* the fact that a partition's subset can still exceed one device/executor
  when the ratings are skewed — the deficiency that motivates cuMF's
  data-parallel SU-ALS.

:func:`theta_shipping_volume` computes the exact per-partition subset
sizes from the rating matrix, and :class:`SparkALS` runs the ALS numerics
with the row partitioning applied, recording that volume.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.als_base import BaseALS
from repro.core.config import ALSConfig
from repro.core.solver.protocol import Solver, SolverStep, StashedBreakdown
from repro.core.validation import validate_hyperparameters
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import Partition1D

__all__ = ["theta_shipping_volume", "SparkALS"]

FLOAT_BYTES = 4


def theta_shipping_volume(train: CSRMatrix, workers: int, f: int) -> dict:
    """Communication profile of one SparkALS update-X iteration.

    Returns per-partition distinct-column counts, the total number of θ
    columns shipped (Σ_i |Θᵀ_i|), the equivalent bytes, and the ratio to
    the PALS full-replication volume (``workers · n``).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    m, n = train.shape
    part = Partition1D(m, min(workers, m))
    distinct_counts = []
    for i in range(len(part)):
        lo, hi = part.range_of(i)
        cols = train.indices[train.indptr[lo] : train.indptr[hi]]
        distinct_counts.append(int(np.unique(cols).size))
    total_cols = int(sum(distinct_counts))
    full_replication = len(part) * n
    return {
        "per_partition_columns": distinct_counts,
        "total_columns_shipped": total_cols,
        "bytes_shipped": total_cols * f * FLOAT_BYTES,
        "full_replication_columns": full_replication,
        "saving_vs_pals": 1.0 - (total_cols / full_replication if full_replication else 0.0),
        "max_partition_columns": max(distinct_counts) if distinct_counts else 0,
    }


class SparkALS(StashedBreakdown, Solver):
    """Row-partitioned ALS shipping only the needed Θ subsets."""

    name = "spark-als"

    def __init__(self, config: ALSConfig, workers: int = 50):
        validate_hyperparameters(workers=workers)
        self.config = config
        self.workers = workers

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """The (numerically standard) ALS updates of the reference solver.

        The shuffle-volume accounting (the breakdown) is computed
        eagerly — it depends only on the ratings pattern — and stashed
        for the session's ``finalize_result`` hook, so no reference to
        the ratings matrix outlives the run.
        """
        volume_x = theta_shipping_volume(train, self.workers, self.config.f)
        volume_theta = theta_shipping_volume(train.transpose(), self.workers, self.config.f)
        self._stash_breakdown(
            {
                "update_x_shuffle": volume_x,
                "update_theta_shuffle": volume_theta,
                "bytes_per_iteration": volume_x["bytes_shipped"] + volume_theta["bytes_shipped"],
            }
        )
        yield from BaseALS(self.config).iterate(train, test, x0=x0, theta0=theta0)
