"""PALS — parallel ALS with full Θ replication (Zhou et al. [35]).

PALS partitions X and R by rows across workers and *replicates the whole
Θᵀ on every worker* (§2.2).  Numerically it is plain ALS; what
distinguishes it is the communication/memory profile: the replication is
only feasible while Θ is small, and its per-iteration broadcast volume is
``workers · n · f`` floats.  This class runs the real ALS numerics and
reports that communication volume so the SparkALS comparison (which ships
only the needed subsets) can be made quantitative.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.als_base import BaseALS
from repro.core.config import ALSConfig
from repro.core.solver.protocol import Solver, SolverStep, StashedBreakdown
from repro.core.validation import validate_hyperparameters
from repro.sparse.csr import CSRMatrix

__all__ = ["PALS"]

FLOAT_BYTES = 4


class PALS(StashedBreakdown, Solver):
    """Row-partitioned ALS with full factor replication."""

    name = "pals"

    def __init__(self, config: ALSConfig, workers: int = 8):
        validate_hyperparameters(workers=workers)
        self.config = config
        self.workers = workers

    def broadcast_bytes_per_iteration(self, n_cols: int, m_rows: int) -> float:
        """Bytes broadcast per iteration: full Θ to every worker for the
        update-X half, full X to every worker for the update-Θ half."""
        return float(self.workers) * (n_cols + m_rows) * self.config.f * FLOAT_BYTES

    def replica_memory_floats(self, n_cols: int) -> float:
        """Per-worker floats needed just for the replicated Θ."""
        return float(n_cols) * self.config.f

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """The (numerically standard) ALS updates of the reference solver.

        The replication profile (the breakdown) is computed eagerly —
        it depends only on the problem shape — and stashed for the
        session's ``finalize_result`` hook.
        """
        m, n = train.shape
        self._stash_breakdown(
            {
                "broadcast_bytes_per_iteration": self.broadcast_bytes_per_iteration(n, m),
                "replica_memory_floats": self.replica_memory_floats(n),
            }
        )
        yield from BaseALS(self.config).iterate(train, test, x0=x0, theta0=theta0)
