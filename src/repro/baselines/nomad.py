"""NOMAD-style asynchronous, decentralised SGD [33].

NOMAD extends block partitioning with *column tokens*: ownership of each
item column θ_v circulates among workers, and a worker that holds a token
updates θ_v against the ratings of its own row partition, then passes the
token on.  Over one epoch every (worker, column) pair meets once, i.e.
every rating is visited once, with no two workers ever sharing a column.

We reproduce that schedule faithfully (row partitions per worker, columns
visiting workers round-robin); since concurrent workers touch disjoint
rows *and* disjoint columns, a sequential simulation is numerically
equivalent.  The simulated epoch time comes from the distributed SGD cost
model (memory-bound compute plus the token traffic).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cluster.nodes import ClusterSpec
from repro.cluster.perf import distributed_sgd_epoch_time
from repro.core.sgd import sgd_epoch
from repro.core.solver.protocol import Solver, SolverStep, apply_warm_start
from repro.core.validation import validate_hyperparameters
from repro.datasets.registry import DatasetSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import grid_partition

from repro.baselines.sgd_hogwild import SGDConfig

__all__ = ["NomadSGD"]


class NomadSGD(Solver):
    """NOMAD: column tokens passed around row-partitioned workers."""

    name = "nomad-sgd"

    def __init__(
        self,
        config: SGDConfig,
        workers: int = 30,
        cluster: ClusterSpec | None = None,
        full_scale: DatasetSpec | None = None,
    ):
        validate_hyperparameters(workers=workers)
        self.config = config
        self.workers = workers
        self.cluster = cluster
        self.full_scale = full_scale

    def _epoch_seconds(self, train: CSRMatrix) -> float | None:
        if self.cluster is None:
            return None
        spec = self.full_scale or DatasetSpec("run", train.shape[0], train.shape[1], train.nnz, self.config.f, self.config.lam)
        return distributed_sgd_epoch_time(spec, self.cluster, self.config.f)

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield the starting factors, then one step per token-passing epoch.

        Setup (the per-worker block slicing) happens before the initial
        yield, so it is not charged to epoch 1's wall-clock seconds.
        """
        cfg = self.config
        m, n = train.shape
        rng_init = np.random.default_rng(cfg.seed)
        scale = cfg.init_scale / np.sqrt(cfg.f)
        x, theta = apply_warm_start(rng_init.random((m, cfg.f)) * scale, rng_init.random((n, cfg.f)) * scale, x0, theta0)

        workers = min(self.workers, m, n)
        # Worker w owns row slice w; column group g visits worker (g + r) % W in round r.
        grid = grid_partition(train, workers, workers)
        row_part, col_part = grid.row_partition, grid.col_partition
        yield SolverStep(x, theta)

        rng = np.random.default_rng(cfg.seed + 17)
        lr = cfg.lr
        epoch_seconds = self._epoch_seconds(train)
        for _ in range(cfg.epochs):
            for round_idx in range(workers):
                for w in range(workers):
                    g = (w + round_idx) % workers  # the column token currently at worker w
                    block = grid.block(g, w)
                    if block.nnz == 0:
                        continue
                    r_lo, r_hi = row_part.range_of(w)
                    c_lo, c_hi = col_part.range_of(g)
                    sgd_epoch(block, x[r_lo:r_hi], theta[c_lo:c_hi], lr, cfg.lam, rng)
            lr *= cfg.lr_decay
            yield SolverStep(x, theta, seconds=epoch_seconds)
