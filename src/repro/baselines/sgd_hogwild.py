"""libMF / HOGWILD!-style block-partitioned parallel SGD on one machine.

libMF [36] partitions the rating matrix into blocks with no overlapping
rows or columns and schedules non-conflicting blocks onto cores; HOGWILD!
argues the updates can even race.  We reproduce the *block schedule*: the
matrix is cut into a ``cores × cores`` grid, an epoch runs ``cores``
rounds, and in each round every core processes one block such that no two
concurrent blocks share rows or columns (a Latin-square schedule).
Because concurrent blocks are disjoint, executing them sequentially in
this simulation is numerically identical to a truly parallel run; the
simulated epoch time at full scale comes from the single-node SGD cost
model of :mod:`repro.cluster.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cluster.nodes import ClusterSpec, NodeSpec
from repro.cluster.perf import distributed_sgd_epoch_time
from repro.core.sgd import sgd_epoch
from repro.core.solver.protocol import Solver, SolverStep, apply_warm_start
from repro.core.validation import validate_hyperparameters
from repro.datasets.registry import DatasetSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import Partition1D

__all__ = ["SGDConfig", "ParallelSGD"]


@dataclass(frozen=True)
class SGDConfig:
    """Hyper-parameters of the SGD baselines."""

    f: int = 16
    lam: float = 0.05
    lr: float = 0.05
    lr_decay: float = 0.9
    epochs: int = 20
    seed: int = 0
    init_scale: float = 0.3

    def __post_init__(self) -> None:
        validate_hyperparameters(
            f=self.f,
            lam=self.lam,
            epochs=self.epochs,
            lr=self.lr,
            lr_decay=self.lr_decay,
            init_scale=self.init_scale,
        )


class ParallelSGD(Solver):
    """Block-partitioned SGD with ``cores`` simulated workers (libMF).

    Parameters
    ----------
    config:
        SGD hyper-parameters.
    cores:
        Number of worker threads (the paper's libMF/NOMAD runs use 30).
    node:
        Optional node spec used to derive the *simulated* epoch time at
        full scale; when omitted the history records wall-clock seconds.
    full_scale:
        Dataset spec whose size is used for the simulated epoch time
        (defaults to the matrix actually being factorized).
    """

    name = "libmf-sgd"

    def __init__(
        self,
        config: SGDConfig,
        cores: int = 30,
        node: NodeSpec | None = None,
        full_scale: DatasetSpec | None = None,
    ):
        validate_hyperparameters(cores=cores)
        self.config = config
        self.cores = cores
        self.node = node
        self.full_scale = full_scale

    # ------------------------------------------------------------------ #
    def _epoch_seconds(self, train: CSRMatrix) -> float | None:
        """Simulated seconds of one epoch at full scale (None → wall-clock)."""
        if self.node is None:
            return None
        spec = self.full_scale or DatasetSpec("run", train.shape[0], train.shape[1], train.nnz, self.config.f, self.config.lam)
        cluster = ClusterSpec(self.node, 1)
        return distributed_sgd_epoch_time(spec, cluster, self.config.f)

    def _init(self, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.config.seed)
        scale = self.config.init_scale / np.sqrt(self.config.f)
        return rng.random((m, self.config.f)) * scale, rng.random((n, self.config.f)) * scale

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield the starting factors, then one step per Latin-square epoch.

        Setup (the block grid pre-slicing) happens before the initial
        yield, so it is not charged to epoch 1's wall-clock seconds.
        """
        cfg = self.config
        m, n = train.shape
        x, theta = apply_warm_start(*self._init(m, n), x0, theta0)

        grid_dim = min(self.cores, m, n)
        row_part = Partition1D(m, grid_dim)
        col_part = Partition1D(n, grid_dim)

        # Pre-slice the blocks once; each is a small CSR with re-based indices.
        blocks: list[list[CSRMatrix]] = []
        for bi in range(grid_dim):
            row_block = train.row_slice(*row_part.range_of(bi))
            blocks.append([row_block.col_slice(*col_part.range_of(bj)) for bj in range(grid_dim)])
        yield SolverStep(x, theta)

        rng = np.random.default_rng(cfg.seed + 1)
        lr = cfg.lr
        epoch_seconds = self._epoch_seconds(train)
        for _ in range(cfg.epochs):
            for round_idx in range(grid_dim):
                # Latin-square round: core c works on block (c, (c+round) mod d).
                for c in range(grid_dim):
                    bi, bj = c, (c + round_idx) % grid_dim
                    block = blocks[bi][bj]
                    if block.nnz == 0:
                        continue
                    r_lo, r_hi = row_part.range_of(bi)
                    c_lo, c_hi = col_part.range_of(bj)
                    x_view = x[r_lo:r_hi]
                    t_view = theta[c_lo:c_hi]
                    sgd_epoch(block, x_view, t_view, lr, cfg.lam, rng)
            lr *= cfg.lr_decay
            yield SolverStep(x, theta, seconds=epoch_seconds)
