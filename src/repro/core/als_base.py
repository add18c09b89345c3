"""Algorithm 1: the base ALS solver (numerical reference).

``BaseALS`` runs the alternating updates in plain NumPy with no device
simulation; its timing column is host wall-clock.  Every other solver in
the package must produce (numerically) the same factors — that invariant
is what the property-based tests check.

Like every solver, it exposes the update passes as an ``iterate``
generator and delegates the loop bookkeeping (timing, history, RMSE) to
a :class:`~repro.core.solver.session.TrainingSession`.
"""

from __future__ import annotations

import gc
from typing import Iterator

import numpy as np

from repro.core.config import ALSConfig, FitResult, IterationTime
from repro.core.hermitian import update_factor
from repro.core.schedule import execute_graph
from repro.core.solver.protocol import SolverStep, apply_warm_start
from repro.core.solver.session import TrainingSession
from repro.sparse.csr import CSRMatrix

__all__ = ["BaseALS", "init_factors"]


def init_factors(m: int, n: int, config: ALSConfig) -> tuple[np.ndarray, np.ndarray]:
    """Random factor initialisation (paper §5.1: uniform in [0, 1])."""
    rng = np.random.default_rng(config.seed)
    x = rng.random((m, config.f)) * config.init_scale
    theta = rng.random((n, config.f)) * config.init_scale
    return x.astype(np.float64), theta.astype(np.float64)


def starting_factors(
    train: CSRMatrix,
    config: ALSConfig,
    x0: np.ndarray | None,
    theta0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random init, overridden per side by warm-start factors.

    Shared by the ALS family's ``iterate``; the override itself is
    :func:`~repro.core.solver.protocol.apply_warm_start`, the one
    implementation of the warm-start contract every family (ALS, SGD,
    CCD — each with its own random init) funnels through.
    """
    m, n = train.shape
    x, theta = init_factors(m, n, config)
    return apply_warm_start(x, theta, x0, theta0)


def shape_iteration_time(solver, spec, machine) -> IterationTime:
    """Time one iteration of a GPU solver's own update graphs, sized by ``spec``.

    Both passes are built without factors (shape only: kernel profiles and
    transfer sizes, no numeric closures) and executed on ``machine``, which
    should be fresh, under the solver's scheduler.  Shared by the
    ``iteration_time`` of MO-ALS and SU-ALS.
    """
    batches = []
    # A full-scale pass is up to ~10^5 tasks, all alive until it has run;
    # the cyclic collector can free none of them, so it is paused rather
    # than left to re-scan the growing graph.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for source, label in ((spec, "x"), (spec.transposed(), "theta")):
            graph, _ = solver.build_update_graph(source, None, label)
            execute_graph(graph, machine, solver.scheduler, verify=solver.verify)
            batches.append(solver.plan_batches(source))
    finally:
        if collecting:
            gc.enable()
    return IterationTime(machine.elapsed_seconds(), machine.clock.breakdown(), *batches)


class BaseALS:
    """Straightforward ALS: update X with Θ fixed, then Θ with X fixed."""

    name = "base-als"

    def __init__(self, config: ALSConfig):
        self.config = config

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield the starting factors, then one step per alternating update.

        Setup (the R^T transpose) happens before the initial yield, so
        it is not charged to iteration 1's wall-clock seconds — same as
        the pre-session timing semantics.
        """
        cfg = self.config
        x, theta = starting_factors(train, cfg, x0, theta0)
        train_t = train.to_csc().transpose_csr()  # R^T in CSR layout, for update-Θ
        yield SolverStep(x, theta)

        for _ in range(cfg.iterations):
            x = update_factor(train, theta, cfg.lam, row_batch=cfg.row_batch)
            theta = update_factor(train_t, x, cfg.lam, row_batch=cfg.row_batch)
            yield SolverStep(x, theta)

    def fit(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
        compute_objective: bool = False,
    ) -> FitResult:
        """Run ``config.iterations`` alternating updates.

        ``x0`` / ``theta0`` override the random initialisation (used by the
        checkpoint-restart path and by tests that need identical starting
        points across solvers).
        """
        return TrainingSession(self).run(
            train, test, x0=x0, theta0=theta0, compute_objective=compute_objective
        )
