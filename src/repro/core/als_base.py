"""Algorithm 1: the base ALS solver (numerical reference).

``BaseALS`` runs the alternating updates in plain NumPy with no device
simulation; its timing column is host wall-clock.  Every other solver in
the package must produce (numerically) the same factors — that invariant
is what the property-based tests check.

Like every solver, it exposes the update passes as an ``iterate``
generator and delegates the loop bookkeeping (timing, history, RMSE) to
a :class:`~repro.core.solver.session.TrainingSession`.

:class:`GPUSolver` is the driver the simulated-GPU solvers share: the
alternating loop, trace export, breakdown and full-scale
``iteration_time`` around each solver's own update-pass graph builder.
"""

from __future__ import annotations

import gc
from typing import Iterator

import numpy as np

from repro.core.config import ALSConfig, FitResult, IterationTime
from repro.core.hermitian import update_factor
from repro.core.schedule import ExecutionTrace, Scheduler, execute_graph, phase_seconds
from repro.core.solver.protocol import Solver, SolverStep, apply_warm_start
from repro.datasets.registry import DatasetSpec
from repro.gpu.machine import MultiGPUMachine
from repro.sparse.csr import CSRMatrix

__all__ = ["BaseALS", "GPUSolver", "init_factors"]


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


class BaseALS(Solver):
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
        train_t = train.transpose()  # R^T in CSR layout, for update-Θ
        yield SolverStep(x, theta)

        for _ in range(cfg.iterations):
            x = update_factor(train, theta, cfg.lam, row_batch=cfg.row_batch)
            theta = update_factor(train_t, x, cfg.lam, row_batch=cfg.row_batch)
            yield SolverStep(x, theta)


class GPUSolver(Solver):
    """The driver shared by the simulated-GPU ALS solvers (MO-ALS, SU-ALS, streaming).

    A subclass supplies the dataflow — ``build_update_graph`` and
    ``plan_batches`` for one update pass — plus ``_update_pass``, which
    builds a pass's graph on real ratings, executes it on :attr:`machine`
    under :attr:`scheduler` and appends the trace to :attr:`traces`.
    (``_update_pass`` stays with the subclass so that it calls the
    ``execute_graph`` bound in the solver's own module, where
    ``benchmarks/e2e/spans.py`` times it.)  This class owns everything
    around that: the alternating loop with simulated seconds per
    iteration, the merged trace export, the per-phase breakdown on the
    :class:`~repro.core.config.FitResult` (:func:`~repro.core.schedule.phase_seconds`
    of the fit's traces) and the full-scale :meth:`iteration_time`.  Per-fit set-up that outlives one pass (SU-ALS's
    grid partitions of R and Rᵀ) is made in ``_prepare`` and dropped in
    ``_release`` when the fit ends, so a finished solver holds none of it.
    :class:`~repro.core.streaming.StreamingALS` replaces :meth:`iterate`
    with its chunk waves and uses only the trace export and the breakdown.
    """

    config: ALSConfig
    machine: MultiGPUMachine
    scheduler: Scheduler
    verify: bool
    traces: list[ExecutionTrace]

    def _prepare(self, train: CSRMatrix, train_t: CSRMatrix) -> None:
        """Hook run once per ``iterate`` on R and Rᵀ, after the clock mark and before the first pass."""

    def _release(self) -> None:
        """Hook run once per ``iterate`` when the fit ends or is abandoned: drop what ``_prepare`` kept."""

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield per-iteration factors with *simulated* seconds attached."""
        cfg = self.config
        x, theta = starting_factors(train, cfg, x0, theta0)
        self.traces = []
        yield SolverStep(x, theta)

        mark = self.machine.elapsed_seconds()
        train_t = train.transpose()
        self._prepare(train, train_t)
        try:
            for _ in range(cfg.iterations):
                x = self._update_pass(train, theta, label="x")
                theta = self._update_pass(train_t, x, label="theta")
                elapsed = self.machine.elapsed_seconds()
                yield SolverStep(x, theta, seconds=elapsed - mark)
                mark = elapsed
        finally:
            self._release()

    def export_trace(self, path: str | None = None):
        """Merge the per-pass traces; write chrome-tracing JSON when ``path``.

        Returns the merged :class:`~repro.core.schedule.ExecutionTrace`
        (or the written path when one was given).
        """
        merged = ExecutionTrace.merge(self.traces)
        if path is not None:
            return merged.dump(path)
        return merged

    def finalize_result(self, result: FitResult) -> FitResult:
        """Attach the fit's simulated seconds per phase, read off its traces."""
        result.breakdown = phase_seconds(self.traces)
        return result

    def iteration_time(self, spec: DatasetSpec) -> IterationTime:
        """Simulated seconds of one full-scale iteration on ``spec`` (no numerics).

        Both passes' shape graphs (kernel profiles and transfer sizes, no
        numeric closures) run on a fresh machine with this solver's
        device, GPU count, topology and scheduler.
        """
        machine = MultiGPUMachine(n_gpus=self.machine.n_gpus, spec=self.machine.spec, topology=self.machine.topology)
        traces, batches = [], []
        # A full-scale pass is up to ~10^5 tasks, all alive until it has run;
        # the cyclic collector can free none of them, so it is paused rather
        # than left to re-scan the growing graph.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for source, label in ((spec, "x"), (spec.transposed(), "theta")):
                graph, _ = self.build_update_graph(source, None, label)
                traces.append(execute_graph(graph, machine, self.scheduler, verify=self.verify))
                batches.append(self.plan_batches(source))
        finally:
            if collecting:
                gc.enable()
        return IterationTime(machine.elapsed_seconds(), phase_seconds(traces), *batches)
