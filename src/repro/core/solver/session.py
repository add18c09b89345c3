"""The one training loop: timing, history, RMSE and callbacks in one place.

Every solver used to close over the same bookkeeping — start a timer,
run an update pass, append an :class:`~repro.core.config.IterationStats`
with train/test RMSE, repeat.  :class:`TrainingSession` owns that loop
once: it drives a solver's ``iterate`` generator (first yield = starting
factors, then one :class:`~repro.core.solver.protocol.SolverStep` per
iteration), records per-iteration wall-clock time for solvers without a
clock of their own (simulated-time solvers report their own seconds),
computes the RMSE columns, and runs a :class:`FitCallback` pipeline.

Callbacks are how cross-cutting concerns stay out of solvers and the
``CuMF`` facade alike: :class:`CheckpointCallback` persists the factors
after every iteration (the wiring that used to live inside
``CuMF.fit``), :class:`EarlyStopping` halts the run when an iteration
improves the monitored RMSE by less than a tolerance, and
:class:`MetricLogger` prints progress lines.  A callback stops the run
with :meth:`TrainingSession.stop`; the generator is closed so the solver
unwinds cleanly.

``start_iteration`` shifts the iteration ids: a run resumed from a
checkpoint at iteration ``k`` produces history entries ``k+1, k+2, …``
instead of restarting at 1, so concatenated histories stay monotone.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.core.checkpoint import CheckpointManager
from repro.core.config import FitResult, IterationStats
from repro.core.metrics import objective_value, rmse
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.solver.protocol import Solver

__all__ = [
    "TrainingSession",
    "FitCallback",
    "CheckpointCallback",
    "EarlyStopping",
    "MetricLogger",
]


class FitCallback:
    """Base class for training-loop callbacks; override any subset of hooks.

    Hooks run in pipeline order after each event.  ``on_iteration_end``
    may call :meth:`TrainingSession.stop` to end the run after the
    current iteration (its stats stay in the history).
    """

    def on_fit_start(self, session: "TrainingSession", train: CSRMatrix, test: CSRMatrix | None) -> None:
        """Called once, after the starting factors exist, before iteration 1."""

    def on_iteration_end(self, session: "TrainingSession", stats: IterationStats, x: np.ndarray, theta: np.ndarray) -> None:
        """Called after every completed iteration with its stats and factors.

        ``x``/``theta`` may alias the solver's live buffers (the in-place
        CCD/SGD families mutate them next iteration) — a callback that
        retains factors beyond this call must copy them.  Writing them
        out (as :class:`CheckpointCallback` does) is safe as-is.
        """

    def on_fit_end(self, session: "TrainingSession", result: FitResult) -> None:
        """Called once with the finished :class:`FitResult`."""


class CheckpointCallback(FitCallback):
    """Persist X/Θ through a :class:`~repro.core.checkpoint.CheckpointManager`.

    Parameters
    ----------
    checkpoints:
        A manager instance, or a directory to build one in.
    every:
        Save every ``every``-th iteration (the final iteration is always
        saved, so a resume never loses the end of a run).
    """

    def __init__(self, checkpoints: CheckpointManager | str, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.checkpoints = checkpoints if isinstance(checkpoints, CheckpointManager) else CheckpointManager(checkpoints)
        self.every = every
        self._last_saved = -1

    def on_iteration_end(self, session, stats, x, theta) -> None:
        if stats.iteration % self.every == 0:
            self.checkpoints.save(stats.iteration, x, theta)
            self._last_saved = stats.iteration

    def on_fit_end(self, session, result) -> None:
        if result.history and result.history[-1].iteration != self._last_saved:
            self.checkpoints.save(result.history[-1].iteration, result.x, result.theta)


class EarlyStopping(FitCallback):
    """Stop when an iteration improves the monitored RMSE by < ``tolerance``.

    Parameters
    ----------
    tolerance:
        Minimum per-iteration improvement (previous − current) of the
        monitored metric; anything smaller counts as a stall.
    metric:
        ``"train_rmse"`` (default) or ``"test_rmse"``.
    patience:
        Number of *consecutive* stalled iterations before stopping.
    """

    def __init__(self, tolerance: float = 1e-4, metric: str = "train_rmse", patience: int = 1):
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if metric not in ("train_rmse", "test_rmse"):
            raise ValueError("metric must be 'train_rmse' or 'test_rmse'")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.tolerance = tolerance
        self.metric = metric
        self.patience = patience
        self.stopped_at: int | None = None
        self._previous: float | None = None
        self._stalled = 0

    def on_fit_start(self, session, train, test) -> None:
        self._previous = None
        self._stalled = 0
        self.stopped_at = None

    def on_iteration_end(self, session, stats, x, theta) -> None:
        current = getattr(stats, self.metric)
        if current != current:  # NaN (no test set): nothing to monitor
            return
        if self._previous is not None:
            self._stalled = self._stalled + 1 if self._previous - current < self.tolerance else 0
            if self._stalled >= self.patience:
                self.stopped_at = stats.iteration
                session.stop()
        self._previous = current


class MetricLogger(FitCallback):
    """Print one progress line per iteration (or hand lines to ``sink``)."""

    def __init__(self, sink=print, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.sink = sink
        self.every = every

    def on_iteration_end(self, session, stats, x, theta) -> None:
        if stats.iteration % self.every == 0:
            self.sink(
                f"[{session.solver.name}] iter {stats.iteration:>3}  "
                f"train_rmse={stats.train_rmse:.4f}  test_rmse={stats.test_rmse:.4f}  "
                f"t={stats.cumulative_seconds:.4f}s"
            )


class TrainingSession:
    """Drive any :class:`~repro.core.solver.protocol.Solver` through one run.

    Parameters
    ----------
    solver:
        The solver whose ``iterate`` generator does the numeric work.
    callbacks:
        :class:`FitCallback` pipeline, run in order at every hook.
    """

    def __init__(self, solver: "Solver", callbacks=()):
        self.solver = solver
        self.callbacks = list(callbacks)
        self._stop = False

    def stop(self) -> None:
        """Request the run to end after the current iteration's callbacks."""
        self._stop = True

    @property
    def stop_requested(self) -> bool:
        """Whether a callback asked the run to end."""
        return self._stop

    # ------------------------------------------------------------------ #
    def _lam(self) -> float:
        """The solver's regularization constant (for objective tracking)."""
        config = getattr(self.solver, "config", None)
        if config is not None and hasattr(config, "lam"):
            return float(config.lam)
        return float(getattr(self.solver, "lam", 0.0))

    def run(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
        start_iteration: int = 0,
        compute_objective: bool = False,
    ) -> FitResult:
        """One full training run: iterate, time, track, call back.

        ``start_iteration`` offsets the iteration ids (resume path);
        ``compute_objective`` adds the eq.-(1) objective column to every
        history entry, for any solver.
        """
        if start_iteration < 0:
            raise ValueError("start_iteration must be non-negative")
        for name, ratings in (("train", train), ("test", test)):
            if ratings is not None and not np.isfinite(ratings.data).all():
                raise ValueError(f"{name} ratings hold non-finite values (NaN or inf)")
        self._stop = False
        callbacks = list(self.callbacks)
        if obs.enabled():
            # Observability rides the normal pipeline, appended last so
            # user callbacks (early stop, checkpoints) act first.
            callbacks.append(obs.ObservabilityCallback())
        steps = self.solver.iterate(train, test, x0=x0, theta0=theta0)
        initial = next(steps)
        x, theta = initial.x, initial.theta
        for callback in callbacks:
            callback.on_fit_start(self, train, test)

        track_test = test is not None and test.nnz
        history: list[IterationStats] = []
        iteration = start_iteration
        cumulative = 0.0
        mark = time.perf_counter()
        for step in steps:
            wall = time.perf_counter() - mark
            x, theta = step.x, step.theta
            iteration += 1
            seconds = step.seconds if step.seconds is not None else wall
            cumulative += seconds
            stats = IterationStats(
                iteration=iteration,
                train_rmse=rmse(train, x, theta),
                test_rmse=rmse(test, x, theta) if track_test else float("nan"),
                seconds=seconds,
                cumulative_seconds=cumulative,
                objective=objective_value(train, x, theta, self._lam()) if compute_objective else float("nan"),
            )
            history.append(stats)
            for callback in callbacks:
                callback.on_iteration_end(self, stats, x, theta)
            if self._stop:
                steps.close()
                break
            mark = time.perf_counter()

        result = FitResult(
            x=x,
            theta=theta,
            history=history,
            solver=self.solver.name,
            config=getattr(self.solver, "config", None),
        )
        finalize = getattr(self.solver, "finalize_result", None)
        if finalize is not None:
            result = finalize(result) or result
        for callback in callbacks:
            callback.on_fit_end(self, result)
        return result
