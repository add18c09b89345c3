"""The one contract every training solver satisfies.

The training plane grew the same way serving did: three ALS levels plus
five baselines, each with its own constructor and ``fit`` shape, each
reimplementing the per-iteration bookkeeping.  :class:`Solver` is the
protocol that unifies them — the training-side twin of serving's one
backend, :class:`~repro.serving.cluster.ServingCluster`:

* ``name`` — the label stamped on :attr:`FitResult.solver`;
* ``fit(train, test=None, *, x0=None, theta0=None, compute_objective=False)
  -> FitResult`` — run to completion.  ``x0``/``theta0`` warm-start from
  given factors (the checkpoint-resume path), on *every* solver —
  baselines included.  The protocol class defines it once, as a plain
  :class:`~repro.core.solver.session.TrainingSession` run; every
  built-in solver subclasses :class:`Solver` explicitly to inherit it;
* ``iterate(train, test=None, *, x0=None, theta0=None)`` — the
  generator the :class:`~repro.core.solver.session.TrainingSession`
  harness actually drives.  The first yield is **iteration zero**: the
  starting factors, before any update (so a zero-iteration run still
  has factors).  Every subsequent yield is one completed iteration /
  epoch.  A solver that accounts its own time (simulated GPU seconds,
  cluster-model epoch times) sets :attr:`SolverStep.seconds`; one that
  leaves it ``None`` is wall-clocked by the session.

The protocol is :func:`~typing.runtime_checkable`, so conformance is
testable with ``isinstance`` — which checks *presence* of the surface;
the parametrized suite in ``tests/test_solver_api.py`` checks the
semantics (fit shapes, monotone iteration ids, seed determinism,
callback order, early stop) for every registered solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro.core.config import FitResult
from repro.core.solver.session import TrainingSession
from repro.sparse.csr import CSRMatrix

__all__ = ["Solver", "SolverStep", "StashedBreakdown", "apply_warm_start"]


@dataclass
class SolverStep:
    """What a solver's ``iterate`` generator yields per iteration.

    Attributes
    ----------
    x, theta:
        The factor matrices after this iteration (after zero iterations,
        for the initial yield).  Solvers that update in place (CCD, the
        SGD family) yield their *live* buffers — consumers that retain
        factors beyond the current iteration (e.g. best-model tracking
        in a callback) must copy; the final arrays on the
        :class:`~repro.core.config.FitResult` are always current.
    seconds:
        Time this iteration took on the solver's own clock — simulated
        GPU seconds for MO/SU-ALS, cluster-model epoch seconds for the
        distributed SGD baselines.  ``None`` means the solver has no
        clock of its own and the session records host wall-clock time.
        (Objective tracking is owned by the session, not the step: with
        ``compute_objective=True`` it evaluates eq. (1) on the yielded
        factors for any solver.)
    """

    x: np.ndarray
    theta: np.ndarray
    seconds: float | None = None


class StashedBreakdown:
    """Mixin for solvers whose ``breakdown`` is computed during ``iterate``.

    A generator cannot hand a side result to the session directly, so
    the convention is: ``iterate`` calls :meth:`_stash_breakdown` and
    the session's ``finalize_result`` hook attaches (and releases) it.
    One live run per solver instance; a second ``finalize_result``
    without a fresh ``iterate`` raises instead of attaching stale data.
    """

    _breakdown: dict | None = None

    def _stash_breakdown(self, breakdown: dict) -> None:
        self._breakdown = breakdown

    def finalize_result(self, result: FitResult) -> FitResult:
        """Session-only hook: attach the breakdown stashed by ``iterate``."""
        if self._breakdown is None:
            raise RuntimeError("finalize_result runs after an iterate() pass stashed the breakdown")
        result.breakdown, self._breakdown = self._breakdown, None
        return result


def apply_warm_start(
    x: np.ndarray,
    theta: np.ndarray,
    x0: np.ndarray | None,
    theta0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace freshly-initialised factors with warm-start overrides.

    The one shared implementation of the protocol's ``x0``/``theta0``
    contract: a given side replaces the random draw and is *copied* (as
    float64), so callers keep their arrays untouched by in-place
    solvers.  Every solver family's ``iterate`` funnels through this.
    """
    if x0 is not None:
        x = np.array(x0, dtype=np.float64, copy=True)
    if theta0 is not None:
        theta = np.array(theta0, dtype=np.float64, copy=True)
    return x, theta


@runtime_checkable
class Solver(Protocol):
    """Anything that can factorize a rating matrix: ALS, SGD, CCD, beyond."""

    @property
    def name(self) -> str:
        """Solver label, stamped on :attr:`FitResult.solver`."""
        ...

    def fit(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
        compute_objective: bool = False,
    ) -> FitResult:
        """Run the solver to completion through a callback-less :class:`TrainingSession`.

        ``x0`` / ``theta0`` override the random initialisation (the
        checkpoint-restart path, and tests that need identical starting
        points across solvers); ``compute_objective`` adds the eq.-(1)
        objective column to every history entry.
        """
        return TrainingSession(self).run(train, test, x0=x0, theta0=theta0, compute_objective=compute_objective)

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield the starting factors, then one :class:`SolverStep` per iteration."""
        ...
