"""The unified training API: one protocol, one registry, one harness.

The paper's headline results are *comparisons* — cuMF's three ALS levels
against CCD++, libMF-style SGD, NOMAD, PALS and SparkALS — yet every one
of those solvers used to carry its own constructor shape and reimplement
the same per-iteration loop bookkeeping (wall-clock timing, RMSE
tracking, :class:`~repro.core.config.IterationStats` history).  This
package is the training-side twin of the PR-4 serving redesign:

* :class:`~repro.core.solver.protocol.Solver` — the runtime-checkable
  contract (``name``, ``fit``, ``iterate``) every solver satisfies;
* :mod:`~repro.core.solver.registry` — ``register_solver`` /
  ``make_solver``: declarative construction of any registered solver
  (the three ALS levels *and* all baselines) from a name plus uniform
  hyper-parameter keywords;
* :class:`~repro.core.solver.session.TrainingSession` — the one loop
  harness: it drives a solver's ``iterate`` generator, owns timing /
  history / RMSE, and runs a :class:`~repro.core.solver.session.FitCallback`
  pipeline (checkpointing, early stop, metric logging).

``CuMF`` is a thin facade over all three; experiment drivers request
solvers from the registry instead of hand-wiring classes.
"""

from repro.core.solver.protocol import Solver, SolverStep, StashedBreakdown, apply_warm_start
from repro.core.solver.registry import (
    SolverSpec,
    get_solver_spec,
    make_solver,
    register_solver,
    solver_names,
)
from repro.core.solver.session import (
    CheckpointCallback,
    EarlyStopping,
    FitCallback,
    MetricLogger,
    TrainingSession,
)

__all__ = [
    "Solver",
    "SolverStep",
    "SolverSpec",
    "StashedBreakdown",
    "apply_warm_start",
    "register_solver",
    "make_solver",
    "get_solver_spec",
    "solver_names",
    "TrainingSession",
    "FitCallback",
    "CheckpointCallback",
    "EarlyStopping",
    "MetricLogger",
]
