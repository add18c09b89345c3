"""The paper's primary contribution: cuMF's ALS solvers.

Three solver classes mirror the paper's three algorithm levels:

* :class:`~repro.core.als_base.BaseALS` — Algorithm 1, the straightforward
  ALS formulation in plain NumPy; the numerical reference everything else
  is property-tested against.
* :class:`~repro.core.als_mo.MemoryOptimizedALS` — Algorithm 2 (MO-ALS):
  the same numerics driven through the simulated GPU, with the texture /
  shared-bin / register optimisations exposed as configuration switches so
  the Figure 7/8 ablations can be reproduced.
* :class:`~repro.core.als_su.ScaleUpALS` — Algorithm 3 (SU-ALS): model +
  data parallelism across a multi-GPU machine with a pluggable reduction
  scheme (Figure 5) and the eq.-8 partition planner.

:class:`~repro.core.trainer.CuMF` is the user-facing facade that picks a
solver, runs the alternating iterations, tracks RMSE and simulated time,
and offers prediction/recommendation helpers.  The unified training API
lives in :mod:`repro.core.solver`: the :class:`~repro.core.solver.Solver`
protocol, whose one ``fit`` every solver inherits, the solver registry
(``make_solver``/``register_solver``) and the callback-driven
:class:`~repro.core.solver.TrainingSession` that ``fit`` runs.

An ALS iteration is *built* as an explicit dataflow graph
(:mod:`repro.core.taskgraph`) and *executed* through a pluggable
scheduler (:mod:`repro.core.schedule` — ``make_scheduler`` /
``register_scheduler``, the same :class:`~repro.core.validation.Registry`
as the solver and router registries), which replays kernels and transfers on the
simulated machine and records chrome-tracing-exportable traces;
:class:`~repro.core.streaming.StreamingALS` (``"streaming-als"``)
feeds rating chunks through the same machinery as arriving waves.
The same graphs, sized from a full-scale
:class:`~repro.datasets.registry.DatasetSpec` instead of a rating
matrix, give the figures' per-iteration seconds
(``iteration_time`` on either GPU solver, an :class:`IterationTime`,
defined once on their shared driver :class:`~repro.core.als_base.GPUSolver`).
"""

from repro.core.config import ALSConfig, FitResult, IterationStats, IterationTime
from repro.core.metrics import objective_value, rmse
from repro.core.hermitian import (
    batch_solve,
    compute_hermitians,
    compute_hermitians_loop,
    update_factor,
)
from repro.core.kernels import batch_solve_profile, get_hermitian_profile, transfer_bytes
from repro.core.als_base import BaseALS
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.streaming import StreamingALS
from repro.core.taskgraph import DataObject, Task, TaskGraph
from repro.core.schedule import (
    ExecutionTrace,
    Scheduler,
    execute_graph,
    make_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.core.partition_planner import PartitionPlan, plan_partitions
from repro.core.checkpoint import CheckpointManager
from repro.core.sgd import sgd_epoch
from repro.core.solver import (
    CheckpointCallback,
    EarlyStopping,
    FitCallback,
    MetricLogger,
    Solver,
    SolverStep,
    TrainingSession,
    make_solver,
    register_solver,
    solver_names,
)
from repro.core.trainer import CuMF

__all__ = [
    "ALSConfig",
    "IterationStats",
    "IterationTime",
    "FitResult",
    "rmse",
    "objective_value",
    "compute_hermitians",
    "compute_hermitians_loop",
    "batch_solve",
    "update_factor",
    "get_hermitian_profile",
    "batch_solve_profile",
    "transfer_bytes",
    "BaseALS",
    "MemoryOptimizedALS",
    "ScaleUpALS",
    "StreamingALS",
    "DataObject",
    "Task",
    "TaskGraph",
    "Scheduler",
    "ExecutionTrace",
    "execute_graph",
    "make_scheduler",
    "register_scheduler",
    "scheduler_names",
    "PartitionPlan",
    "plan_partitions",
    "CheckpointManager",
    "sgd_epoch",
    "Solver",
    "SolverStep",
    "make_solver",
    "register_solver",
    "solver_names",
    "TrainingSession",
    "FitCallback",
    "CheckpointCallback",
    "EarlyStopping",
    "MetricLogger",
    "CuMF",
]
