"""Inter-GPU communication schemes (reductions and the Θ scatter).

This package implements the three ways §4.2 considers for combining the
per-GPU partial Hermitians ``A^(ij)`` / right-hand sides ``B^(ij)`` that
data parallelism produces:

* :class:`~repro.comm.reduction.ReduceToOne` — the naive scheme (one GPU
  pulls everything and solves alone);
* :class:`~repro.comm.reduction.OnePhaseParallelReduction` — Figure 5a:
  every GPU owns 1/p of the rows and pulls that slice from all peers, so
  every PCIe lane is used in both directions simultaneously;
* :class:`~repro.comm.reduction.TwoPhaseTopologyReduction` — Figure 5b:
  partials are first reduced inside each socket, and only the pre-reduced
  slices cross the slower inter-socket link.

All schemes share the same numerics (:func:`numeric_reduce`); they differ
only in the transfer batches they schedule, and therefore in simulated
time.  :func:`~repro.comm.collective.scatter_plan` builds the one other
collective SU-ALS issues: the host → GPU scatter of the Θᵀ partitions.
"""

from repro.comm.reduction import (
    OnePhaseParallelReduction,
    ReduceToOne,
    ReductionScheme,
    TwoPhaseTopologyReduction,
    numeric_reduce,
)
from repro.comm.collective import scatter_plan

__all__ = [
    "ReductionScheme",
    "ReduceToOne",
    "OnePhaseParallelReduction",
    "TwoPhaseTopologyReduction",
    "numeric_reduce",
    "scatter_plan",
]
