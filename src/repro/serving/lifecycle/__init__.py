"""Model lifecycle: close the train → serve → retrain loop.

Training produces a frozen (X, Θ) snapshot and the serving tier answers
queries from it; this package manages what happens *next* in a
production recommender:

* :class:`~repro.serving.lifecycle.log.InteractionLog` — an appendable
  record of the ratings that arrive through serving (cold-start
  fold-ins, post-training feedback, ratings on brand-new items), kept as
  raw (user, item, rating) events that materialise into a CSR delta;
* :func:`~repro.serving.lifecycle.refresh.refresh_factors` — the
  incremental refresh step: re-solve only the affected user rows against
  the frozen Θ and fold in *new items* by solving their θ rows against
  the frozen X, via the same normal-equations kernels training uses
  (``compute_hermitians`` / ``batch_solve``), so refreshed rows equal a
  full retrain pass on the merged ratings to machine precision;
* :class:`~repro.serving.lifecycle.registry.SnapshotRegistry` —
  versioned factor snapshots layered on the checkpoint format, the
  handoff point between (re)training and rollout.

The zero-downtime v1 → v2 swap is not here: it is the cluster's rolling
swap (:meth:`~repro.serving.cluster.ServingCluster.swap_snapshot`, and
:meth:`~repro.serving.cluster.ServingCluster.plan_swap` for a replay's
timeline), which drains one replica at a time, swaps its store to the
new snapshot and returns it to rotation while traffic flows around it;
:class:`~repro.serving.service.facade.RecommenderService` rolls a
cluster to a registry version with it.
"""

from repro.serving.lifecycle.log import InteractionLog
from repro.serving.lifecycle.refresh import (
    RefreshResult,
    merged_ratings,
    refresh_factors,
    run_refresh_session,
)
from repro.serving.lifecycle.registry import Snapshot, SnapshotRegistry

__all__ = [
    "InteractionLog",
    "RefreshResult",
    "merged_ratings",
    "refresh_factors",
    "run_refresh_session",
    "Snapshot",
    "SnapshotRegistry",
]
