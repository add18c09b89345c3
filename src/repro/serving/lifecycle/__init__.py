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
  handoff point between (re)training and rollout;
* :class:`~repro.serving.lifecycle.rollout.RolloutController` — the
  zero-downtime v1 → v2 swap: drain one replica of a
  :class:`~repro.serving.cluster.ServingCluster` at a time, swap its
  :class:`~repro.serving.store.FactorStore` to the new snapshot, return
  it to rotation — while the traffic simulator keeps queries flowing
  around the drained replica.
"""

from repro.serving.lifecycle.log import InteractionLog
from repro.serving.lifecycle.refresh import (
    RefreshResult,
    merged_ratings,
    refresh_factors,
    run_refresh_session,
)
from repro.serving.lifecycle.registry import Snapshot, SnapshotRegistry
from repro.serving.lifecycle.rollout import RolloutController

__all__ = [
    "InteractionLog",
    "RefreshResult",
    "merged_ratings",
    "refresh_factors",
    "run_refresh_session",
    "Snapshot",
    "SnapshotRegistry",
    "RolloutController",
]
