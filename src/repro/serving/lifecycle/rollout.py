"""Zero-downtime snapshot rollout across a serving cluster.

Shipping a refreshed model must not drop traffic.
:class:`RolloutController` performs the classic rolling swap on a
:class:`~repro.serving.cluster.ServingCluster`: one replica at a time is
drained (the routing policy stops sending it batches), its
:class:`~repro.serving.store.FactorStore` is swapped to the target
:class:`~repro.serving.lifecycle.registry.SnapshotRegistry` version, and
it returns to rotation — so at every instant at least ``R - 1`` replicas
serve, and a mid-rollout cluster intentionally runs mixed v1/v2 for a
while (top-k answers may differ per replica until the swap completes,
the standard rollout trade-off).  A lone store is served as a
one-replica cluster, whose replica is swapped directly, since there is
nobody to rotate behind.

Rollbacks are the same choreography run at an older version:
:meth:`SnapshotRegistry.rollback` re-publishes the old factors as the
new head (version numbers stay monotonic) and the controller rolls the
cluster to it — see :meth:`RecommenderService.rollback`.

Two driving modes:

* :meth:`rollout` — immediate, for offline swaps with no traffic: the
  cluster's own rolling :meth:`~ServingCluster.swap_snapshot`;
* :meth:`plan_events` — a list of
  :class:`~repro.serving.simulator.LifecycleEvent` s for
  :meth:`RequestSimulator.run`, which executes the drain/swap/restore
  choreography *mid-trace* on the simulated timeline while queries keep
  flowing around the drained replica.
"""

from __future__ import annotations

from functools import partial

from repro.serving.cluster import ServingCluster
from repro.serving.lifecycle.registry import Snapshot, SnapshotRegistry
from repro.serving.simulator import LifecycleEvent
from repro.serving.store import FactorStore, _Gated, _Model

__all__ = ["RolloutController"]


class _RollingTarget:
    """What the swaps of one rolling plan install.

    The first swap installs the plan's gated snapshot.  Every later swap
    installs the model the replica swapped before it serves at that
    moment, so a write the cluster made mid-rollout (a fold-in, item
    growth) on the already-swapped replicas reaches the replicas still
    to swap instead of being lost on them.
    """

    def __init__(self, gated: _Gated):
        self.gated = gated
        self.leader: FactorStore | None = None

    def model(self, n_shards: int) -> _Model:
        """The model a replica with ``n_shards`` shards swaps to now."""
        if self.leader is None:
            return self.gated.model(n_shards)
        model = self.leader._model
        return model if model.n_shards == n_shards else model.derive(n_shards)


class RolloutController:
    """Rolls a serving cluster from its current snapshot to a registry version.

    ``backend`` is a :class:`~repro.serving.cluster.ServingCluster`, or a
    :class:`~repro.serving.store.FactorStore` served as a one-replica
    cluster (:meth:`ServingCluster.of`).
    """

    def __init__(self, backend: ServingCluster | FactorStore, registry: SnapshotRegistry):
        self.backend = ServingCluster.of(backend)
        self.registry = registry

    # ------------------------------------------------------------------ #
    def _checked_snapshot(self, version: int | None) -> Snapshot:
        """Load and sanity-check the target version against live traffic.

        A snapshot that serves fewer users or items than the live model
        would turn in-flight queries into errors mid-rollout, so axes
        may only grow or stay — for rollouts *and* rollbacks alike.
        """
        snap = self.registry.load(version)
        if snap.x.shape[0] < self.backend.n_users:
            raise ValueError(f"snapshot v{snap.version} serves {snap.x.shape[0]} users but the backend serves {self.backend.n_users}")
        if snap.theta.shape[0] < self.backend.n_items:
            raise ValueError(f"snapshot v{snap.version} serves {snap.theta.shape[0]} items but the backend serves {self.backend.n_items}")
        return snap

    def validate_target(self, version: int | None = None) -> Snapshot:
        """Public pre-flight: the snapshot ``version`` if it is deployable.

        Lets callers check a candidate *before* side effects of their own
        (e.g. :meth:`RecommenderService.rollback` validates the old
        version before re-publishing it as the new head).
        """
        return self._checked_snapshot(version)

    def _swap_and_restore(self, replica: int, snap: Snapshot, target: _RollingTarget) -> None:
        store = self.backend.replicas[replica]
        store._swap_to(target, lam=snap.lam, weighted=snap.weighted, version=snap.label)
        target.leader = store
        self.backend.restore(replica)

    # ------------------------------------------------------------------ #
    def rollout(self, version: int | None = None) -> Snapshot:
        """Swap every replica to ``version`` right now, one at a time.

        This is the cluster's rolling :meth:`~ServingCluster.swap_snapshot`:
        each replica in rotation is drained, swapped and restored before
        the next one starts, so direct (non-simulator) traffic never sees
        fewer than ``R - 1`` active replicas; a drained replica is swapped
        in place and stays drained.  Returns the snapshot that was rolled
        out.
        """
        snap = self._checked_snapshot(version)
        self.backend.swap_snapshot(snap.x, snap.theta, lam=snap.lam, weighted=snap.weighted, version=snap.label)
        return snap

    def plan_events(
        self,
        version: int | None = None,
        *,
        start_s: float,
        step_s: float,
        swap_s: float | None = None,
    ) -> list[LifecycleEvent]:
        """The rolling swap as simulator events, one replica per step.

        Replica ``i`` is drained at ``start_s + i * step_s`` and comes
        back — swapped to the new version — ``swap_s`` (simulated)
        seconds later, modelling the time a real replica spends loading
        the new factors.  ``swap_s`` defaults to half a step and must not
        exceed ``step_s``, so at most one replica is out at a time.  The
        snapshot is gated once, when the plan is built.  The first replica
        swaps to its model, and every later one to the model the replica
        swapped before it serves at that moment, so a cluster fold-in or
        item growth made between two swaps reaches every replica.  Known
        limit: a write made after the plan is built but before its first
        swap is not in the snapshot, so the first swap drops it, the
        later swaps follow the first, and a dropped fold-in's user id is
        handed out again; plan the rollout after such writes, or publish
        a snapshot that holds them.
        Needs at least two replicas (someone must serve while one
        drains; use :meth:`rollout` for a single-replica cluster), all
        in rotation: a replica already drained would break the
        one-out-at-a-time rule, so the plan is refused before any event
        is built.
        """
        n_replicas = self.backend.n_replicas
        if n_replicas < 2:
            raise ValueError("a rolling swap under traffic needs at least 2 replicas; use rollout() for a single-replica cluster")
        draining = [i for i in range(n_replicas) if not self.backend.is_active(i)]
        if draining:
            raise ValueError(f"cannot plan a rolling swap while replicas {draining} are draining; restore them first")
        if start_s < 0:
            raise ValueError("start_s must be non-negative")
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        if swap_s is None:
            swap_s = 0.5 * step_s
        if not 0 < swap_s <= step_s:
            raise ValueError("need 0 < swap_s <= step_s (one replica out at a time)")
        snap = self._checked_snapshot(version)
        target = _RollingTarget(_Gated(snap.x, snap.theta))
        events: list[LifecycleEvent] = []
        for replica in range(n_replicas):
            drain_at = start_s + replica * step_s
            events.append(LifecycleEvent(time=drain_at, action=partial(self.backend.drain, replica), label=f"drain r{replica}"))
            events.append(
                LifecycleEvent(time=drain_at + swap_s, action=partial(self._swap_and_restore, replica, snap, target), label=f"swap r{replica} -> {snap.label}")
            )
        return events

    # ------------------------------------------------------------------ #
    def status(self) -> dict:
        """Per-replica version/rotation view (for prints and asserts)."""
        return {
            "versions": [rep.version for rep in self.backend.replicas],
            "active": self.backend.active_indices(),
            "registry": self.registry.versions(),
        }
