"""Replicated serving: R replicas of one served model in rotation behind a router.

One :class:`~repro.serving.store.FactorStore` is capacity-bound by its
machine; a production tier scales *reads* by replication.  A
:class:`ServingCluster` is a replica set: R replicas that serve one
model, each on its own independent simulated machine — a rotation (drain
/ restore), write-through writes, the rolling snapshot swap and merged
stats.  The replicas share the model itself, as cuMF replicates Θ and
has each unit compute its share once: the gated factors, their scoring
copies and shards, the fold-in state and the answer table, so a user is
scored once per model, not once per replica.  Each replica keeps only
what is its own: its machine and clock, its stats, and (tiered) its
cache tiers, heat and page table.  It
carries the routing policy (a :class:`~repro.serving.routing.Router`,
see :mod:`repro.serving.routing`) but makes no routing decision itself:
reads go through the one dispatch step,
:func:`~repro.serving.simulator.serve_window`, which the traffic
simulator calls per window and the service facade per request.

The cluster is the one serving backend: a lone store is served as a
one-replica cluster (:meth:`ServingCluster.of`), so the traffic
simulator and the service facade drive every deployment through this
class.  It defines the rolling snapshot swap once, as a drain step and a
swap step per replica: :meth:`ServingCluster.swap_snapshot` runs the
steps back to back, and :meth:`ServingCluster.plan_swap` schedules them
as :class:`LifecycleEvent` s on a replay's simulated timeline.

Writes do not scale by replication, so cold-start fold-ins are
*write-through*: :meth:`ServingCluster.fold_in` solves the user once per
distinct model the replicas serve (two mid-rollout), installs the result
on every replica that served that model, charges each replica its own
fold-in pass and checks they all assign the same user id — any replica
can then serve the new user with identical results and exclusion
behaviour.  Item growth and the rolling swap likewise build each new
model once.  A write made directly on one replica's store gives that
store a model of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.serving.cache.tiered import CacheStats
from repro.serving.routing import Router, make_router
from repro.serving.store import FactorStore, _Gated, _Model

__all__ = ["LifecycleEvent", "ServingCluster", "ShrinkingSnapshotError"]


@dataclass(frozen=True)
class LifecycleEvent:
    """A model-lifecycle action scheduled on the simulated timeline.

    ``action`` runs (once) when the replay clock passes ``time`` — e.g.
    drain a replica, swap its snapshot, return it to rotation.  Events
    fire between batch dispatches at arrival-time granularity; events
    scheduled past the last arrival are applied when the trace ends, so
    a rollout always completes.  Build rolling-swap event lists with
    :meth:`ServingCluster.plan_swap`, or against a registry version with
    :meth:`~repro.serving.service.facade.RecommenderService.plan_rollout`.
    """

    time: float
    action: Callable[[], None]
    label: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if not callable(self.action):
            raise ValueError("event action must be callable")


class ShrinkingSnapshotError(ValueError):
    """A snapshot would serve fewer users or items than the live cluster.

    Installing it would drop the users and items the cluster gained after
    the snapshot was taken (a fold-in's user, whose id would then be
    handed out again; grown items) and turn queries for them into errors,
    so a rollout refuses it before any replica installs it
    (:meth:`ServingCluster.check_axes`).
    """


class _RollingSwap:
    """One rolling swap of a cluster to a snapshot: a drain step and a swap step per replica.

    :meth:`drain` takes a replica out of rotation if it is in rotation
    and another replica is serving; :meth:`swap` installs the target on
    it, then restores it if its drain step took it out.  The first swap
    installs the gated snapshot, once it has checked, when it fires, that
    the snapshot still covers every user and item the live cluster serves
    (a write made after the swap was planned may have added some); if it
    does not, the step raises :class:`ShrinkingSnapshotError`, installs
    nothing and still restores the replica.  Every later swap installs
    the model the replica swapped before it serves at that moment
    (:meth:`model`), so a write the cluster made mid-rollout (a fold-in,
    item growth) on the already-swapped replicas reaches the replicas
    still to swap instead of being lost on them.
    """

    def __init__(self, cluster: "ServingCluster", gated: _Gated, meta: dict):
        self.cluster = cluster
        self.gated = gated
        self.meta = meta
        self.leader: FactorStore | None = None
        self.drained: set[int] = set()

    def model(self, n_shards: int) -> _Model:
        """The model a replica with ``n_shards`` shards swaps to now."""
        model = None if self.leader is None else self.leader._model
        if model is None or model in self.gated._models.values():  # no write since the last swap
            return self.gated.model(n_shards)
        return model if model.n_shards == n_shards else model.derive(n_shards)

    def drain(self, replica: int) -> None:
        cluster = self.cluster
        if cluster.is_active(replica) and cluster.n_active > 1:
            cluster.drain(replica)
            self.drained.add(replica)

    def swap(self, replica: int) -> None:
        store = self.cluster.replicas[replica]
        try:
            if self.leader is None:
                self.cluster.check_axes(self.gated.x.shape[0], self.gated.theta.shape[0], "the snapshot")
            store._swap_to(self, **self.meta)
            self.leader = store
        finally:
            if replica in self.drained:
                self.drained.remove(replica)
                self.cluster.restore(replica)


class ServingCluster:
    """R replicas of one served model, in rotation behind a routing policy.

    Parameters
    ----------
    replicas:
        Identical :class:`FactorStore` snapshots, each on its own
        simulated machine (build them with :meth:`from_store` /
        :meth:`from_result`, whose replicas share one model, or with
        :meth:`FactorStore.replicate`, whose copies each own theirs).
    router:
        Routing policy: a :class:`Router` instance or one of
        ``"round-robin"``, ``"least-loaded"``, ``"power-of-two"``.
    log:
        Optional :class:`~repro.serving.lifecycle.InteractionLog`; when
        set, each write-through :meth:`fold_in` is recorded there exactly
        once (at the cluster level, not once per replica) so a later
        incremental refresh can fold the ratings back into training.
    """

    def __init__(self, replicas: Sequence[FactorStore], router: Router | str = "least-loaded", log=None):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        head = replicas[0]
        for i, rep in enumerate(replicas[1:], start=1):
            if (rep.n_users, rep.n_items, rep.f) != (head.n_users, head.n_items, head.f):
                raise ValueError(
                    f"replica {i} shape ({rep.n_users} x {rep.n_items}, f={rep.f}) "
                    f"differs from replica 0 ({head.n_users} x {head.n_items}, f={head.f})"
                )
            if rep._n_trained_users != head._n_trained_users:
                raise ValueError(f"replica {i} disagrees on the trained-user count")
            if (rep.lam, rep.weighted) != (head.lam, head.weighted):
                raise ValueError(f"replica {i} has different fold-in hyper-parameters (lam={rep.lam}, weighted={rep.weighted})")
            # Same model everywhere, or routed answers are inconsistent.
            # The comparison is O(snapshot), i.e. no more than building the
            # replica was; replicas sharing the model object skip it.
            if rep._model is not head._model and not (
                np.array_equal(rep.x, head.x)
                and np.array_equal(rep.theta, head.theta)
                and all(np.array_equal(rep._folded_items[u], seg) for u, seg in head._folded_items.items())
            ):
                raise ValueError(f"replica {i} serves different factors or fold-ins")
        self.replicas = replicas
        self.router = make_router(router)
        self.log = log
        # Draining replicas stay in the list (they keep their queues and
        # stats) but are skipped by routing until restored.
        self._active = [True] * len(replicas)

    @classmethod
    def from_store(cls, store: FactorStore, n_replicas: int, router: Router | str = "least-loaded", log=None) -> "ServingCluster":
        """Replicate ``store`` onto ``n_replicas`` fresh machines, all serving one copy of its model.

        The source store is left untouched (it is not one of the
        replicas, and they do not share its answer table); fold-ins it
        already absorbed are carried into every replica, ids and
        exclusion sets included.
        """
        if n_replicas < 1:
            raise ValueError("n_replicas must be at least 1")
        head = store.replicate()
        return cls([head, *(head._sibling() for _ in range(n_replicas - 1))], router=router, log=log)

    @classmethod
    def from_result(
        cls,
        result,
        n_replicas: int,
        router: Router | str = "least-loaded",
        store_cls: type[FactorStore] = FactorStore,
        **store_kwargs,
    ) -> "ServingCluster":
        """Snapshot a finished training run straight into a cluster.

        The result's factors are gated once, and every replica serves the
        one model built from them (no intermediate throwaway store).
        ``store_kwargs`` configure the per-replica
        stores; a shared ``machine`` is rejected because every replica
        must own an independent simulated machine, and a ``log`` is
        attached at the cluster level (never per replica, which would
        record every write-through fold-in once per replica).
        ``store_cls`` selects the replica class — e.g. the tiered cache
        front (:class:`~repro.serving.cache.tiered.TieredFactorStore`)
        when ``ServingConfig.cache`` is set.
        """
        if n_replicas < 1:
            raise ValueError("n_replicas must be at least 1")
        if "machine" in store_kwargs:
            raise ValueError("replicas own independent machines; configure n_shards instead")
        log = store_kwargs.pop("log", None)
        head = store_cls.from_result(result, **store_kwargs)
        return cls([head, *(head._sibling() for _ in range(n_replicas - 1))], router=router, log=log)

    @classmethod
    def of(cls, backend: "ServingCluster | FactorStore") -> "ServingCluster":
        """The cluster that serves ``backend``: a cluster as is, a store as its one replica.

        The store is wrapped, not copied, so it keeps advancing its own
        stats and clock.  Anything else raises :class:`TypeError`.
        """
        if isinstance(backend, ServingCluster):
            return backend
        if isinstance(backend, FactorStore):
            return cls([backend])
        raise TypeError(f"cannot serve a {type(backend).__name__}: expected a FactorStore or ServingCluster")

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_replicas(self) -> int:
        """Number of replicas."""
        return len(self.replicas)

    @property
    def n_users(self) -> int:
        """Users servable by every replica (including fold-ins)."""
        return self.replicas[0].n_users

    @property
    def n_items(self) -> int:
        """Number of items."""
        return self.replicas[0].n_items

    @property
    def f(self) -> int:
        """Latent-feature dimension."""
        return self.replicas[0].f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingCluster({self.n_replicas} x {self.replicas[0]!r}, router={self.router.name!r})"

    # ------------------------------------------------------------------ #
    # lifecycle: drain / restore for rolling snapshot swaps
    # ------------------------------------------------------------------ #
    @property
    def n_active(self) -> int:
        """Number of replicas currently in rotation."""
        return sum(self._active)

    def active_indices(self) -> list[int]:
        """Indices of the replicas the router may pick."""
        return [i for i, active in enumerate(self._active) if active]

    def is_active(self, replica: int) -> bool:
        """Whether ``replica`` is in rotation (i.e. not draining)."""
        return self._active[replica]

    def drain(self, replica: int) -> None:
        """Take one replica out of rotation (e.g. to swap its snapshot).

        The replica keeps its machine, stats and any outstanding
        simulated work; it simply stops receiving new batches until
        :meth:`restore`.  Draining the last active replica is refused —
        a rolling operation must always leave someone serving.
        """
        if not 0 <= replica < self.n_replicas:
            raise ValueError(f"no replica {replica} in a {self.n_replicas}-replica cluster")
        if not self._active[replica]:
            raise ValueError(f"replica {replica} is already draining")
        if self.n_active == 1:
            raise RuntimeError("cannot drain the last active replica")
        self._active[replica] = False
        self._mark_lifecycle("drain", replica)

    def restore(self, replica: int) -> None:
        """Return a drained replica to rotation."""
        if not 0 <= replica < self.n_replicas:
            raise ValueError(f"no replica {replica} in a {self.n_replicas}-replica cluster")
        if self._active[replica]:
            raise ValueError(f"replica {replica} is not draining")
        self._active[replica] = True
        self._mark_lifecycle("restore", replica)

    def _mark_lifecycle(self, action: str, replica: int) -> None:
        """Tick + timestamp a rotation change on that replica's clock."""
        if not obs.enabled():
            return
        obs.get_registry().counter("serve.lifecycle", action=action).inc()
        obs.get_tracer().instant(
            f"{action} replica {replica}",
            ts=self.replicas[replica].stats.simulated_seconds,
            category="lifecycle",
            process="serve",
            track="lifecycle",
            replica=replica,
        )

    def check_axes(self, n_users: int, n_items: int, what: str) -> None:
        """Refuse a snapshot of ``n_users`` x ``n_items`` that serves fewer users or items than a replica does now.

        Axes may only grow or stay across a rollout (or a rollback), so
        in-flight queries never name a user or item the new model lacks;
        raises :class:`ShrinkingSnapshotError` naming the snapshot as
        ``what``.
        """
        users, items = max(rep.n_users for rep in self.replicas), max(rep.n_items for rep in self.replicas)
        if n_users < users:
            raise ShrinkingSnapshotError(f"{what} serves {n_users} users but the backend serves {users}")
        if n_items < items:
            raise ShrinkingSnapshotError(f"{what} serves {n_items} items but the backend serves {items}")

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    def serving_units(self) -> list[FactorStore]:
        """The independently-clocked stores behind this cluster."""
        return list(self.replicas)

    # ------------------------------------------------------------------ #
    # writes: applied everywhere
    # ------------------------------------------------------------------ #
    def fold_in(self, items: np.ndarray, ratings: np.ndarray) -> int:
        """Write-through cold-start: fold the user into *every* replica.

        The user's factor is solved once per distinct model the replicas
        serve (and fold-in hyper-parameters they hold), and each replica
        that served that model installs the one new model and is charged
        its own fold-in pass.  Returns the new user id, which is identical
        on all replicas (so follow-up queries can be routed anywhere);
        raises before touching any replica if the replicas have diverged
        and would disagree on the id (:class:`RuntimeError`) or if any
        model rejects the ratings (:class:`ValueError`).
        """
        user = self.replicas[0].n_users
        if any(rep.n_users != user for rep in self.replicas):
            counts = [rep.n_users for rep in self.replicas]
            raise RuntimeError(f"replicas diverged: user counts {counts}")
        folded: dict[tuple, tuple] = {}
        for rep in self.replicas:
            key = (rep._model, rep.lam, rep.weighted)
            if key not in folded:
                folded[key] = rep._model.folded(items, ratings, rep.lam, rep.weighted)
        for rep in self.replicas:
            assigned = rep._fold_to(*folded[rep._model, rep.lam, rep.weighted])
            assert assigned == user  # ids are allocated densely per replica
        if self.log is not None:
            self.log.record(user, items, ratings)
        return user

    def grow_items(self, new_theta: np.ndarray) -> int:
        """Write-through item growth: append θ rows on *every* replica.

        The item-side half of a refresh: new items folded in against the
        frozen X are appended to each replica's Θ, so the item axis grows
        consistently and any replica can serve the new items.  Each
        distinct model grows once and every replica that served it
        installs the grown model.  Returns the id of the first new item
        (identical everywhere); raises :class:`RuntimeError` — before
        touching any replica — if the replicas already disagree on the
        item count.
        """
        start = self.replicas[0].n_items
        if any(rep.n_items != start for rep in self.replicas):
            counts = [rep.n_items for rep in self.replicas]
            raise RuntimeError(f"replicas diverged: item counts {counts}")
        grown: dict = {}
        for rep in self.replicas:
            if rep._model not in grown:
                grown[rep._model] = rep._model.grown(new_theta)
        for rep in self.replicas:
            model = grown[rep._model]
            if model is not rep._model:
                rep._grow_to(model)
        return start

    def _rolling_steps(self, x: np.ndarray, theta: np.ndarray, folded_items: dict | None, **meta) -> list[tuple[Callable[[], None], Callable[[], None]]]:
        """The rolling swap to ``(x, theta)`` with fold-in state ``folded_items``: one ``(drain, swap)`` pair of steps per replica, in replica order.

        The snapshot is gated here, once; ``meta`` is the serving
        metadata every swap sets (see :meth:`FactorStore.swap_snapshot`).
        """
        roll = _RollingSwap(self, _Gated(x, theta, folded_items), meta)
        return [(partial(roll.drain, i), partial(roll.swap, i)) for i in range(self.n_replicas)]

    def swap_snapshot(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float | None = None,
        weighted: bool | None = None,
        version: str | None = None,
        solver: str | None = None,
        folded_items: dict[int, np.ndarray] | None = None,
    ) -> None:
        """Swap every replica to a new model, one at a time — the rolling swap, run now.

        The snapshot is gated once and the replicas install one model of
        it per shard count, with the fold-in state ``folded_items`` (see
        :meth:`FactorStore.swap_snapshot`; by default every row is a
        trained user).  A snapshot with fewer users or items than the
        cluster serves is refused (:class:`ShrinkingSnapshotError`) before
        any replica swaps.
        Each active replica is rotated out (drained) while its store
        swaps, then restored, so concurrent facade traffic always finds
        ``R - 1`` replicas serving; a lone replica is swapped directly
        (there is nobody to rotate behind), and an already-draining
        replica is swapped in place and left out of rotation.  To run the
        same steps mid-trace under traffic, use :meth:`plan_swap`.
        """
        for drain, swap in self._rolling_steps(x, theta, folded_items, lam=lam, weighted=weighted, version=version, solver=solver):
            drain()
            swap()

    def plan_swap(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float | None = None,
        weighted: bool | None = None,
        version: str | None = None,
        folded_items: dict[int, np.ndarray] | None = None,
        start_s: float,
        step_s: float,
        swap_s: float | None = None,
    ) -> list[LifecycleEvent]:
        """The rolling swap as simulator events, one replica per step.

        Replica ``i`` is drained at ``start_s + i * step_s`` and comes
        back — swapped to the new snapshot — ``swap_s`` (simulated)
        seconds later, modelling the time a real replica spends loading
        the new factors.  ``swap_s`` defaults to half a step and must not
        exceed ``step_s``, so at most one replica is out at a time.  The
        snapshot (with its fold-in state ``folded_items``, as
        :meth:`swap_snapshot` takes it) is gated once, when the plan is
        built.  The first replica swaps to its model, and every later one
        to the model the replica swapped before it serves at that moment,
        so a cluster fold-in or item growth made between two swaps
        reaches every replica.  A write
        made after the plan is built but before its first swap is not in
        the snapshot, which then serves fewer users or items than the
        cluster: the first swap step checks this when it fires and raises
        :class:`ShrinkingSnapshotError` (out of the replay that fires it)
        before any replica installs the snapshot, so the write is never
        dropped and no user id is handed out twice.
        Needs at least two replicas (someone must serve while one
        drains; use :meth:`swap_snapshot` for a single-replica cluster),
        all in rotation: a replica already drained would break the
        one-out-at-a-time rule, so the plan is refused before any event
        is built.
        """
        if self.n_replicas < 2:
            raise ValueError("a rolling swap under traffic needs at least 2 replicas; swap a single-replica cluster directly (rollout() / swap_snapshot())")
        draining = [i for i, active in enumerate(self._active) if not active]
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
        events: list[LifecycleEvent] = []
        for replica, (drain, swap) in enumerate(self._rolling_steps(x, theta, folded_items, lam=lam, weighted=weighted, version=version)):
            drain_at = start_s + replica * step_s
            events.append(LifecycleEvent(time=drain_at, action=drain, label=f"drain r{replica}"))
            events.append(LifecycleEvent(time=drain_at + swap_s, action=swap, label=f"swap r{replica} -> {version}"))
        return events

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def stats_dict(self) -> dict:
        """Aggregate + per-replica counters for printing / reports.

        ``rows_scored`` sums the user rows the replicas actually scored
        (:class:`~repro.serving.store.ServingStats`): the queries the
        shared answer tables did not answer.
        When the replicas are tiered cache fronts, their cache counters
        are summed into one cluster-level ``cache`` block (hit_rate is
        recomputed from the summed hits/misses, resident bytes summed
        per tier).
        """
        out = {
            "router": self.router.name,
            "n_replicas": self.n_replicas,
            "n_active": self.n_active,
            "queries": sum(rep.stats.queries for rep in self.replicas),
            "fold_ins": sum(rep.stats.fold_ins for rep in self.replicas),
            "rows_scored": sum(rep.stats.rows_scored for rep in self.replicas),
            "versions": [rep.version for rep in self.replicas],
            "per_replica": [rep.stats.as_dict() for rep in self.replicas],
        }
        tiered = [rep for rep in self.replicas if getattr(rep, "cache_stats", None) is not None]
        if tiered:
            out["cache"] = CacheStats.summed(rep.cache_stats.as_dict() for rep in tiered)
            resident: dict = {}
            for rep in tiered:
                for tier, nbytes in rep.resident_bytes().items():
                    resident[tier] = resident.get(tier, 0) + nbytes
            out["cache"]["resident_bytes"] = resident
        return out
