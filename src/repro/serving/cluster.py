"""Replicated serving: R copies of one store behind a load-balancing router.

One :class:`~repro.serving.store.FactorStore` is capacity-bound by its
machine; a production tier scales *reads* by replication.  A
:class:`ServingCluster` holds R replicas of one snapshot — each produced
by :meth:`FactorStore.replicate`, i.e. an identical model on its own
independent simulated machine — and routes every batched top-k call
through a pluggable :class:`~repro.serving.routing.Router` policy.
Policies live in :mod:`repro.serving.routing` (round-robin /
least-loaded / power-of-two out of the box) and new ones join via
:func:`~repro.serving.routing.register_router` without touching this
module; the classes are re-exported here for compatibility.

The cluster is the one serving backend: a lone store is served as a
one-replica cluster (:meth:`ServingCluster.of`), so the traffic
simulator, the rollout controller and the service facade drive every
deployment through this class.

Writes do not scale by replication, so cold-start fold-ins are
*write-through*: :meth:`ServingCluster.fold_in` applies the same solve
to every replica and checks they all assign the same user id — any
replica can then serve the new user with identical results and
exclusion behaviour.

The cluster is driven either directly (:meth:`recommend_batch` routes
one batch) or by a :class:`~repro.serving.simulator.RequestSimulator`,
which keeps one server-free timeline per replica and reports per-replica
utilization, so the routing policies can be compared under the same
arrival trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.serving.routing import (
    LeastLoadedRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    Router,
    make_router,
    select_replica,
)
from repro.serving.store import FactorStore

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "ServingCluster",
    "make_router",
    "select_replica",
]


class ServingCluster:
    """R replicas of one factor snapshot behind a routing policy.

    Parameters
    ----------
    replicas:
        Identical :class:`FactorStore` snapshots, each on its own
        simulated machine (build them with :meth:`from_store` /
        :meth:`from_result` or :meth:`FactorStore.replicate`).
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
            # replica was.
            if not (
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
        """Replicate ``store`` onto ``n_replicas`` fresh machines.

        The source store is left untouched (it is not one of the
        replicas); fold-ins it already absorbed are carried into every
        replica, ids and exclusion sets included.
        """
        if n_replicas < 1:
            raise ValueError("n_replicas must be at least 1")
        return cls([store.replicate() for _ in range(n_replicas)], router=router, log=log)

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

        Each replica is built directly from the result (no intermediate
        throwaway store).  ``store_kwargs`` configure the per-replica
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
        replicas = [store_cls.from_result(result, **store_kwargs) for _ in range(n_replicas)]
        return cls(replicas, router=router, log=log)

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

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    def serving_units(self) -> list[FactorStore]:
        """The independently-clocked stores behind this cluster."""
        return list(self.replicas)

    def loads(self) -> list[float]:
        """Cumulative simulated serving seconds, one entry per replica."""
        return [rep.stats.simulated_seconds for rep in self.replicas]

    # ------------------------------------------------------------------ #
    # reads: routed to one active replica
    # ------------------------------------------------------------------ #
    def route(self) -> int:
        """Ask the router for the replica that should take the next batch.

        Only active replicas are offered to the router (their cumulative
        simulated serving seconds stand in for outstanding work outside
        the traffic simulator); the returned index is a global replica
        index.
        """
        active = self.active_indices()
        all_loads = self.loads()
        return active[select_replica(self.router, [all_loads[i] for i in active])]

    def predict(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Predicted ratings (replica-independent; first active replica)."""
        return self.replicas[self.active_indices()[0]].predict(users, items)

    def recommend(self, user: int, k: int = 10, exclude=None) -> list[tuple[int, float]]:
        """Top-``k`` for one user, routed to one replica.

        ``k`` is validated before the routing decision, so a rejected
        request does not consume a routing slot; the error is the
        store's own.
        """
        return self.recommend_batch(np.array([user]), k=k, exclude=exclude)[0]

    def recommend_batch(self, users: np.ndarray, k: int = 10, exclude=None, user_block: int = 512) -> list[list[tuple[int, float]]]:
        """Top-``k`` for a batch of users, routed to one replica.

        ``k`` and ``user_block`` are validated before the routing
        decision (the store's own check); everything else is delegated
        to the routed replica.
        """
        FactorStore.check_topk_args(k, user_block)
        return self.replicas[self.route()].recommend_batch(users, k=k, exclude=exclude, user_block=user_block)

    # ------------------------------------------------------------------ #
    # writes: applied everywhere
    # ------------------------------------------------------------------ #
    def fold_in(self, items: np.ndarray, ratings: np.ndarray) -> int:
        """Write-through cold-start: fold the user into *every* replica.

        Returns the new user id, which is identical on all replicas (so
        follow-up queries can be routed anywhere); raises
        :class:`RuntimeError` — before touching any replica — if the
        replicas have diverged and would disagree on the id.
        """
        user = self.replicas[0].n_users
        if any(rep.n_users != user for rep in self.replicas):
            counts = [rep.n_users for rep in self.replicas]
            raise RuntimeError(f"replicas diverged: user counts {counts}")
        for rep in self.replicas:
            assigned = rep.fold_in(items, ratings)
            assert assigned == user  # ids are allocated densely per replica
        if self.log is not None:
            self.log.record(user, items, ratings)
        return user

    def grow_items(self, new_theta: np.ndarray) -> int:
        """Write-through item growth: append θ rows on *every* replica.

        The item-side half of a refresh: new items folded in against the
        frozen X are appended to each replica's Θ, so the item axis grows
        consistently and any replica can serve the new items.  Returns
        the id of the first new item (identical everywhere); raises
        :class:`RuntimeError` — before touching any replica — if the
        replicas already disagree on the item count.
        """
        start = self.replicas[0].n_items
        if any(rep.n_items != start for rep in self.replicas):
            counts = [rep.n_items for rep in self.replicas]
            raise RuntimeError(f"replicas diverged: item counts {counts}")
        for rep in self.replicas:
            appended = rep.grow_items(new_theta)
            assert appended == start  # item ids are allocated densely per replica
        return start

    def swap_snapshot(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float | None = None,
        weighted: bool | None = None,
        version: str | None = None,
        solver: str | None = None,
    ) -> None:
        """Swap every replica to a new model, one at a time — the rolling swap.

        Each active replica is rotated out (drained) while its store
        swaps, then restored, so concurrent direct traffic always finds
        ``R - 1`` replicas serving; a lone replica is swapped directly
        (there is nobody to rotate behind), and an already-draining
        replica is swapped in place and left out of rotation.  For a
        scheduled rolling swap against a registry (mid-trace,
        per-version query accounting) use
        :meth:`~repro.serving.lifecycle.rollout.RolloutController.plan_events`.
        """
        for i in range(self.n_replicas):
            rotate = self._active[i] and self.n_active > 1
            if rotate:
                self.drain(i)
            try:
                self.replicas[i].swap_snapshot(x, theta, lam=lam, weighted=weighted, version=version, solver=solver)
            finally:
                if rotate:
                    self.restore(i)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def total_queries(self) -> int:
        """Queries served across all replicas."""
        return sum(rep.stats.queries for rep in self.replicas)

    def stats_dict(self) -> dict:
        """Aggregate + per-replica counters for printing / reports.

        When the replicas are tiered cache fronts, their cache counters
        are summed into one cluster-level ``cache`` block (hit_rate is
        recomputed from the summed hits/misses, resident bytes summed
        per tier).
        """
        out = {
            "router": self.router.name,
            "n_replicas": self.n_replicas,
            "n_active": self.n_active,
            "queries": self.total_queries(),
            "fold_ins": sum(rep.stats.fold_ins for rep in self.replicas),
            "versions": [rep.version for rep in self.replicas],
            "per_replica": [rep.stats.as_dict() for rep in self.replicas],
        }
        caches = [rep.cache_stats.as_dict() for rep in self.replicas if getattr(rep, "cache_stats", None) is not None]
        if caches:
            agg: dict = {}
            for block in caches:
                for key, value in block.items():
                    agg[key] = agg.get(key, 0) + value
            total = agg.get("hits", 0) + agg.get("misses", 0)
            agg["hit_rate"] = agg.get("hits", 0) / total if total else 0.0
            resident: dict = {}
            for rep in self.replicas:
                if getattr(rep, "cache_stats", None) is None:
                    continue
                for tier, nbytes in rep.resident_bytes().items():
                    resident[tier] = resident.get(tier, 0) + nbytes
            agg["resident_bytes"] = resident
            out["cache"] = agg
        return out
