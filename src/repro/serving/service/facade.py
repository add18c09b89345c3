"""The serving front door: one facade over a :class:`~repro.serving.cluster.ServingCluster`.

:class:`RecommenderService` splits serving into the two planes a
production recommender actually has:

* a **data plane** — :meth:`predict`, :meth:`recommend`, :meth:`rate` —
  where every call takes a typed request and returns a
  :class:`~repro.serving.service.envelopes.ServeResponse` (status,
  payload, simulated latency, served version, serving unit) instead of
  a bare array; backend errors become error envelopes, so one bad
  request cannot take down a serving loop.  A predict or recommend call
  is a one-request window of the replay's dispatch step
  (:func:`~repro.serving.simulator.serve_window`), so the facade and
  :meth:`simulate` route, serve and charge by one rule;
* an **admin plane** — :meth:`fold_in`, :meth:`refresh`,
  :meth:`snapshot`, :meth:`rollout`, :meth:`rollback`, :meth:`drain` /
  :meth:`restore` — the operator verbs that mutate the deployment, which
  raise on misuse like any other operator tool.

The facade drives one cluster: a lone
:class:`~repro.serving.store.FactorStore` is served as a one-replica
cluster (:meth:`ServingCluster.of`), so it behaves exactly like an
R-replica deployment.  Build one declaratively with
:meth:`CuMF.serve(ServingConfig(...)) <repro.core.trainer.CuMF.serve>`.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from operator import methodcaller
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

import repro.obs as obs
from repro.serving.cluster import LifecycleEvent, ServingCluster
from repro.serving.lifecycle.refresh import RefreshResult, run_refresh_session
from repro.serving.lifecycle.registry import Snapshot, SnapshotRegistry
from repro.serving.service.envelopes import (
    ENVELOPE_STATUS,
    SERVICE_DEFAULT,
    PredictRequest,
    RateRequest,
    RecommendRequest,
    ServeResponse,
)
from repro.serving.simulator import QueryTrace, RequestSimulator, TrafficReport, serve_window
from repro.serving.store import FactorStore
from repro.serving.tenancy import STATUS_DEGRADED, STATUS_ERROR, STATUS_OK, STATUS_SHED_CAP, TenantPolicyTable, TenantScheduler
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.serving.lifecycle.log import InteractionLog

__all__ = ["RecommenderService"]


class RecommenderService:
    """Data-plane envelopes and admin-plane lifecycle over one cluster.

    Parameters
    ----------
    backend:
        A :class:`~repro.serving.cluster.ServingCluster`, or a
        :class:`~repro.serving.store.FactorStore` served as a one-replica
        cluster (:meth:`ServingCluster.of`); :attr:`backend` is the
        cluster either way.
    registry:
        Optional :class:`~repro.serving.lifecycle.SnapshotRegistry`;
        required for the versioned admin verbs (refresh-to-version,
        rollout, rollback, snapshot).
    log:
        Optional :class:`~repro.serving.lifecycle.InteractionLog` that
        :meth:`rate` and the cluster's fold-ins record into.  Defaults
        to the cluster's attached log; when given and the cluster has
        none, it is wired onto the cluster.
    ratings:
        The ratings matrix the served model was trained on — the default
        seen-item exclusion for :meth:`recommend` and the base matrix of
        the first :meth:`refresh`.  Each refresh replaces it with the
        merged matrix once the refreshed model is actually deployed
        (immediately without a registry, at :meth:`rollout` time with
        one), so the exclusion always matches the served item axis.
    policies:
        Optional tenant policy table (anything
        :meth:`~repro.serving.tenancy.TenantPolicyTable.coerce`
        accepts).  When set, the data plane enforces each tenant's rate
        cap at admission — over-cap calls return typed ``shed``
        envelopes (or ``degraded`` reduced-``k`` answers when the policy
        allows) instead of serving — and :meth:`simulate` runs the
        scheduled weighted-fair replay for tenant-labelled traces.
        ``None`` keeps the service single-tenant with zero overhead.
    """

    def __init__(
        self,
        backend: ServingCluster | FactorStore,
        *,
        registry: SnapshotRegistry | None = None,
        log: "InteractionLog | None" = None,
        ratings: CSRMatrix | None = None,
        policies: TenantPolicyTable | None = None,
    ):
        self.backend = backend = ServingCluster.of(backend)
        self.registry = registry
        if log is None:
            log = backend.log
        elif backend.log is None:
            backend.log = log  # wire fold-in recording through the cluster
        self.log = log
        self.ratings = ratings
        # A refresh published to the registry but not yet rolled out:
        # (version, merged ratings).  The merged matrix matches the *new*
        # model's axes, so it only becomes the live exclusion once the
        # backend actually serves that version (see _adopt_if_pending).
        self._pending: tuple[int, CSRMatrix] | None = None
        self.policies = TenantPolicyTable.coerce(policies)
        self._scheduler = TenantScheduler(self.policies) if self.policies is not None else None
        # Every data-plane call's outcome: (kind, tenant, code) -> calls, in first-call order.
        self._tally: Counter[tuple[str, str, int]] = Counter()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecommenderService({self.backend!r}, registry={'yes' if self.registry is not None else 'no'}, log={'yes' if self.log is not None else 'no'})"

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Users servable right now (fold-ins included)."""
        return self.backend.n_users

    @property
    def n_items(self) -> int:
        """Items servable right now."""
        return self.backend.n_items

    def versions(self) -> list[str]:
        """Model version served by each unit (mixed mid-rollout)."""
        return [unit.version for unit in self.backend.serving_units()]

    def stats(self) -> dict:
        """Service counters merged over the backend's own stats.

        ``requests`` (served calls per kind), ``request_errors`` and, with
        a policy table configured, ``tenants`` (one ``{"ok", "degraded",
        "shed", "error"}`` counter dict per tenant that has called the
        data plane) are read off the tally of call outcomes.
        """
        stats = dict(self.backend.stats_dict())
        requests, errors, tenants = {"predict": 0, "recommend": 0, "rate": 0}, 0, {}
        for (kind, tenant, code), n in self._tally.items():
            status = ENVELOPE_STATUS[code]
            if status == "error":
                errors += n
            elif status != "shed":
                requests[kind] += n
            if self._scheduler is not None:
                tenants.setdefault(tenant, dict.fromkeys(("ok", "degraded", "shed", "error"), 0))[status] += n
        stats["requests"] = requests
        stats["request_errors"] = errors
        if tenants:
            stats["tenants"] = tenants
        return stats

    # ------------------------------------------------------------------ #
    # data plane: typed envelopes in, ServeResponse out
    # ------------------------------------------------------------------ #
    def _lifecycle(self, action: str, **args) -> None:
        """Mark an admin-plane verb on the serving timeline."""
        if not obs.enabled():
            return
        obs.get_registry().counter("serve.lifecycle", action=action).inc()
        obs.get_tracer().instant(
            action,
            ts=self._clock()[2],
            category="lifecycle",
            process="serve",
            track="lifecycle",
            **args,
        )

    def _clock(self) -> tuple[list[int], list[float], float]:
        """The replicas in rotation, each replica's free time, and now.

        The facade serves one-request windows on the replicas' own
        timelines: replica ``r`` is free at its ``stats.simulated_seconds``,
        read as an instant, and a request arrives, is admitted and
        dispatches at the earliest free time of a replica in rotation.  A
        served read's latency is its wait for the chosen replica plus the
        seconds its call charged, never a difference of that replica's
        running total.
        """
        active = self.backend.active_indices()
        free = [unit.stats.simulated_seconds for unit in self.backend.replicas]
        return active, free, min(free[r] for r in active)

    def _respond(
        self, kind: str, tenant: str, code: int, payload: Any = None, *, exc: Exception | None = None, start_s: float | None = None, **served
    ) -> ServeResponse:
        """The one envelope builder: tally the call as ``(kind, tenant, code)``, build its envelope and observe it.

        ``served`` carries a served read's ``latency_s``/``version``/
        ``replica`` and ``start_s`` its arrival; an error envelope carries
        ``exc``, and a shed one is the typed rejection (the model never saw
        the request).  Every envelope ticks ``serve.requests`` (labelled by
        kind / status / tenant); a served read also lands in the per-tenant
        latency histogram and becomes a request span on the serving
        timeline, anchored at the replica's simulated clock.
        """
        self._tally[kind, tenant, code] += 1
        status = ENVELOPE_STATUS[code]
        if exc is not None:
            served.update(error=str(exc), error_type=type(exc).__name__)
        elif status == "shed":
            served.update(error=f"tenant {tenant!r} over rate cap", error_type="ShedError")
        response = ServeResponse(kind=kind, status=status, payload=payload, tenant=tenant, **served)
        if not obs.enabled():
            return response
        registry = obs.get_registry()
        registry.counter("serve.requests", kind=kind, status=status, tenant=tenant).inc()
        if start_s is not None:
            registry.histogram("serve.latency_s", tenant=tenant).observe(response.latency_s)
            obs.get_tracer().add_span(
                f"{kind}:{tenant}",
                start=start_s,
                end=start_s + response.latency_s,
                category="request",
                process="serve",
                track=f"replica:{response.replica}",
                status=status,
                version=response.version,
            )
        return response

    def _dispatch(self, kind: str, tenant: str, call: Callable[[int | None], Callable], k: int | None = None) -> ServeResponse:
        """Admit one read as a one-arrival ``admit_many`` and serve it as a one-request window, or shed it.

        ``call(k)`` is the read the replica chosen by the replay's dispatch
        step serves at top-``k``.  A degrade verdict serves the policy's
        ``degrade_k`` when it is below ``k`` and the full ``k`` otherwise;
        a read without a ``k`` (predict) has no reduced path, so it sheds.
        """
        active, free, now = self._clock()
        code = STATUS_OK
        if self._scheduler is not None:
            code = int(self._scheduler.admit_many(tenant, np.array([now]))[0])
            if code == STATUS_DEGRADED:
                degrade_k = self.policies.policy_for(tenant).degrade_k
                if k is None:
                    code = STATUS_SHED_CAP
                elif degrade_k < k:
                    k = degrade_k
                else:
                    code = STATUS_OK
            if code == STATUS_SHED_CAP:
                return self._respond(kind, tenant, code)
        try:  # on a copy of ``free``: the wait below reads the chosen replica's free time before the call
            replica, [(payload, service, _)] = serve_window(self.backend, active, list(free), now, [call(k)])
        except (ValueError, RuntimeError) as exc:
            return self._respond(kind, tenant, STATUS_ERROR, exc=exc)
        version = self.backend.replicas[replica].version
        return self._respond(kind, tenant, code, payload, latency_s=max(0.0, free[replica] - now) + service, version=version, replica=replica, start_s=now)

    def predict(self, users: Any, items: np.ndarray | None = None, *, tenant: str = "default") -> ServeResponse:
        """Score aligned (user, item) pairs, served as a one-request window like :meth:`recommend`.

        Accepts a :class:`PredictRequest` or plain aligned index arrays.
        The request is routed, served and charged by the replay's
        dispatch step, and ``latency_s`` is its wait plus its service.
        With tenancy configured, an over-cap tenant is shed — prediction
        has no reduced-``k`` degrade knob, so the cap is hard here.
        """
        request = users if isinstance(users, PredictRequest) else PredictRequest(users, items, tenant=tenant)
        return self._dispatch("predict", request.tenant, lambda _: methodcaller("predict", request.users, request.items))

    def recommend(
        self,
        users: Any,
        k: int = 10,
        *,
        user_block: int = 512,
        exclude: Any = SERVICE_DEFAULT,
        tenant: str = "default",
    ) -> ServeResponse:
        """Top-``k`` for one user or a batch, served as a one-request window.

        Accepts a :class:`RecommendRequest` or plain arguments; the
        payload is always the store's :class:`~repro.serving.store.TopK`,
        read as one ``[(item, score), ...]`` list per user.
        ``exclude`` defaults to the service's ratings matrix; pass
        ``None`` to disable exclusion for this request.

        The request arrives when the first replica in rotation frees up
        (see :meth:`_clock`) and is routed, served and charged by the
        replay's dispatch step.  ``latency_s`` is the service time on a
        load-aware pick, plus the wait behind the chosen replica's
        backlog on a load-blind one.

        With tenancy configured, admission runs first: an over-cap
        tenant whose policy has a ``degrade_k`` is served at that
        reduced ``k`` with ``status="degraded"``; otherwise the call
        returns a typed ``shed`` envelope without consuming a routing
        slot.
        """
        if isinstance(users, RecommendRequest):
            request = users
        else:
            request = RecommendRequest(users, k=k, user_block=user_block, exclude=exclude, tenant=tenant)
        mask = self.ratings if request.exclude is SERVICE_DEFAULT else request.exclude
        # A request rejected for a bad k or user_block never consumes a
        # routing slot (the store's own check).
        try:
            FactorStore.check_topk_args(request.k, request.user_block)
        except ValueError as exc:
            return self._respond("recommend", request.tenant, STATUS_ERROR, exc=exc)

        def call(k_eff: int) -> Callable:
            batch = np.atleast_1d(np.asarray(request.users))
            return methodcaller("recommend_batch", batch, k=k_eff, exclude=mask, user_block=request.user_block)

        return self._dispatch("recommend", request.tenant, call, request.k)

    def rate(
        self,
        user: Any,
        items: np.ndarray | None = None,
        ratings: np.ndarray | None = None,
        *,
        tenant: str = "default",
    ) -> ServeResponse:
        """Log feedback from a known user for the next refresh.

        Accepts a :class:`RateRequest` or plain arguments.  The payload
        is the number of events recorded.  Item ids may exceed the
        served catalogue (first ratings of brand-new items); the user id
        must be servable — cold-start users enter through the admin
        plane's :meth:`fold_in`.  Logging consumes no serving capacity,
        so rate calls are never rate-capped or shed.
        """
        request = user if isinstance(user, RateRequest) else RateRequest(user, items, ratings, tenant=tenant)
        try:
            if self.log is None:
                raise RuntimeError("service has no interaction log; serve with ServingConfig(log=True)")
            user_arr = np.asarray(request.user)
            if user_arr.ndim == 0 and np.issubdtype(user_arr.dtype, np.integer):
                if not 0 <= int(user_arr) < self.backend.n_users:
                    raise ValueError(f"user index out of range: service serves users [0, {self.backend.n_users}); cold-start users go through fold_in")
            n_events = self.log.record(request.user, request.items, request.ratings)
        except (ValueError, RuntimeError) as exc:
            return self._respond("rate", request.tenant, STATUS_ERROR, exc=exc)
        return self._respond("rate", request.tenant, STATUS_OK, n_events, version=self.backend.serving_units()[0].version)

    # ------------------------------------------------------------------ #
    # admin plane: operator verbs, which raise on misuse
    # ------------------------------------------------------------------ #
    def fold_in(self, items: np.ndarray, ratings: np.ndarray) -> int:
        """Absorb a cold-start user on every serving unit; returns their id.

        Write-through on a replicated backend; the ratings are recorded
        in the interaction log (when attached) for the next refresh.
        """
        user = self.backend.fold_in(items, ratings)
        self._lifecycle("fold_in", user=user)
        return user

    def grow_items(self, new_theta: np.ndarray) -> int:
        """Append item rows on every serving unit; returns the first new id."""
        return self.backend.grow_items(new_theta)

    def refresh(self, base: CSRMatrix | None = None, tag: str = "refresh", callbacks=()) -> RefreshResult:
        """Fold the interaction log back into the model incrementally.

        Re-solves only the affected user rows (fold-ins included)
        against the frozen Θ — extended with θ rows folded in for
        brand-new items — exactly like
        :func:`~repro.serving.lifecycle.refresh.refresh_factors`, run as
        a one-iteration training session so ``callbacks`` receive the
        usual ``on_fit_start`` / ``on_iteration_end`` / ``on_fit_end``
        hooks with the post-refresh train RMSE.  With
        a registry attached, the refreshed factors are published as the
        next version (roll them out with :meth:`rollout`); without one,
        they are swapped into the backend immediately.  The consumed log
        is cleared only once the publish/swap succeeded, and the
        service's ratings matrix is replaced by the merged one as soon
        as the backend serves the refreshed axes — immediately on the
        swap path, at deployment on the registry path (the merged matrix
        has one column per *new* item, which the live model does not
        serve until rolled out).
        """
        if base is None:
            base = self.ratings
        if base is None:
            raise ValueError("refresh needs the base ratings matrix (ServingConfig.ratings or base=...)")
        if self.log is None:
            raise RuntimeError("refresh needs an interaction log; serve with ServingConfig(log=True)")
        unit = self.backend.serving_units()[0]
        refreshed, _ = run_refresh_session(unit.x, unit.theta, base, self.log, unit.lam, weighted=unit.weighted, callbacks=callbacks)
        if self.registry is not None:
            version = self.registry.publish(
                refreshed.x,
                refreshed.theta,
                lam=unit.lam,
                weighted=unit.weighted,
                tag=tag,
            )
            self._pending = (version, refreshed.ratings)
        else:
            self.backend.swap_snapshot(refreshed.x, refreshed.theta)
            self.ratings = refreshed.ratings
        self.log.clear()
        self._lifecycle("refresh", tag=tag)
        return refreshed

    def _adopt_if_pending(self, version: int) -> None:
        """Make a deployed refresh's merged matrix the live exclusion."""
        if self._pending is not None and self._pending[0] == version:
            self.ratings = self._pending[1]
            self._pending = None

    def snapshot(self, tag: str = "") -> int:
        """Publish the live factors as a new registry version; returns it."""
        registry = self._require_registry()
        version = registry.publish_store(self.backend.serving_units()[0], tag=tag)
        self._lifecycle("snapshot", version=version)
        return version

    def _target(self, version: int | None) -> Snapshot:
        """Load registry ``version`` (default: latest) if the cluster may roll to it.

        A snapshot that serves fewer users or items than the live model
        would turn in-flight queries into errors mid-rollout, so axes
        may only grow or stay — for rollouts *and* rollbacks alike
        (:meth:`~repro.serving.cluster.ServingCluster.check_axes`).
        """
        snap = self._require_registry().load(version)
        self.backend.check_axes(snap.x.shape[0], snap.theta.shape[0], f"snapshot v{snap.version}")
        return snap

    def rollout(self, version: int | None = None) -> Snapshot:
        """Roll every serving unit to ``version`` (default: latest) now.

        This is the cluster's rolling
        :meth:`~repro.serving.cluster.ServingCluster.swap_snapshot`: each
        unit in rotation is drained, swapped and restored before the next
        one starts, so direct traffic never sees fewer than ``R - 1``
        active units; a drained unit is swapped in place and stays
        drained.  Deploying a pending refresh also promotes its merged
        matrix to the live exclusion (the backend serves the new axes
        now).  Returns the snapshot that was rolled out.
        """
        snap = self._target(version)
        self.backend.swap_snapshot(snap.x, snap.theta, lam=snap.lam, weighted=snap.weighted, version=snap.label, folded_items=snap.folded_items)
        self._adopt_if_pending(snap.version)
        self._lifecycle("rollout", version=snap.version)
        return snap

    def plan_rollout(
        self,
        version: int | None = None,
        *,
        start_s: float,
        step_s: float,
        swap_s: float | None = None,
    ) -> list[LifecycleEvent]:
        """The rolling swap to ``version`` as simulator events (one unit per step).

        The cluster's :meth:`~repro.serving.cluster.ServingCluster.plan_swap`
        (schedule rules included) on the loaded snapshot: its first swap
        re-checks the axes when it fires, so a fold-in or item growth made
        after planning makes that step raise
        :class:`~repro.serving.cluster.ShrinkingSnapshotError` instead of
        being dropped.
        When the target is a pending refresh, a final event promotes its
        merged matrix to the live exclusion once the last unit swapped.
        """
        snap = self._target(version)
        events = self.backend.plan_swap(
            snap.x,
            snap.theta,
            lam=snap.lam,
            weighted=snap.weighted,
            version=snap.label,
            folded_items=snap.folded_items,
            start_s=start_s,
            step_s=step_s,
            swap_s=swap_s,
        )
        if self._pending is not None and self._pending[0] == snap.version:
            events.append(LifecycleEvent(time=events[-1].time, action=partial(self._adopt_if_pending, snap.version), label=f"adopt ratings for {snap.label}"))
        return events

    def rollback(self, version: int) -> Snapshot:
        """Rolling swap *back* to an older registry version, zero downtime.

        The old version's factors are re-published as the new head
        (:meth:`SnapshotRegistry.rollback` — version numbers stay
        monotonic) and rolled out one drained unit at a time, exactly
        like a forward rollout.  A target that serves fewer users or
        items than the live model is refused, as any rollout is — and it
        is refused *before* anything is published, so a rejected
        rollback leaves the registry head untouched.
        """
        self._target(version)
        self._lifecycle("rollback", target=version)
        return self.rollout(self.registry.rollback(version))

    def plan_rollback(
        self,
        version: int,
        *,
        start_s: float,
        step_s: float,
        swap_s: float | None = None,
    ) -> list[LifecycleEvent]:
        """A :meth:`rollback` as mid-trace simulator events.

        The whole plan is dry-run against the old version first —
        target axes, unit count and schedule — so a plan that would be
        refused never publishes a new registry head (planning has no
        side effects; only the returned events mutate anything).
        """
        snap = self._target(version)
        self.backend.plan_swap(snap.x, snap.theta, folded_items=snap.folded_items, start_s=start_s, step_s=step_s, swap_s=swap_s)
        return self.plan_rollout(self.registry.rollback(version), start_s=start_s, step_s=step_s, swap_s=swap_s)

    def drain(self, unit: int) -> None:
        """Take one serving unit out of rotation."""
        self.backend.drain(unit)

    def restore(self, unit: int) -> None:
        """Return a drained serving unit to rotation."""
        self.backend.restore(unit)

    def simulate(
        self,
        trace: QueryTrace,
        events: list[LifecycleEvent] | tuple = (),
        *,
        k: int = 10,
        max_batch: int = 256,
        window_s: float = 0.02,
        exclude: Any = SERVICE_DEFAULT,
        max_pending: int | None = None,
    ) -> TrafficReport:
        """Replay a query trace through the backend.

        ``exclude`` defaults to the service's ratings matrix; pass
        ``None`` to replay without exclusion — necessary when the trace
        carries a rollout whose *target* grew the item axis, since the
        merged matrix only matches the new model's item count.

        The service's tenant policies (if any) ride along: a
        tenant-labelled trace then fills windows through the weighted-
        fair discipline with cap enforcement and overload shedding,
        bounded by ``max_pending`` queued requests (see
        :class:`~repro.serving.simulator.RequestSimulator`).
        """
        mask = self.ratings if exclude is SERVICE_DEFAULT else exclude
        sim = RequestSimulator(
            self.backend,
            k=k,
            exclude=mask,
            max_batch=max_batch,
            window_s=window_s,
            policies=self.policies,
            max_pending=max_pending,
        )
        return sim.run(trace, events=events)

    # ------------------------------------------------------------------ #
    def _require_registry(self) -> SnapshotRegistry:
        if self.registry is None:
            raise RuntimeError("no snapshot registry attached; serve with ServingConfig(registry_dir=...)")
        return self.registry
