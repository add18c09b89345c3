"""Online serving: turn trained factors into a query-servable model.

Training (the paper's contribution) ends with two factor matrices; a
production recommender then has to answer top-k queries under heavy
traffic and absorb users who arrived after the last training run.  This
package is that missing online half:

* :class:`~repro.serving.store.FactorStore` — snapshots a
  :class:`~repro.core.config.FitResult` from any backend, shards Θ
  row-wise across the simulated devices of a
  :class:`~repro.gpu.machine.MultiGPUMachine`, and serves batched top-k
  queries with per-device simulated-time accounting, returning a
  :class:`~repro.serving.store.TopK` whose rows are boxed on read;
* :mod:`~repro.serving.foldin` — the cold-start solver: a new user's
  factor is solved against the frozen Θ with the same Hermitian/solve
  kernels the trainer uses, so a fold-in is numerically one Base-ALS
  user update;
* :class:`~repro.serving.cluster.ServingCluster` — the one serving
  backend: R replicas of one snapshot on independent simulated machines
  behind a pluggable routing policy (round-robin / least-loaded /
  power-of-two-choices), with write-through fold-in so every replica
  serves a cold-start user under the same id.  A lone store is served
  as a one-replica cluster (:meth:`ServingCluster.of`);
* :class:`~repro.serving.simulator.RequestSimulator` — Poisson/bursty
  query traffic driven through a cluster in batched windows, with one
  timeline per replica, reporting throughput, latency percentiles and
  per-replica utilization;
* :mod:`~repro.serving.lifecycle` — the train → serve → retrain loop:
  an :class:`InteractionLog` of serving-time ratings (with windowed
  retention via :meth:`InteractionLog.compact`), an incremental refresh
  (affected user rows + new-item fold-in) solved with the training
  kernels, a versioned :class:`SnapshotRegistry` (with monotonic
  :meth:`~SnapshotRegistry.rollback`).  The v1 → v2 swap itself is the
  cluster's rolling swap, one drained replica at a time while traffic
  keeps flowing (:meth:`ServingCluster.swap_snapshot`, or
  :meth:`ServingCluster.plan_swap` mid-trace); the facade's
  :meth:`~RecommenderService.rollout` runs it to a registry version.
* :mod:`~repro.serving.service` — the unified front door: typed
  data-plane envelopes (:class:`PredictRequest` /
  :class:`RecommendRequest` / :class:`RateRequest` →
  :class:`ServeResponse`), the declarative :class:`ServingConfig`, and
  the :class:`RecommenderService` facade splitting the data plane
  (predict / recommend / rate) from the admin plane (fold-in, refresh,
  snapshot, rollout, rollback, drain/restore) — built in one call with
  :meth:`CuMF.serve`.
* :mod:`~repro.serving.routing` — routing policies as a registry: the
  runtime-checkable :class:`Router` protocol, the built-in policies
  (round-robin / least-loaded / power-of-two-choices), and
  :func:`register_router` / :func:`make_router` — the same
  :class:`~repro.core.validation.Registry` as the solver registry — so
  custom policies work everywhere a name is accepted.
* :mod:`~repro.serving.tenancy` — multi-tenant SLO serving: per-tenant
  :class:`TenantPolicy` (weight, priority, rate cap, ``deadline_ms``,
  reduced-``k`` degrade), a token-bucket + weighted-fair-queueing
  :class:`TenantScheduler` in front of the router, overload shedding
  with typed ``shed``/``degraded`` envelopes, and per-tenant
  :class:`TenantReport` s on :class:`TrafficReport.per_tenant`.
* :mod:`~repro.serving.cache` — the heat-aware multi-tier factor cache:
  a decaying :class:`HeatSketch` scores items from the query stream, a
  :class:`PageTable` maps item-factor pages to simulated GPU-hot /
  host-warm / disk-cold tiers with version stamps, a pure
  :class:`CachePlanner` emits coalesced promotion/demotion waves under
  byte capacities, and :class:`TieredFactorStore` fronts the store with
  accounted spill misses and lifecycle-composed invalidation — enabled
  via ``ServingConfig(cache=CacheConfig(...))``.
"""

from repro.serving.cache import (
    CacheConfig,
    CachePlan,
    CachePlanner,
    CacheStats,
    HeatSketch,
    PageTable,
    TieredFactorStore,
    Wave,
)
from repro.serving.cluster import LifecycleEvent, ServingCluster, ShrinkingSnapshotError
from repro.serving.foldin import fold_in_user, fold_in_users, validate_ratings
from repro.serving.lifecycle import (
    InteractionLog,
    RefreshResult,
    Snapshot,
    SnapshotRegistry,
    merged_ratings,
    refresh_factors,
)
from repro.serving.routing import (
    LeastLoadedRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    Router,
    RouterSpec,
    get_router_spec,
    make_router,
    register_router,
    router_names,
)
from repro.serving.service import (
    SERVICE_DEFAULT,
    STATUSES,
    PredictRequest,
    RateRequest,
    RecommendRequest,
    RecommenderService,
    ServeResponse,
    ServingConfig,
    ShedError,
)
from repro.serving.simulator import QueryTrace, RequestSimulator, TrafficReport
from repro.serving.store import FactorStore, ServingStats, TopK
from repro.serving.tenancy import (
    TenantPolicy,
    TenantPolicyTable,
    TenantReport,
    TenantScheduler,
    build_tenant_reports,
)

__all__ = [
    "SERVICE_DEFAULT",
    "STATUSES",
    "PredictRequest",
    "RateRequest",
    "RecommendRequest",
    "RecommenderService",
    "ServeResponse",
    "ServingConfig",
    "ShedError",
    "CacheConfig",
    "CachePlan",
    "CachePlanner",
    "CacheStats",
    "HeatSketch",
    "PageTable",
    "TieredFactorStore",
    "Wave",
    "FactorStore",
    "ServingStats",
    "TopK",
    "ServingCluster",
    "ShrinkingSnapshotError",
    "Router",
    "RouterSpec",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "make_router",
    "register_router",
    "get_router_spec",
    "router_names",
    "TenantPolicy",
    "TenantPolicyTable",
    "TenantScheduler",
    "TenantReport",
    "build_tenant_reports",
    "fold_in_user",
    "fold_in_users",
    "validate_ratings",
    "QueryTrace",
    "RequestSimulator",
    "TrafficReport",
    "LifecycleEvent",
    "InteractionLog",
    "RefreshResult",
    "merged_ratings",
    "refresh_factors",
    "Snapshot",
    "SnapshotRegistry",
]
