"""Query-traffic simulation against a :class:`~repro.serving.cluster.ServingCluster`.

The serving tier is driven the way an online recommender actually sees
load: requests arrive as a Poisson process (optionally with bursts), are
coalesced into batched windows — a window dispatches when it is full or
when its collection deadline passes, whichever comes first, the same
policy a batched-window cache/ANN scheduler uses — and each batch is
routed to one replica and served by one
:meth:`~repro.serving.store.FactorStore.recommend_batch` call.  Time is
the simulated-seconds timeline: arrivals come from the trace, service
times from the replicas' per-device kernel estimates, so the report shows the
throughput/latency trade-off of the batching window on the simulated
hardware.

Traces may additionally be *tenant-labelled* (``QueryTrace.tenants``,
built with :meth:`QueryTrace.multi_tenant` / :meth:`QueryTrace.merge`).
There is one replay loop; what varies is the queue discipline that
fills each window.  Given a
:class:`~repro.serving.tenancy.TenantPolicyTable` and a labelled trace,
windows fill through an admission stage in front of the router:
per-tenant token buckets enforce rate caps, a start-time
weighted-fair-queueing clock orders dispatch so backlogged tenants share
capacity by weight, and overload is *shed* (deadline blown, cap
exceeded, queue overflow) or *degraded* (reduced-``k``) per policy
instead of queueing unboundedly.  Outcomes land in
:class:`TrafficReport.per_tenant` as one
:class:`~repro.serving.tenancy.TenantReport` per tenant.  Any other
input fills windows in arrival order with one ``recommend_batch`` call
each — tenancy is zero-cost when unconfigured.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable, Mapping, Sequence

import numpy as np

import repro.obs as obs
from repro.datasets.synthetic import powerlaw_weights
from repro.obs.stats import event_window_p95, percentile_summary, utilization
from repro.serving.cache.tiered import CacheStats
from repro.serving.cluster import LifecycleEvent, ServingCluster
from repro.serving.routing import select_replica
from repro.serving.store import FactorStore, _distinct
from repro.serving.tenancy import (
    DEFAULT_TENANT,
    STATUS_DEGRADED,
    STATUS_DROPPED,
    STATUS_OK,
    STATUS_SHED_DEADLINE,
    STATUS_SHED_QUEUE,
    TenantPolicy,
    TenantPolicyTable,
    TenantScheduler,
    build_tenant_reports,
)
from repro.sparse.csr import CSRMatrix

__all__ = ["QueryTrace", "RequestSimulator", "TrafficReport", "serve_window"]


@dataclass(frozen=True)
class QueryTrace:
    """A pre-generated stream of queries: arrival times plus user ids.

    ``tenants`` optionally labels every query with the tenant that sent
    it; unlabelled traces behave exactly as before.  Single-tenant
    streams come from :meth:`poisson`/:meth:`bursty` with ``tenant=...``,
    mixed workloads from :meth:`multi_tenant` or by :meth:`merge`-ing
    per-tenant streams (e.g. a bursty aggressor over a steady baseline).
    """

    arrivals: np.ndarray
    users: np.ndarray
    label: str = "trace"
    tenants: np.ndarray | None = None

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrivals, dtype=np.float64)
        users = np.asarray(self.users, dtype=np.int64)
        if arrivals.ndim != 1 or arrivals.shape != users.shape:
            raise ValueError("arrivals and users must be aligned 1-D arrays")
        if arrivals.size and np.any(np.diff(arrivals) < 0):
            raise ValueError("arrivals must be non-decreasing")
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "users", users)
        if self.tenants is not None:
            tenants = np.asarray(self.tenants)
            if tenants.dtype.kind != "U":
                tenants = tenants.astype(np.str_)
            if tenants.shape != arrivals.shape:
                raise ValueError("tenants must align with arrivals")
            object.__setattr__(self, "tenants", tenants)

    @property
    def n_requests(self) -> int:
        """Number of queries in the trace."""
        return int(self.arrivals.size)

    @property
    def duration(self) -> float:
        """Time of the last arrival."""
        return float(self.arrivals[-1]) if self.arrivals.size else 0.0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _sample_users(n_requests: int, n_users: int, rng: np.random.Generator, user_exponent: float) -> np.ndarray:
        weights = powerlaw_weights(n_users, user_exponent, rng)
        return rng.choice(n_users, size=n_requests, p=weights).astype(np.int64)

    @classmethod
    def poisson(
        cls,
        n_requests: int,
        rate_qps: float,
        n_users: int,
        seed: int = 0,
        user_exponent: float = 0.8,
        tenant: str | None = None,
    ) -> "QueryTrace":
        """Poisson arrivals at ``rate_qps`` with power-law user popularity."""
        if n_requests <= 0 or rate_qps <= 0 or n_users <= 0:
            raise ValueError("n_requests, rate_qps and n_users must be positive")
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / rate_qps, size=n_requests))
        users = cls._sample_users(n_requests, n_users, rng, user_exponent)
        tenants = None if tenant is None else np.full(n_requests, tenant)
        return cls(arrivals, users, label=f"poisson@{rate_qps:g}qps", tenants=tenants)

    @classmethod
    def bursty(
        cls,
        n_requests: int,
        base_qps: float,
        burst_qps: float,
        n_users: int,
        burst_every_s: float = 1.0,
        burst_len_s: float = 0.2,
        seed: int = 0,
        user_exponent: float = 0.8,
        tenant: str | None = None,
    ) -> "QueryTrace":
        """On/off traffic: ``base_qps`` with periodic bursts of ``burst_qps``."""
        if min(n_requests, base_qps, burst_qps, n_users) <= 0:
            raise ValueError("n_requests, rates and n_users must be positive")
        if burst_len_s <= 0 or burst_every_s <= burst_len_s:
            raise ValueError("need 0 < burst_len_s < burst_every_s")
        rng = np.random.default_rng(seed)
        arrivals = np.empty(n_requests, dtype=np.float64)
        quiet_len = burst_every_s - burst_len_s
        # Piecewise-constant-rate Poisson process: draw each gap at the rate
        # of the regime the clock is in; a gap that would cross the regime
        # boundary is discarded and re-drawn from the boundary at the new
        # rate (valid by memorylessness).  Deciding the rate once from the
        # *previous* arrival time would sample every boundary-crossing gap
        # at the wrong rate — quiet-rate draws could leap over entire
        # bursts.  The clock is a (period, in-period offset) pair rather
        # than one float so regime boundaries stay exact.
        period = 0
        offset = 0.0
        for i in range(n_requests):
            while True:
                in_burst = offset >= quiet_len
                rate = burst_qps if in_burst else base_qps
                limit = burst_every_s if in_burst else quiet_len
                gap = rng.exponential(1.0 / rate)
                if offset + gap < limit:
                    offset += gap
                    break
                if in_burst:
                    period += 1
                    offset = 0.0
                else:
                    offset = quiet_len
            arrivals[i] = period * burst_every_s + offset
        users = cls._sample_users(n_requests, n_users, rng, user_exponent)
        tenants = None if tenant is None else np.full(n_requests, tenant)
        return cls(arrivals, users, label=f"bursty@{base_qps:g}/{burst_qps:g}qps", tenants=tenants)

    @classmethod
    def merge(cls, *traces: "QueryTrace", label: str = "merged") -> "QueryTrace":
        """Interleave traces by arrival time into one tenant-labelled stream.

        Queries from unlabelled input traces get the ``"default"``
        tenant; the stable sort keeps same-instant arrivals in input
        order, so merged replays are deterministic.
        """
        if not traces:
            raise ValueError("merge needs at least one trace")
        arrivals = np.concatenate([t.arrivals for t in traces])
        users = np.concatenate([t.users for t in traces])
        tenants = np.concatenate([t.tenants if t.tenants is not None else np.full(t.n_requests, DEFAULT_TENANT) for t in traces])
        order = np.argsort(arrivals, kind="stable")
        return cls(arrivals[order], users[order], label=label, tenants=tenants[order])

    @classmethod
    def multi_tenant(
        cls,
        rates_qps: Mapping[str, float],
        duration_s: float,
        n_users: int,
        seed: int = 0,
        user_exponent: float = 0.8,
    ) -> "QueryTrace":
        """Independent per-tenant Poisson streams over ``duration_s``, merged.

        ``rates_qps`` maps tenant name to offered load; each tenant gets
        its own RNG stream (derived from ``seed``), so adding a tenant
        does not perturb the others' arrivals.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not rates_qps:
            raise ValueError("rates_qps must name at least one tenant")
        streams = []
        for offset, (tenant, rate) in enumerate(sorted(rates_qps.items())):
            if rate <= 0:
                raise ValueError(f"rate for tenant {tenant!r} must be positive")
            rng = np.random.default_rng(seed + offset)
            # Draw past the horizon, then truncate: 1.5x the expected
            # count (plus slack) makes undershoot vanishingly unlikely.
            n_draw = int(rate * duration_s * 1.5) + 16
            arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_draw))
            arrivals = arrivals[arrivals <= duration_s]
            users = cls._sample_users(arrivals.size, n_users, rng, user_exponent)
            streams.append(cls(arrivals, users, label=tenant, tenants=np.full(arrivals.size, tenant)))
        rates = "/".join(f"{rates_qps[name]:g}" for name in sorted(rates_qps))
        return cls.merge(*streams, label=f"multi-tenant@{rates}qps")


@dataclass(frozen=True)
class TrafficReport:
    """Outcome of replaying one trace through a :class:`~repro.serving.cluster.ServingCluster`.

    The per-replica fields merge the replicas' timelines: one query
    count, busy time and utilization (busy / makespan) per replica, plus
    the routing policy used (a lone store is one replica).

    When the replay carried :class:`LifecycleEvent` s (e.g. a rolling
    snapshot swap), ``per_version_queries`` counts the queries each model
    version answered, ``n_dropped`` counts queries that arrived while no
    replica was in rotation (zero for a well-planned rollout), and
    ``window_p95_s`` is the latency p95 of the queries that arrived
    inside the event window — the rollout-degradation figure to compare
    against the steady-state p95.

    Tenant-labelled replays additionally fill ``per_tenant`` (one
    :class:`~repro.serving.tenancy.TenantReport` per tenant) and the
    ``n_shed`` / ``n_degraded`` totals; aggregate percentiles and
    throughput then cover *served* queries only, since a shed request
    never consumed serving capacity.

    When the serving units are tiered cache fronts
    (:class:`~repro.serving.cache.tiered.TieredFactorStore`), ``cache``
    holds the cache counters *accrued during this replay* summed over
    the units (hits/misses/promotions/..., with ``hit_rate`` recomputed
    from the deltas); it stays empty for plain stores.
    """

    label: str
    n_requests: int
    n_batches: int
    mean_batch_size: float
    makespan_s: float
    throughput_qps: float
    service_seconds: float
    latency_p50_s: float
    latency_p95_s: float
    latency_max_s: float
    wall_seconds: float
    n_replicas: int = 1
    router: str = ""
    per_replica_queries: tuple = ()
    per_replica_busy_s: tuple = ()
    per_replica_utilization: tuple = ()
    per_version_queries: dict = field(default_factory=dict)
    n_dropped: int = 0
    n_events: int = 0
    window_queries: int = 0
    window_p95_s: float = 0.0
    per_tenant: dict = field(default_factory=dict)
    n_shed: int = 0
    n_degraded: int = 0
    cache: dict = field(default_factory=dict)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        text = (
            f"trace {self.label}: {self.n_requests} queries in {self.n_batches} batches "
            f"(mean {self.mean_batch_size:.1f}/batch)\n"
            f"  simulated throughput {self.throughput_qps:,.0f} qps over {self.makespan_s:.4f} s "
            f"(service {self.service_seconds:.4f} s)\n"
            f"  simulated latency p50 {self.latency_p50_s * 1e3:.2f} ms, "
            f"p95 {self.latency_p95_s * 1e3:.2f} ms, max {self.latency_max_s * 1e3:.2f} ms\n"
            f"  host wall time {self.wall_seconds:.3f} s"
        )
        if self.n_replicas > 1:
            per_replica = ", ".join(
                f"r{idx}: {queries}q/{util:.0%}"
                for idx, (queries, util) in enumerate(zip(self.per_replica_queries, self.per_replica_utilization))
            )
            text += f"\n  {self.n_replicas} replicas via {self.router}: {per_replica}"
        if self.n_events:
            versions = ", ".join(f"{name or 'unversioned'}: {count}q" for name, count in sorted(self.per_version_queries.items()))
            text += (
                f"\n  {self.n_events} lifecycle events: {versions}; "
                f"dropped {self.n_dropped}; "
                f"window p95 {self.window_p95_s * 1e3:.2f} ms over {self.window_queries} queries"
            )
        for name in sorted(self.per_tenant):
            tenant = self.per_tenant[name]
            line = f"\n  tenant {name}: {tenant.n_served}/{tenant.n_requests} served (share {tenant.share:.0%}), p95 {tenant.latency_p95_s * 1e3:.2f} ms"
            if tenant.n_shed:
                line += f", shed {tenant.n_shed} (cap {tenant.n_shed_cap}, deadline {tenant.n_shed_deadline}, queue {tenant.n_shed_queue})"
            if tenant.n_degraded:
                line += f", degraded {tenant.n_degraded}"
            if tenant.deadline_ms is not None:
                line += f", SLO {tenant.deadline_ms:g} ms: {tenant.n_slo_violations} violations"
            text += line
        if self.cache:
            text += (
                f"\n  cache: hit rate {self.cache.get('hit_rate', 0.0):.0%} "
                f"({self.cache.get('hits', 0)} hits / {self.cache.get('misses', 0)} misses), "
                f"{self.cache.get('promotions', 0)} promotions in {self.cache.get('waves', 0)} waves, "
                f"{self.cache.get('stale_hits', 0)} stale"
            )
        return text


def _cache_snapshot(replicas: Sequence) -> list:
    """Per-unit cache counters before a replay (``None`` for plain stores); zeroes each tiered unit's miss meter."""
    before = []
    for rep in replicas:
        stats = getattr(rep, "cache_stats", None)
        if stats is not None:
            rep._missed = 0.0
        before.append(None if stats is None else stats.as_dict())
    return before


def _cache_delta(replicas: Sequence, before: list) -> dict:
    """Cache counters accrued since ``before``, summed over the units.

    Replays read *deltas* of the counters, not the raw counters: on a
    long-lived store the cache may already have history from earlier
    traffic.  ``miss_seconds`` is what the replay's own fills and plan
    waves spent (the unit's miss meter), never a difference of the
    lifetime total, whose rounding grows with it.
    """
    deltas = []
    for rep, base in zip(replicas, before):
        if base is not None:
            delta = {key: value - base[key] for key, value in rep.cache_stats.as_dict().items()}
            deltas.append({**delta, "miss_seconds": rep._missed})
    return CacheStats.summed(deltas)


def _publish_report(report: TrafficReport, served: np.ndarray, tenants: np.ndarray | None) -> None:
    """Stream a finished replay's aggregates into the active registry.

    Served latencies land in the same per-tenant ``serve.latency_s``
    histograms the facade data plane feeds, so one Prometheus export
    covers interactive calls and replays alike; headline aggregates
    become gauges a dashboard (or a future autoscaler) reads directly.
    """
    registry = obs.get_registry()
    if tenants is None:
        registry.histogram("serve.latency_s", tenant="default").observe_many(served)
    else:
        for tenant in np.unique(tenants):
            registry.histogram("serve.latency_s", tenant=str(tenant)).observe_many(served[tenants == tenant])
    registry.counter("serve.replayed").inc(report.n_requests)
    if report.n_shed:
        registry.counter("serve.shed").inc(report.n_shed)
    if report.n_dropped:
        registry.counter("serve.dropped").inc(report.n_dropped)
    registry.gauge("serve.latency_p95_s").set(report.latency_p95_s)
    if report.makespan_s > 0:
        registry.gauge("serve.throughput_qps").set(report.throughput_qps)
    for r, util in enumerate(report.per_replica_utilization):
        registry.gauge("serve.utilization", replica=f"replica:{r}").set(util)


def serve_window(
    cluster: ServingCluster,
    active: Sequence[int],
    free: list[float],
    dispatch: float,
    calls: Sequence[Callable],
) -> tuple[int, list[tuple[Any, float, float]]]:
    """The serving tier's one dispatch step: route a window, serve it, charge the replica.

    ``free[r]`` is when replica ``r`` frees up on the caller's clock (the
    replay's timelines, or each replica's ``stats.simulated_seconds`` for
    the facade's one-request windows).  The router sees the outstanding
    work ``max(0, free[r] - dispatch)`` of each replica in ``active``, so
    a load-blind pick may wait behind a busy replica's backlog.  Each of
    ``calls`` is what the window serves: it takes the chosen replica and
    makes one data-plane call on it (a ``recommend_batch`` or a
    ``predict``, e.g. an :func:`operator.methodcaller`).  They run back to
    back from ``max(dispatch, free[choice])``, each lasting the seconds
    its charges return (the replica's meter, reset before the call, see
    :meth:`~repro.serving.store.FactorStore._spend`; never a difference
    of the replica's running total, whose rounding grows with it), and
    ``free[choice]`` moves to the last finish.  Returns the chosen
    replica index and one ``(answer, service seconds, finish time)`` per
    call.
    """
    loads = [max(0.0, free[r] - dispatch) for r in active]
    choice = active[select_replica(cluster.router, loads)]
    replica = cluster.replicas[choice]
    done = max(dispatch, free[choice])
    served = []
    for call in calls:
        replica._metered = 0.0
        answer = call(replica)
        service = replica._metered
        done += service
        served.append((answer, service, done))
    free[choice] = done
    return choice, served


def _fire(due: deque, until: float) -> bool:
    """Run every queued lifecycle event due by ``until``; True if any ran."""
    fired = False
    while due and due[0].time <= until:
        due.popleft().action()
        fired = True
    return fired


class _Fifo:
    """Arrival-order discipline: a window is the next contiguous slice of the trace.

    A discipline gives the replay loop ``head()`` (the arrival time the
    next window opens at, ``None`` when nothing is left), ``take(horizon)``
    (the window closing at ``horizon`` as ``(groups, size, latest
    arrival)``, each group ``(k, members, count)``, or ``None`` when it
    was shed whole) and ``put_back()`` (undo the last take).  Here a
    window is one group at the replay's ``k``, a view of the trace's
    user array — the cheapest window there is, so tenancy stays
    zero-cost when unconfigured.
    """

    def __init__(self, sim: "RequestSimulator", trace: QueryTrace):
        self.arrivals = trace.arrivals
        self.k = sim.k
        self.max_batch = sim.max_batch
        self.next = 0  # first request not yet taken
        self.taken = 0  # start of the last window taken

    def head(self) -> float | None:
        return float(self.arrivals[self.next]) if self.next < self.arrivals.size else None

    def take(self, horizon: float):
        i = self.next  # everything arrived by the horizon, capped at max_batch
        j = min(i + self.max_batch, int(np.searchsorted(self.arrivals, horizon, side="right")))
        self.taken, self.next = i, j
        return [(self.k, slice(i, j), j - i)], j - i, float(self.arrivals[j - 1])

    def put_back(self) -> None:
        self.next = self.taken


class _Flow:
    """One tenant's flow: its trace requests and its admitted, undispatched queue.

    ``idx``/``at`` are the tenant's trace indices and arrival times, of
    which the first ``pos`` went through admission.  The queue is three
    preallocated arrays (trace index, arrival, virtual tag), live in
    ``[head, tail)``, oldest first.  Tags never decrease along the flow,
    so dispatch in ``(tag, index)`` order takes a prefix of every flow,
    and eviction takes from its tail.
    """

    def __init__(self, name: str, policy: TenantPolicy, idx: np.ndarray, arrivals: np.ndarray):
        self.name = name
        self.policy = policy
        self.idx = idx
        self.at = arrivals[idx]
        self.pos = 0
        self.q_idx = np.empty(idx.size, dtype=np.int64)
        self.q_at = np.empty(idx.size)
        self.q_tag = np.empty(idx.size)
        self.head = self.tail = 0

    def push(self, idx: np.ndarray, at: np.ndarray, tags: np.ndarray) -> None:
        end = self.tail + idx.size
        self.q_idx[self.tail : end] = idx
        self.q_at[self.tail : end] = at
        self.q_tag[self.tail : end] = tags
        self.tail = end


class _Wfq:
    """Tenant-scheduled discipline: admission caps, WFQ fill, overload shedding.

    Each arrival inside a window passes its tenant's token bucket at its
    own arrival time: cap overflow sheds on the spot (or marks the
    request for degraded service when the policy has a ``degrade_k``),
    so a tenant hammering past its cap never occupies queue space.  A
    full per-tenant flow buffer (``queue_limit``) tail-drops before
    stamping — bounding the backlog is what keeps a flooding tenant's
    finish tags near the virtual clock, so the weighted interleave holds
    under sustained overload — and past ``max_pending`` the lowest-
    priority tenant's newest request is evicted.  Windows fill in
    virtual-tag order, so a backlogged heavy tenant cannot starve a
    light one; at fill time a request whose queueing delay exceeds its
    deadline is shed, and past ``degrade_after`` of the deadline it is
    served at the policy's reduced ``k``.

    The work is done per tenant, not per request: every tenant of the
    trace has a :class:`_Flow`; a window admits each flow's new arrivals
    with one :meth:`TenantScheduler.admit_many` and one
    :meth:`TenantScheduler.stamp_many` call, and fills by merging the
    flows' heads by ``(tag, trace index)``.
    """

    def __init__(self, sim: "RequestSimulator", trace: QueryTrace, status: np.ndarray):
        table = sim.policies
        self.scheduler = TenantScheduler(table)
        self.max_batch = sim.max_batch
        self.max_pending = sim.max_pending
        self.arrivals = trace.arrivals
        self.status = status  # shared with the loop; 0 = not resolved yet
        self.k_of = np.full(trace.n_requests, sim.k, dtype=np.int64)  # effective k; reduced when degraded
        names, of = np.unique(trace.tenants, return_inverse=True)
        members = np.split(np.argsort(of, kind="stable"), np.cumsum(np.bincount(of))[:-1])
        self.flows = [_Flow(str(name), table.policy_for(str(name)), idx, self.arrivals) for name, idx in zip(names, members)]
        self.evict_order = sorted(self.flows, key=lambda flow: (flow.policy.priority, flow.name))
        self.k_degraded = np.array([sim.k if flow.policy.degrade_k is None else min(sim.k, flow.policy.degrade_k) for flow in self.flows])
        self.k = sim.k
        self.one_k = bool((self.k_degraded == sim.k).all())  # no tenant can be served at a reduced k
        self.taken = np.zeros(len(self.flows), dtype=np.int64)  # per flow, entries of the last window

    def head(self) -> float | None:
        """Arrival of the oldest backlogged request, else of the next arrival."""
        oldest = [flow.q_at[flow.head] for flow in self.flows if flow.head < flow.tail]
        if not oldest:
            oldest = [flow.at[flow.pos] for flow in self.flows if flow.pos < flow.at.size]
        return float(min(oldest)) if oldest else None

    def take(self, horizon: float):
        """Admit arrivals up to ``horizon``, then fill a window in tag order."""
        self._admit(horizon)
        self._shed_overflow()
        return self._fill(horizon)

    def put_back(self) -> None:
        for flow, count in zip(self.flows, self.taken.tolist()):
            flow.head -= count

    def _admit(self, horizon: float) -> None:
        scheduler, status = self.scheduler, self.status
        for f, flow in enumerate(self.flows):
            end = int(flow.at.searchsorted(horizon, side="right"))
            if end <= flow.pos:  # a window may close before an earlier one did
                continue
            new, at = flow.idx[flow.pos : end], flow.at[flow.pos : end]
            flow.pos = end
            verdicts = scheduler.admit_many(flow.name, at, flow.tail - flow.head)
            if verdicts.max() != STATUS_OK:  # some arrival is shed or degraded (STATUS_OK is the lowest code)
                degraded = verdicts == STATUS_DEGRADED
                queued = degraded | (verdicts == STATUS_OK)
                status[new[~queued]] = verdicts[~queued]
                new, at = new[queued], at[queued]
                self.k_of[new[degraded[queued]]] = self.k_degraded[f]
            flow.push(new, at, scheduler.stamp_many(flow.name, new.size))

    def _shed_overflow(self) -> None:
        """Past ``max_pending``, evict the lowest-priority tenant's newest requests."""
        if self.max_pending is None:
            return
        excess = sum(flow.tail - flow.head for flow in self.flows) - self.max_pending
        for flow in self.evict_order:
            if excess <= 0:
                break
            evicted = min(excess, flow.tail - flow.head)
            self.status[flow.q_idx[flow.tail - evicted : flow.tail]] = STATUS_SHED_QUEUE
            flow.tail -= evicted
            excess -= evicted

    def _fill(self, horizon: float):
        """Pop up to ``max_batch`` servable requests in ``(tag, index)`` order.

        A flow contributes its deadline-late prefix plus up to
        ``max_batch`` further entries; merged, the window ends at the
        ``max_batch``-th entry that is not shed.  Every popped entry,
        shed ones included, advances the virtual clock.
        """
        scheduler, max_batch, flows = self.scheduler, self.max_batch, self.flows
        live, sizes, tags, idx, codes, late = [], [], [], [], [], 0
        for f, flow in enumerate(flows):
            h, t = flow.head, flow.tail
            if h == t:
                continue
            # Only a deadline makes entries late, and late ones are the flow's oldest.
            deadline = flow.policy.deadline_s
            end = t if deadline is not None else min(t, h + max_batch)
            action = scheduler.overload_many(flow.policy, horizon - flow.q_at[h:end])
            n_late = 0 if deadline is None else int(np.count_nonzero(action == STATUS_SHED_DEADLINE))
            size = min(end - h, n_late + max_batch)
            live.append(f)
            sizes.append(size)
            tags.append(flow.q_tag[h : h + size])
            idx.append(flow.q_idx[h : h + size])
            codes.append(action[:size])
            late += n_late
        if not live:
            return None
        tags, idx, codes = np.concatenate(tags), np.concatenate(idx), np.concatenate(codes)
        owner = np.repeat(live, sizes)
        order = np.lexsort((idx, tags)) if len(live) > 1 else np.arange(tags.size)
        if late:
            servable = np.flatnonzero(codes[order] != STATUS_SHED_DEADLINE)
            cut = int(servable[max_batch - 1]) + 1 if servable.size >= max_batch else order.size
        else:
            cut = min(max_batch, order.size)
        popped = order[:cut]
        scheduler.advance(float(tags[popped[-1]]))
        self.taken = np.bincount(owner[popped], minlength=len(flows))
        for f, count in zip(live, self.taken[live].tolist()):
            flows[f].head += count
        flagged = codes[popped]
        if flagged.max() != STATUS_OK:  # some popped entry is shed or degraded (STATUS_OK is the lowest code)
            slow = popped[flagged == STATUS_DEGRADED]
            self.k_of[idx[slow]] = self.k_degraded[owner[slow]]
            shed = flagged == STATUS_SHED_DEADLINE
            self.status[idx[popped[shed]]] = STATUS_SHED_DEADLINE
            popped = popped[~shed]
            self.taken = np.bincount(owner[popped], minlength=len(flows))
            if not popped.size:
                return None
        members = idx[popped]
        latest = float(self.arrivals[members.max()])
        if self.one_k:
            return [(self.k, members, members.size)], members.size, latest
        k_of = self.k_of[members]
        window = []
        for group_k in _distinct(k_of)[0][::-1].tolist():  # one recommend_batch per effective k, largest first
            group = members[k_of == group_k]
            window.append((group_k, group, group.size))
        return window, members.size, latest


class RequestSimulator:
    """Replays a :class:`QueryTrace` through a cluster in batched windows.

    Parameters
    ----------
    store:
        A :class:`~repro.serving.cluster.ServingCluster`, or a
        :class:`~repro.serving.store.FactorStore` served as a one-replica
        cluster (:meth:`ServingCluster.of`).  The simulator keeps one
        server-free timeline per replica, offers the cluster's router the
        outstanding work of the replicas in rotation, and reports
        per-replica query counts and utilization.
    k:
        Top-k size of every query (an integer >= 1).
    exclude:
        Optional seen-item matrix applied to every query.
    max_batch:
        A window dispatches as soon as it holds this many requests.
    window_s:
        A window also dispatches once this much (simulated) time passed
        since its first request arrived — the latency/throughput knob.
    policies:
        Optional tenant policy table (anything
        :meth:`~repro.serving.tenancy.TenantPolicyTable.coerce` accepts).
        Combined with a tenant-labelled trace it fills windows through
        the tenant discipline: token-bucket caps, WFQ dispatch order,
        deadline shedding and reduced-``k`` degradation.  Otherwise
        windows are plain arrival-order slices of the trace.
    max_pending:
        Bound on the admitted-but-undispatched queue under the tenant
        discipline.  On overflow the lowest-priority tenant's newest
        request is shed (typed ``shed`` outcome) — the backpressure that
        keeps an overloaded replay from queueing unboundedly.
    """

    def __init__(
        self,
        store: ServingCluster | FactorStore,
        k: int = 10,
        exclude: CSRMatrix | None = None,
        max_batch: int = 256,
        window_s: float = 0.02,
        policies: TenantPolicyTable | None = None,
        max_pending: int | None = None,
    ):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.store = ServingCluster.of(store)
        self.k = k
        self.exclude = exclude
        self.max_batch = max_batch
        self.window_s = window_s
        self.policies = TenantPolicyTable.coerce(policies)
        self.max_pending = max_pending

    def run(self, trace: QueryTrace, events: Sequence[LifecycleEvent] = ()) -> TrafficReport:
        """Serve every query in the trace; returns the traffic report.

        A window opens at the earliest unresolved request and closes at
        its deadline or when the first replica in rotation frees up,
        whichever is later (earlier once it holds ``max_batch``).  The
        queue discipline picks its requests — arrival order, or the
        tenant discipline when a policy table meets a tenant-labelled
        trace — and the chosen replica serves one ``recommend_batch``
        call per effective ``k``, back-to-back.

        ``events`` schedules lifecycle actions (drain / snapshot swap /
        restore, see :class:`LifecycleEvent`) on the replay timeline:
        each fires once, when the clock reaches the next window start at
        or past its time, and routing only considers replicas that are
        in rotation afterwards.  Should every replica be drained at once,
        the replay fast-forwards to the next event; with none left the
        remaining queries are *dropped* and counted in the report.
        Events scheduled past the last arrival fire when the trace ends.
        """
        backend = self.store
        replicas = backend.replicas
        backend.router.reset()
        n_replicas = len(replicas)
        cache_before = _cache_snapshot(replicas)
        arrivals, users = trace.arrivals, trace.users
        n = trace.n_requests
        status = np.full(n, STATUS_DROPPED, dtype=np.int8)
        latencies = np.zeros(n, dtype=np.float64)
        if self.policies is not None and trace.tenants is not None:
            queue = _Wfq(self, trace, status)
        else:
            queue = _Fifo(self, trace)
        timeline = sorted(events, key=lambda event: event.time)
        due = deque(timeline)
        server_free = [0.0] * n_replicas
        replica_busy = [0.0] * n_replicas
        replica_queries = [0] * n_replicas
        version_queries: dict[str, int] = {}
        service_total = 0.0
        n_batches = 0
        obs_on = obs.enabled()
        tracer = obs.get_tracer()
        wall_start = time.perf_counter()
        while (t0 := queue.head()) is not None:
            _fire(due, t0)
            active = backend.active_indices()
            # Nothing in rotation: fast-forward to the event that will
            # change that, or drop the rest of the trace.
            while not active and due:
                due.popleft().action()
                active = backend.active_indices()
            if not active:
                break  # unresolved requests stay STATUS_DROPPED
            free_min = min(server_free[r] for r in active)
            horizon = max(t0 + self.window_s, free_min)
            window = queue.take(horizon)
            if window is None:
                continue  # the whole window was shed; move to the next one
            groups, size, latest = window
            dispatch = max(latest, free_min) if size == self.max_batch else horizon
            # Events due before the dispatch moment take effect now, so a
            # replica drained while the window was collecting is not routed
            # to (requeue the window if the rotation emptied).
            if _fire(due, dispatch):
                active = backend.active_indices()
                if not active:
                    queue.put_back()
                    continue
            calls = [methodcaller("recommend_batch", users[members], k=k, exclude=self.exclude) for k, members, _ in groups]
            choice, served = serve_window(backend, active, server_free, dispatch, calls)
            version = replicas[choice].version
            for (k_eff, members, count), (_, service, done) in zip(groups, served):
                latencies[members] = done - arrivals[members]
                status[members] = STATUS_OK if k_eff == self.k else STATUS_DEGRADED
                replica_busy[choice] += service
                replica_queries[choice] += count
                version_queries[version] = version_queries.get(version, 0) + count
                service_total += service
                n_batches += 1
                if obs_on:
                    tracer.add_span(
                        f"batch[{count}]",
                        start=done - service,
                        end=done,
                        category="request",
                        process="serve",
                        track=f"replica:{choice}",
                        n=count,
                        k=k_eff,
                        version=version,
                    )
        # Late events (scheduled past the last arrival) still apply, so a
        # rollout that outlives the trace completes instead of wedging the
        # cluster half-drained.
        _fire(due, float("inf"))
        wall = time.perf_counter() - wall_start
        served_mask = (status == STATUS_OK) | (status == STATUS_DEGRADED)
        n_served = int(served_mask.sum())
        n_dropped = int((status == STATUS_DROPPED).sum())
        served = latencies[served_mask]
        makespan = max(server_free) - float(arrivals[0]) if n_served else 0.0
        window_queries, window_p95 = 0, 0.0
        if timeline and n_served:
            lo, hi = timeline[0].time, timeline[-1].time
            window_queries, window_p95 = event_window_p95(arrivals, latencies, lo, hi, served_mask)
        per_tenant: dict = {}
        if trace.tenants is not None:
            per_tenant = build_tenant_reports(trace.tenants, status, latencies, makespan, self.policies)
        p50, p95, lat_max = percentile_summary(served)
        report = TrafficReport(
            label=trace.label,
            n_requests=n,
            n_batches=n_batches,
            mean_batch_size=n_served / n_batches if n_batches else 0.0,
            makespan_s=makespan,
            throughput_qps=n_served / makespan if makespan > 0 else 0.0,
            service_seconds=service_total,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_max_s=lat_max,
            wall_seconds=wall,
            n_replicas=n_replicas,
            router=backend.router.name,
            per_replica_queries=tuple(replica_queries),
            per_replica_busy_s=tuple(replica_busy),
            per_replica_utilization=utilization(replica_busy, makespan),
            per_version_queries=version_queries,
            n_dropped=n_dropped,
            n_events=len(timeline),
            window_queries=window_queries,
            window_p95_s=window_p95,
            per_tenant=per_tenant,
            n_shed=n - n_served - n_dropped,
            n_degraded=int((status == STATUS_DEGRADED).sum()),
            cache=_cache_delta(replicas, cache_before),
        )
        if obs_on:
            tenants = trace.tenants[served_mask] if trace.tenants is not None else None
            _publish_report(report, served, tenants)
        return report
