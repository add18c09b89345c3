"""Multi-tenant SLO serving: policies, caps, weighted fair queueing, shedding.

One replica set serving many tenants needs three things a single-workload
deployment never did:

* **isolation** — a tenant must not be able to starve the others.  Each
  :class:`TenantPolicy` carries a token-bucket *rate cap*
  (``rate_cap_qps``/``burst``, modelled after BCache's per-tenant
  bandwidth-cap frames) enforced at admission, and a *weight* used by a
  start-time weighted-fair-queueing stage in front of the router, so a
  backlogged tenant's service share converges to
  ``weight / sum(weights of backlogged tenants)``;
* **SLO targets** — ``deadline_ms`` is the tenant's latency objective.
  Under overload a request whose queueing delay has already blown its
  deadline is *shed* (typed ``shed`` envelope / report entry) instead of
  queueing unboundedly, and a request under pressure but still inside
  its deadline can be *degraded* to a reduced-``k`` answer
  (``degrade_k``; the hook an approximate top-k path will plug into);
* **accounting** — :func:`build_tenant_reports` turns the simulator's
  per-request outcomes into one :class:`TenantReport` per tenant
  (latency percentiles, shed/degrade counts split by cause, SLO
  violations, throughput share), surfaced on
  :class:`~repro.serving.simulator.TrafficReport.per_tenant`.

:class:`TenantScheduler` is the state machine both entry points share,
and :meth:`TenantScheduler.admit_many` is their one admission rule (and
:meth:`TenantScheduler.stamp_many` their one tag rule): the
:class:`~repro.serving.simulator.RequestSimulator` decides each tenant's
arrivals of a window in one call, the
:class:`~repro.serving.service.facade.RecommenderService` data plane
admits each call as a one-arrival ``admit_many``.  Both report outcomes
as the ``STATUS_*`` codes below.
Tenancy is strictly opt-in: with no policy table configured, none of
this code runs and the serving stack behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.obs.stats import percentile_summary

__all__ = [
    "DEFAULT_TENANT",
    "TenantPolicy",
    "TenantPolicyTable",
    "TenantScheduler",
    "TenantReport",
    "build_tenant_reports",
]

#: Tenant label attached to requests that do not name one.
DEFAULT_TENANT = "default"

# Per-request outcome codes of a simulator replay and of a facade call.
# 0 doubles as "still pending": whatever is left unresolved when the
# replay ends (e.g. every replica drained away) was dropped.  STATUS_OK
# is the lowest code a verdict or an overload action can take, so a
# batch of them is all-OK exactly when its maximum is STATUS_OK.
# STATUS_ERROR is a facade call the backend rejected.
STATUS_DROPPED = 0
STATUS_OK = 1
STATUS_DEGRADED = 2
STATUS_SHED_CAP = 3
STATUS_SHED_DEADLINE = 4
STATUS_SHED_QUEUE = 5
STATUS_ERROR = 6


@dataclass(frozen=True)
class TenantPolicy:
    """Scheduling contract for one tenant.

    Parameters
    ----------
    tenant:
        Tenant id the policy applies to.
    weight:
        Fair-queueing weight: a backlogged tenant's share of serving
        capacity is proportional to its weight.
    priority:
        Shedding class — when the pending queue overflows, requests are
        shed from the *lowest*-priority tenants first.
    rate_cap_qps:
        Token-bucket admission cap; arrivals beyond it are shed (or
        degraded, when ``degrade_k`` is set) before they ever queue.
        ``None`` leaves the tenant uncapped.
    burst:
        Bucket depth in requests (how far above the cap a short burst
        may go).  Defaults to 5% of a second's worth of the cap, at
        least one request.  Only meaningful with a ``rate_cap_qps``.
    deadline_ms:
        Latency SLO target.  A queued request whose delay exceeds it is
        shed at dispatch instead of serving uselessly late; served
        requests slower than it count as SLO violations in the report.
    degrade_k:
        Reduced top-``k`` used when the scheduler degrades this tenant
        instead of shedding it (cap overflow, or queueing delay past
        ``degrade_after`` of the deadline).  ``None`` disables the
        degrade path.
    degrade_after:
        Fraction of ``deadline_ms`` after which a queued request is
        served degraded rather than at full ``k``.
    queue_limit:
        Per-tenant bound on queued (admitted-but-undispatched) requests
        — the WFQ flow buffer.  Arrivals past it are tail-dropped as
        queue sheds.  Like a real fair-queueing router, bounding the
        backlog is what makes weighted sharing hold under sustained
        overload: it keeps a backlogged tenant's virtual finish tags
        within a bounded band of the scheduler's virtual clock, so the
        weight-proportional interleave survives.  ``None`` (unbounded)
        preserves strict FIFO equivalence for single-tenant traces but
        lets a flooding tenant's tag frontier run away from the clock —
        set a limit on any tenant expected to exceed its fair share.
    """

    tenant: str
    weight: float = 1.0
    priority: int = 0
    rate_cap_qps: float | None = None
    burst: float | None = None
    deadline_ms: float | None = None
    degrade_k: int | None = None
    degrade_after: float = 0.5
    queue_limit: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.rate_cap_qps is not None and self.rate_cap_qps <= 0:
            raise ValueError("rate_cap_qps must be positive")
        if self.burst is not None:
            if self.rate_cap_qps is None:
                raise ValueError("burst needs a rate_cap_qps")
            if self.burst < 1:
                raise ValueError("burst must be at least one request")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.degrade_k is not None and self.degrade_k < 1:
            raise ValueError("degrade_k must be at least 1")
        if not 0 < self.degrade_after <= 1:
            raise ValueError("degrade_after must be in (0, 1]")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")

    @property
    def deadline_s(self) -> float | None:
        """The SLO target in seconds (``None`` when no deadline is set)."""
        return None if self.deadline_ms is None else self.deadline_ms / 1e3

    @property
    def bucket_burst(self) -> float:
        """Effective token-bucket depth in requests."""
        if self.burst is not None:
            return float(self.burst)
        if self.rate_cap_qps is None:
            return float("inf")
        return max(1.0, 0.05 * self.rate_cap_qps)


class TenantPolicyTable:
    """Per-tenant policy lookup with a default for unlisted tenants.

    Unknown tenants fall back to ``default`` (an uncapped, weight-1,
    priority-0 policy unless one is supplied), so a deployment can pin
    policies for the tenants it cares about and let the long tail share
    the default class.
    """

    def __init__(self, policies: Iterable[TenantPolicy] = (), default: TenantPolicy | None = None):
        table: dict[str, TenantPolicy] = {}
        for policy in policies:
            if not isinstance(policy, TenantPolicy):
                raise TypeError(f"expected TenantPolicy, got {type(policy).__name__}")
            if policy.tenant in table:
                raise ValueError(f"duplicate policy for tenant {policy.tenant!r}")
            table[policy.tenant] = policy
        self._policies = table
        self.default = default if default is not None else TenantPolicy(DEFAULT_TENANT)

    @classmethod
    def coerce(cls, value) -> "TenantPolicyTable | None":
        """Build a table from whatever a config field holds (``None`` stays ``None``).

        Accepts an existing table, a single :class:`TenantPolicy`, a
        ``{name: policy}`` mapping (keys must match each policy's
        tenant), or any iterable of policies.
        """
        if value is None:
            return None
        if isinstance(value, TenantPolicyTable):
            return value
        if isinstance(value, TenantPolicy):
            return cls([value])
        if isinstance(value, Mapping):
            for name, policy in value.items():
                if not isinstance(policy, TenantPolicy) or policy.tenant != name:
                    raise ValueError(f"mapping key {name!r} must map to its own TenantPolicy")
            return cls(value.values())
        return cls(list(value))

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The tenant's policy, or the default for unlisted tenants."""
        return self._policies.get(tenant, self.default)

    def tenants(self) -> tuple[str, ...]:
        """Tenants with an explicit policy."""
        return tuple(self._policies)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._policies

    def __iter__(self):
        return iter(self._policies.values())

    def __len__(self) -> int:
        return len(self._policies)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantPolicyTable({sorted(self._policies)})"


class TenantScheduler:
    """Admission state machine: token buckets plus WFQ virtual time.

    The scheduler is deliberately clock-agnostic — callers pass ``now``
    in whatever timeline they live on (trace arrival times under the
    simulator, the earliest free replica in rotation on the facade), and
    :meth:`reset` restores the initial state so one scheduler can replay
    traces deterministically.
    """

    def __init__(self, table: TenantPolicyTable):
        self.table = table
        self.reset()

    def reset(self) -> None:
        """Refill every bucket and rewind the fair-queueing clock."""
        self._buckets: dict[str, tuple[float, float]] = {}  # tenant -> (tokens, last refill)
        self._finish: dict[str, float] = {}  # tenant -> last virtual finish tag
        self._virtual = 0.0

    # ------------------------------------------------------------------ #
    # admission: token-bucket caps (the BCache t_caps idea, in requests/second)
    # ------------------------------------------------------------------ #
    def admit_many(self, tenant: str, now: np.ndarray, backlog: int = 0) -> np.ndarray:
        """Admission verdicts for the tenant's arrivals at non-decreasing times ``now``.

        The one admission rule of the replay and the facade, as one status
        code per arrival: ``STATUS_OK`` within the cap; past it
        ``STATUS_DEGRADED`` when the policy has a ``degrade_k`` and
        ``STATUS_SHED_CAP`` otherwise; ``STATUS_SHED_QUEUE`` once the
        tenant's flow buffer (``queue_limit``, already holding ``backlog``
        requests) is full.  Buckets start full (``burst`` tokens) and
        refill at ``rate_cap_qps``.  A shed arrival costs nothing, so a
        tenant hammering past its cap never occupies queue space, and an
        arrival shed for a full buffer takes no token.  Uncapped tenants
        are decided in bulk; a capped tenant's bucket is refilled and
        drawn arrival by arrival.
        """
        policy = self.table.policy_for(tenant)
        room = now.size if policy.queue_limit is None else min(now.size, max(0, policy.queue_limit - backlog))
        cap = policy.rate_cap_qps
        if cap is None and room == now.size:
            return np.full(now.size, STATUS_OK, dtype=np.int8)
        verdicts = np.full(now.size, STATUS_SHED_QUEUE, dtype=np.int8)
        if cap is None:
            verdicts[:room] = STATUS_OK
            return verdicts
        if room == 0:
            return verdicts
        over = STATUS_DEGRADED if policy.degrade_k is not None else STATUS_SHED_CAP
        burst = policy.bucket_burst
        times = now.tolist()
        tokens, last = self._buckets.get(tenant, (burst, times[0]))
        decided, queued = [], 0
        for t in times:
            if queued == room:
                break
            if t > last:
                tokens = min(burst, tokens + (t - last) * cap)
                last = t
            if tokens >= 1.0:
                tokens -= 1.0
                decided.append(STATUS_OK)
                queued += 1
            else:
                decided.append(over)
                queued += over == STATUS_DEGRADED
        self._buckets[tenant] = (tokens, last)
        verdicts[: len(decided)] = decided
        return verdicts

    # ------------------------------------------------------------------ #
    # weighted fair queueing (start-time fair queueing virtual clock)
    # ------------------------------------------------------------------ #
    def stamp_many(self, tenant: str, n: int) -> np.ndarray:
        """Virtual finish tags for the tenant's next ``n`` requests.

        Requests dispatch in increasing tag order; each request advances
        its tenant's tag by ``1 / weight``, so backlogged tenants are
        served in proportion to their weights while idle tenants rejoin
        at the current virtual time instead of cashing in saved credit.
        The tags are a running sum from ``max(virtual time, last tag)``,
        added one step at a time, so they equal ``n`` one-request stamps
        bit for bit (``start + i / weight`` would not).
        """
        tags = np.full(n + 1, 1.0 / self.table.policy_for(tenant).weight)
        tags[0] = max(self._virtual, self._finish.get(tenant, 0.0))
        np.add.accumulate(tags, out=tags)
        if n:
            self._finish[tenant] = float(tags[-1])
        return tags[1:]

    def advance(self, tag: float) -> None:
        """Move the virtual clock up to a dispatched request's tag."""
        if tag > self._virtual:
            self._virtual = tag

    # ------------------------------------------------------------------ #
    # overload actions
    # ------------------------------------------------------------------ #
    def overload_many(self, policy: TenantPolicy, lateness_s: np.ndarray) -> np.ndarray:
        """What to do with queued requests ``lateness_s`` past their arrival, as status codes.

        ``STATUS_SHED_DEADLINE`` once the queueing delay alone exceeds the
        tenant's deadline (serving it would be uselessly late),
        ``STATUS_DEGRADED`` past ``degrade_after`` of the deadline when
        the policy has a reduced-``k`` path, ``STATUS_OK`` otherwise.
        Tenants without a deadline are never shed here.
        """
        codes = np.full(lateness_s.size, STATUS_OK, dtype=np.int8)
        deadline = policy.deadline_s
        if deadline is None:
            return codes
        if policy.degrade_k is not None:
            codes[lateness_s > policy.degrade_after * deadline] = STATUS_DEGRADED
        codes[lateness_s > deadline] = STATUS_SHED_DEADLINE
        return codes


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant slice of one trace replay.

    ``n_shed`` splits by cause: ``n_shed_cap`` (token bucket at
    admission), ``n_shed_deadline`` (queueing delay blew the SLO at
    dispatch), ``n_shed_queue`` (priority eviction when the pending
    queue overflowed).  ``n_slo_violations`` counts *served* requests
    whose latency still exceeded ``deadline_ms``; ``share`` is the
    tenant's fraction of all served queries, the figure to compare
    against configured WFQ weights.
    """

    tenant: str
    n_requests: int
    n_ok: int
    n_degraded: int
    n_shed_cap: int
    n_shed_deadline: int
    n_shed_queue: int
    n_dropped: int
    latency_p50_s: float
    latency_p95_s: float
    throughput_qps: float
    share: float
    deadline_ms: float | None
    n_slo_violations: int

    @property
    def n_served(self) -> int:
        """Requests that produced recommendations (full or degraded)."""
        return self.n_ok + self.n_degraded

    @property
    def n_shed(self) -> int:
        """Requests rejected with a ``shed`` outcome, all causes."""
        return self.n_shed_cap + self.n_shed_deadline + self.n_shed_queue


def build_tenant_reports(
    tenants: np.ndarray,
    status: np.ndarray,
    latencies: np.ndarray,
    makespan_s: float,
    table: TenantPolicyTable | None = None,
) -> dict[str, TenantReport]:
    """Fold per-request outcomes into one :class:`TenantReport` per tenant.

    ``status`` uses the module's outcome codes; ``latencies`` are only
    read where a request was served.  Percentiles are over each tenant's
    served requests, throughput is served queries over the replay
    makespan, and ``share`` normalises by the total served across all
    tenants.
    """
    served_mask = (status == STATUS_OK) | (status == STATUS_DEGRADED)
    total_served = int(served_mask.sum())
    reports: dict[str, TenantReport] = {}
    for tenant in np.unique(tenants):
        name = str(tenant)
        mask = tenants == tenant
        st = status[mask]
        served = served_mask[mask]
        n_served = int(served.sum())
        served_lat = latencies[mask][served]
        policy = table.policy_for(name) if table is not None else None
        deadline_ms = policy.deadline_ms if policy is not None else None
        violations = 0
        if deadline_ms is not None and n_served:
            violations = int((served_lat > deadline_ms / 1e3).sum())
        p50, p95, _ = percentile_summary(served_lat)
        reports[name] = TenantReport(
            tenant=name,
            n_requests=int(mask.sum()),
            n_ok=int((st == STATUS_OK).sum()),
            n_degraded=int((st == STATUS_DEGRADED).sum()),
            n_shed_cap=int((st == STATUS_SHED_CAP).sum()),
            n_shed_deadline=int((st == STATUS_SHED_DEADLINE).sum()),
            n_shed_queue=int((st == STATUS_SHED_QUEUE).sum()),
            n_dropped=int((st == STATUS_DROPPED).sum()),
            latency_p50_s=p50,
            latency_p95_s=p95,
            throughput_qps=n_served / makespan_s if makespan_s > 0 else 0.0,
            share=n_served / total_served if total_served else 0.0,
            deadline_ms=deadline_ms,
            n_slo_violations=violations,
        )
    return reports
