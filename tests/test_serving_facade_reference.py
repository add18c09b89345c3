"""Reference core of the facade's outcome path: one dispatch path and one tally against the per-call counters.

:class:`~repro.serving.service.facade.RecommenderService` turns every
data-plane call into one request outcome code (``STATUS_*`` in
:mod:`repro.serving.tenancy`): ``predict`` and ``recommend`` admit and
serve through one private dispatch path, one envelope builder maps the
code to its envelope, and ``stats()`` derives ``requests``,
``request_errors`` and ``tenants`` from one ``(kind, tenant, code)``
tally.  The facade it replaced — a clock → admit → shed → serve → error
→ envelope sequence per method, string admission verdicts from a scalar
``admit``, and three hand-kept counters — lives on below as the oracle,
copied verbatim except for a served read's latency: its wait for the
chosen replica plus the seconds the call charged, as the facade counts it.

A hypothesis property runs one generated call sequence on two identical
clusters of 1-3 replicas, one behind the facade and one behind the
oracle: recommends (valid and invalid ``k``, out-of-range users, the
default and no exclusion), predicts, rates (with and without a log),
fold-ins and drain/restore, under no policy table or one with
``burst``-1 rate caps, ``degrade_k`` below, equal to and above ``k``, and
unlisted and unnamed tenants (the oracle is given an unnamed tenant as
``"default"``, the name the request envelopes give it).  It requires every
envelope field, the payloads, ``stats()`` and the ``serve.requests``
counters to agree.
"""

from __future__ import annotations

from operator import methodcaller

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.serving import FactorStore, InteractionLog, RecommenderService, ServingCluster, TenantPolicy, TenantScheduler, TopK
from repro.serving.service.envelopes import ENVELOPE_STATUS, SERVICE_DEFAULT, STATUSES, PredictRequest, RateRequest, RecommendRequest, ServeResponse
from repro.serving.simulator import serve_window
from repro.serving.tenancy import DEFAULT_TENANT, STATUS_DEGRADED, STATUS_DROPPED, STATUS_ERROR, STATUS_OK, STATUS_SHED_CAP
from repro.sparse.csr import CSRMatrix

N_USERS, N_ITEMS, F = 30, 40, 5

_RNG = np.random.default_rng(4)
_BASE = FactorStore(_RNG.random((N_USERS, F)), _RNG.random((N_ITEMS, F)), n_shards=2)
_SEEN = CSRMatrix.from_dense((_RNG.random((N_USERS, N_ITEMS)) < 0.2).astype(np.float64))


# ---------------------------------------------------------------------- #
# the oracle: the facade's per-method outcome path and counters
# ---------------------------------------------------------------------- #
class _ScalarScheduler(TenantScheduler):
    """The scalar admission wrapper the facade used."""

    _VERDICTS = {STATUS_OK: "ok", STATUS_DEGRADED: "degraded", STATUS_SHED_CAP: "shed"}

    def admit(self, tenant: str, now: float):
        verdict = self.admit_many(tenant, np.array([now], dtype=np.float64))[0]
        return self._VERDICTS[verdict], self.table.policy_for(tenant)


class _ReferenceService(RecommenderService):
    """``predict`` / ``recommend`` / ``rate`` / ``stats`` and their helpers, as they were before the tally."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._counters = {"predict": 0, "recommend": 0, "rate": 0}
        self._n_errors = 0
        self._scheduler = _ScalarScheduler(self.policies) if self.policies is not None else None
        self._tenant_counters: dict[str, dict[str, int]] = {}

    def stats(self) -> dict:
        stats = dict(self.backend.stats_dict())
        stats["requests"] = dict(self._counters)
        stats["request_errors"] = self._n_errors
        if self._tenant_counters:
            stats["tenants"] = {name: dict(c) for name, c in self._tenant_counters.items()}
        return stats

    def _count_tenant(self, tenant: str, outcome: str) -> None:
        if self._scheduler is None:
            return
        counters = self._tenant_counters.setdefault(tenant, {"ok": 0, "degraded": 0, "shed": 0, "error": 0})
        counters[outcome] += 1

    def _observe(self, response: ServeResponse, start_s: float | None = None) -> ServeResponse:
        if not obs.enabled():
            return response
        tenant = response.tenant or "default"
        registry = obs.get_registry()
        registry.counter("serve.requests", kind=response.kind, status=response.status, tenant=tenant).inc()
        if response.status in ("ok", "degraded") and start_s is not None:
            registry.histogram("serve.latency_s", tenant=tenant).observe(response.latency_s)
            obs.get_tracer().add_span(
                f"{response.kind}:{tenant}",
                start=start_s,
                end=start_s + response.latency_s,
                category="request",
                process="serve",
                track=f"replica:{response.replica}",
                status=response.status,
                version=response.version,
            )
        return response

    def _error(self, kind: str, exc: Exception, tenant: str = "") -> ServeResponse:
        self._n_errors += 1
        self._count_tenant(tenant or "default", "error")
        return self._observe(
            ServeResponse(
                kind=kind,
                status="error",
                error=str(exc),
                error_type=type(exc).__name__,
                tenant=tenant,
            )
        )

    def _shed(self, kind: str, tenant: str) -> ServeResponse:
        self._count_tenant(tenant, "shed")
        return self._observe(
            ServeResponse(
                kind=kind,
                status="shed",
                error=f"tenant {tenant!r} over rate cap",
                error_type="ShedError",
                tenant=tenant,
            )
        )

    def predict(self, users, items=None, *, tenant: str = "default") -> ServeResponse:
        request = users if isinstance(users, PredictRequest) else PredictRequest(users, items, tenant=tenant)
        active, free, now = self._clock()
        if self._scheduler is not None:
            decision, _ = self._scheduler.admit(request.tenant, now)
            if decision != "ok":
                return self._shed("predict", request.tenant)
        wait = [max(0.0, t - now) for t in free]
        try:
            replica, [(payload, service, _)] = serve_window(self.backend, active, free, now, [methodcaller("predict", request.users, request.items)])
        except (ValueError, RuntimeError) as exc:
            return self._error("predict", exc, tenant=request.tenant)
        self._counters["predict"] += 1
        self._count_tenant(request.tenant, "ok")
        return self._observe(
            ServeResponse(
                kind="predict",
                status="ok",
                payload=payload,
                latency_s=wait[replica] + service,
                version=self.backend.replicas[replica].version,
                replica=replica,
                tenant=request.tenant,
            ),
            start_s=now,
        )

    def recommend(self, users, k: int = 10, *, user_block: int = 512, exclude=SERVICE_DEFAULT, tenant: str = "default") -> ServeResponse:
        if isinstance(users, RecommendRequest):
            request = users
        else:
            request = RecommendRequest(users, k=k, user_block=user_block, exclude=exclude, tenant=tenant)
        mask = self.ratings if request.exclude is SERVICE_DEFAULT else request.exclude
        try:
            FactorStore.check_topk_args(request.k, request.user_block)
        except ValueError as exc:
            return self._error("recommend", exc, tenant=request.tenant)
        active, free, now = self._clock()
        k_eff, status = request.k, "ok"
        if self._scheduler is not None:
            decision, policy = self._scheduler.admit(request.tenant, now)
            if decision == "shed":
                return self._shed("recommend", request.tenant)
            if decision == "degraded" and policy.degrade_k < request.k:
                k_eff, status = policy.degrade_k, "degraded"
        try:
            batch = np.atleast_1d(np.asarray(request.users))
            call = methodcaller("recommend_batch", batch, k=k_eff, exclude=mask, user_block=request.user_block)
            wait = [max(0.0, t - now) for t in free]
            replica, [(payload, service, _)] = serve_window(self.backend, active, free, now, [call])
        except (ValueError, RuntimeError) as exc:
            return self._error("recommend", exc, tenant=request.tenant)
        self._counters["recommend"] += 1
        self._count_tenant(request.tenant, status)
        return self._observe(
            ServeResponse(
                kind="recommend",
                status=status,
                payload=payload,
                latency_s=wait[replica] + service,
                version=self.backend.replicas[replica].version,
                replica=replica,
                tenant=request.tenant,
            ),
            start_s=now,
        )

    def rate(self, user, items=None, ratings=None, *, tenant: str = "default") -> ServeResponse:
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
            return self._error("rate", exc, tenant=request.tenant)
        self._counters["rate"] += 1
        self._count_tenant(request.tenant, "ok")
        version = self.backend.serving_units()[0].version
        return self._observe(ServeResponse(kind="rate", status="ok", payload=n_events, version=version, tenant=request.tenant))


# ---------------------------------------------------------------------- #
# the property
# ---------------------------------------------------------------------- #
_TENANTS = st.sampled_from(["a", "b", "default", "", "unlisted"])


@st.composite
def _policies(draw):
    """``None``, or ``burst``-1 caps for ``a`` and ``b`` with ``degrade_k`` below, at or above ``k`` (``default`` stays unlisted)."""
    if draw(st.booleans()):
        return None
    caps, degrade_k = st.sampled_from([1e3, 2e4]), st.sampled_from([3, None, 5, 1, 12])
    return [TenantPolicy(name, rate_cap_qps=draw(caps), burst=1, degrade_k=draw(degrade_k)) for name in ("a", "b")]


_RECOMMEND = st.tuples(
    st.just("recommend"), st.lists(st.integers(0, N_USERS), min_size=1, max_size=6), st.sampled_from([5, 2, 8, 0, 3, 1]), _TENANTS, st.booleans()
)
_PREDICT = st.tuples(st.just("predict"), st.integers(1, 6), st.booleans(), _TENANTS)
_OPS = st.lists(
    st.one_of(
        _RECOMMEND,
        _RECOMMEND,  # reads dominate, so capped tenants run past their buckets
        _RECOMMEND,
        _PREDICT,
        _PREDICT,
        st.tuples(st.just("rate"), st.integers(0, N_USERS + 4), st.integers(1, 4), _TENANTS),
        st.tuples(st.just("fold_in"), st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=5, unique=True)),
        st.tuples(st.just("drain"), st.integers(0, 2)),
        st.tuples(st.just("restore"), st.integers(0, 2)),
    ),
    min_size=10,
    max_size=40,
)


def _call(service: RecommenderService, op: str, args: tuple, rng: np.random.Generator):
    """Run one generated op; returns the response of a data-plane call, ``None`` for an admin verb."""
    cluster = service.backend
    if op == "recommend":
        users, k, tenant, default_exclude = args
        return service.recommend(np.array(users), k=k, exclude=SERVICE_DEFAULT if default_exclude else None, tenant=tenant)
    if op == "predict":
        n, in_range, tenant = args
        items = rng.integers(0, N_ITEMS if in_range else N_ITEMS + 3, n)
        return service.predict(rng.integers(0, service.n_users, n), items, tenant=tenant)
    if op == "rate":
        user, n, tenant = args
        return service.rate(user, rng.integers(0, N_ITEMS + 2, n), rng.uniform(1.0, 5.0, n), tenant=tenant)
    if op == "fold_in":
        service.fold_in(np.array(args[0]), np.full(len(args[0]), 4.0))
    elif op == "drain":
        if args[0] < len(cluster.replicas) and cluster.is_active(args[0]) and cluster.n_active > 1:
            service.drain(args[0])
    elif args[0] < len(cluster.replicas) and not cluster.is_active(args[0]):
        service.restore(args[0])
    return None


def _run(service_cls: type, n_replicas: int, router: str, policies, with_log: bool, ops) -> tuple:
    """Drive ``ops`` through a fresh cluster behind ``service_cls``: (responses, stats, serve.requests counters)."""
    if service_cls is _ReferenceService:
        # The old facade filed an unnamed tenant under "" and "default"; the
        # request envelopes now turn "" into "default", so the oracle is given that name.
        ops = [tuple(DEFAULT_TENANT if arg == "" else arg for arg in op) for op in ops]
    cluster = ServingCluster.from_store(_BASE, n_replicas, router=router)
    service = service_cls(cluster, log=InteractionLog() if with_log else None, ratings=_SEEN, policies=policies)
    rng = np.random.default_rng(11)  # the same draws on both sides
    with obs.observed() as (registry, _):
        responses = [response for op, *args in ops if (response := _call(service, op, tuple(args), rng)) is not None]
    counters = {metric.labels: metric.value for metric in registry.metrics() if metric.name == "serve.requests"}
    return responses, service.stats(), counters


def _envelope(response: ServeResponse) -> dict:
    """Every envelope field, the latency spelled exactly and a top-k payload as arrays and boxed rows."""
    fields = dict(vars(response))
    fields["latency_s"] = response.latency_s.hex()
    payload = fields.pop("payload")
    if isinstance(payload, TopK):
        fields["payload"] = ("topk", payload.ids.tolist(), payload.scores.tolist(), list(payload))
    elif isinstance(payload, np.ndarray):
        fields["payload"] = ("array", payload.tolist())
    else:
        fields["payload"] = payload
    return fields


@settings(max_examples=150, deadline=None)
@given(
    n_replicas=st.integers(1, 3),
    router=st.sampled_from(["least-loaded", "round-robin"]),
    policies=_policies(),
    with_log=st.booleans(),
    ops=_OPS,
)
def test_facade_outcomes_match_the_per_call_counters(n_replicas, router, policies, with_log, ops):
    got, got_stats, got_counters = _run(RecommenderService, n_replicas, router, policies, with_log, ops)
    want, want_stats, want_counters = _run(_ReferenceService, n_replicas, router, policies, with_log, ops)
    assert [_envelope(r) for r in got] == [_envelope(r) for r in want]
    assert got_stats == want_stats
    assert got_counters == want_counters


def test_status_vocabulary_is_the_code_table():
    """``STATUSES`` keeps its value and names exactly the envelope statuses of the outcome codes."""
    assert STATUSES == ("ok", "error", "shed", "degraded")
    assert set(ENVELOPE_STATUS.values()) == set(STATUSES)
    assert STATUS_DROPPED not in ENVELOPE_STATUS  # a dropped replay request has no envelope
    assert STATUS_OK == min(ENVELOPE_STATUS) and ENVELOPE_STATUS[STATUS_ERROR] == "error"
