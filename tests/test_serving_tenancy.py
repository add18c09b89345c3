"""Multi-tenant SLO serving: policies, WFQ fairness, shedding, reports.

Covers the tenancy layer end to end — :class:`TenantPolicy` /
:class:`TenantPolicyTable` validation, the :class:`TenantScheduler`
token-bucket and virtual-clock mechanics, the replay loop's WFQ
discipline (cap enforcement, weighted fair shares, priority shedding,
degraded service, per-tenant report math) on BOTH backends (store and
cluster), the facade's admission path, and the router registry
satellites.  The zero-cost property at the end of the replay tests runs
generated replays through the FIFO discipline and, labelled, through
the WFQ discipline under a trivial single-tenant policy, and requires
identical reports.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ALSConfig
from repro.core.trainer import CuMF
from repro.datasets import NETFLIX, generate_ratings
from repro.serving import (
    LifecycleEvent,
    QueryTrace,
    RecommendRequest,
    RequestSimulator,
    ServeResponse,
    ServingCluster,
    ServingConfig,
    ShedError,
    TenantPolicy,
    TenantPolicyTable,
    TenantScheduler,
    TrafficReport,
    make_router,
    register_router,
    simulator,
)
from repro.serving.routing import Router, get_router_spec
from repro.serving.store import FactorStore
from repro.serving.tenancy import STATUS_DEGRADED, STATUS_OK, STATUS_SHED_DEADLINE

F = 8
LAM = 0.05
N_USERS = 500


@pytest.fixture(scope="module")
def data():
    spec = NETFLIX.scaled(max_rows=N_USERS, f=F)
    return generate_ratings(spec, seed=0, noise_sigma=0.3)


@pytest.fixture(scope="module")
def n_users(data):
    return data.train.shape[0]


@pytest.fixture(scope="module")
def fitted(data):
    model = CuMF(ALSConfig(f=F, lam=LAM, iterations=2, seed=1), backend="base")
    model.fit(data.train)
    return model


BACKENDS = ["store", "cluster"]


def _build_backend(kind: str, fitted):
    store = FactorStore.from_result(fitted.result, n_shards=2)
    if kind == "store":
        return ServingCluster.of(store)
    return ServingCluster.from_store(store, n_replicas=2)


@pytest.fixture(params=BACKENDS)
def backend_kind(request):
    return request.param


@pytest.fixture
def backend(backend_kind, fitted):
    return _build_backend(backend_kind, fitted)


@pytest.fixture(scope="module")
def per_query_s(fitted, n_users):
    """Calibrated simulated service cost per query (one store unit)."""
    store = FactorStore.from_result(fitted.result, n_shards=2)
    sim = RequestSimulator(store, k=10, max_batch=32, window_s=1e-3)
    report = sim.run(QueryTrace.poisson(1000, 1e7, n_users, seed=5))
    return report.service_seconds / report.n_requests


def _capacity(backend, per_query_s) -> float:
    """Aggregate serving capacity of a backend in queries/second."""
    return len(backend.serving_units()) / per_query_s


# ---------------------------------------------------------------------- #
# policies and tables
# ---------------------------------------------------------------------- #
class TestTenantPolicy:
    def test_defaults(self):
        policy = TenantPolicy("acme")
        assert policy.weight == 1.0
        assert policy.rate_cap_qps is None
        assert policy.deadline_s is None
        assert policy.bucket_burst == float("inf")

    def test_deadline_and_burst_derivations(self):
        policy = TenantPolicy("acme", rate_cap_qps=1000.0, deadline_ms=50.0)
        assert policy.deadline_s == pytest.approx(0.05)
        assert policy.bucket_burst == pytest.approx(50.0)  # 5% of a second's cap
        assert TenantPolicy("b", rate_cap_qps=2.0).bucket_burst == 1.0  # floor
        assert TenantPolicy("c", rate_cap_qps=10.0, burst=4).bucket_burst == 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant": ""},
            {"tenant": "x", "weight": 0.0},
            {"tenant": "x", "weight": -1.0},
            {"tenant": "x", "rate_cap_qps": 0.0},
            {"tenant": "x", "burst": 5},  # burst without a cap
            {"tenant": "x", "rate_cap_qps": 10.0, "burst": 0.5},
            {"tenant": "x", "deadline_ms": 0.0},
            {"tenant": "x", "degrade_k": 0},
            {"tenant": "x", "degrade_after": 0.0},
            {"tenant": "x", "degrade_after": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantPolicy(**kwargs)


class TestTenantPolicyTable:
    def test_lookup_falls_back_to_default(self):
        table = TenantPolicyTable([TenantPolicy("gold", weight=4.0)])
        assert table.policy_for("gold").weight == 4.0
        assert table.policy_for("stranger").weight == 1.0
        assert "gold" in table and "stranger" not in table
        assert len(table) == 1

    def test_custom_default(self):
        table = TenantPolicyTable(default=TenantPolicy("default", weight=0.5))
        assert table.policy_for("anyone").weight == 0.5

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate policy"):
            TenantPolicyTable([TenantPolicy("a"), TenantPolicy("a", weight=2.0)])

    def test_coerce(self):
        assert TenantPolicyTable.coerce(None) is None
        table = TenantPolicyTable([TenantPolicy("a")])
        assert TenantPolicyTable.coerce(table) is table
        assert len(TenantPolicyTable.coerce(TenantPolicy("solo"))) == 1
        assert len(TenantPolicyTable.coerce([TenantPolicy("a"), TenantPolicy("b")])) == 2
        assert len(TenantPolicyTable.coerce({"a": TenantPolicy("a")})) == 1
        with pytest.raises(ValueError, match="must map to its own"):
            TenantPolicyTable.coerce({"a": TenantPolicy("b")})


class TestTenantScheduler:
    def test_token_bucket_caps_rate(self):
        table = TenantPolicyTable([TenantPolicy("capped", rate_cap_qps=10.0, burst=1)])
        sched = TenantScheduler(table)
        assert sched.admit("capped", 0.0)[0] == "ok"
        assert sched.admit("capped", 0.0)[0] == "shed"  # bucket empty
        assert sched.admit("capped", 0.05)[0] == "shed"  # half a token refilled
        assert sched.admit("capped", 0.11)[0] == "ok"  # > 1 token again
        assert sched.admit("uncapped", 0.0)[0] == "ok"  # default policy: no cap

    def test_wfq_stamps_interleave_by_weight(self):
        table = TenantPolicyTable([TenantPolicy("heavy", weight=2.0), TenantPolicy("light", weight=1.0)])
        sched = TenantScheduler(table)
        stamps = sorted(
            [(sched.stamp("heavy"), "heavy") for _ in range(4)]
            + [(sched.stamp("light"), "light") for _ in range(4)]
        )
        # In tag order the first four slots hold twice as many heavy requests.
        first = [name for _, name in stamps[:3]]
        assert first.count("heavy") == 2
        assert first.count("light") == 1

    def test_admit_and_overload_action(self):
        table = TenantPolicyTable(
            [
                TenantPolicy("hard", rate_cap_qps=1.0, burst=1),
                TenantPolicy("soft", rate_cap_qps=1.0, burst=1, degrade_k=3),
                TenantPolicy("slo", deadline_ms=100.0, degrade_k=5, degrade_after=0.5),
            ]
        )
        sched = TenantScheduler(table)
        assert sched.admit("hard", 0.0)[0] == "ok"
        assert sched.admit("hard", 0.0)[0] == "shed"
        assert sched.admit("soft", 0.0)[0] == "ok"
        assert sched.admit("soft", 0.0)[0] == "degraded"
        slo = table.policy_for("slo")
        actions = sched.overload_many(slo, np.array([0.01, 0.06, 0.2]))
        assert actions.tolist() == [STATUS_OK, STATUS_DEGRADED, STATUS_SHED_DEADLINE]
        assert sched.overload_many(table.policy_for("nodeadline"), np.array([999.0])).tolist() == [STATUS_OK]

    def test_reset_restores_buckets(self):
        table = TenantPolicyTable([TenantPolicy("t", rate_cap_qps=1.0, burst=1)])
        sched = TenantScheduler(table)
        assert sched.admit("t", 0.0)[0] == "ok"
        assert sched.admit("t", 0.0)[0] == "shed"
        sched.reset()
        assert sched.admit("t", 0.0)[0] == "ok"


# ---------------------------------------------------------------------- #
# envelopes: tenant fields and the status vocabulary
# ---------------------------------------------------------------------- #
class TestEnvelopes:
    def test_requests_default_tenant(self):
        request = RecommendRequest(users=3)
        assert request.tenant == "default"
        assert request.priority is None
        assert RecommendRequest(users=3, tenant="acme", priority=2).tenant == "acme"

    def test_response_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="unknown response status"):
            ServeResponse(kind="recommend", status="maybe")

    def test_raise_for_status_ok_and_degraded_chain(self):
        ok = ServeResponse(kind="recommend", status="ok", payload=[1])
        assert ok.raise_for_status() is ok
        assert ok.served and ok.ok
        degraded = ServeResponse(kind="recommend", status="degraded", payload=[1], tenant="t")
        assert degraded.raise_for_status() is degraded
        assert degraded.served and not degraded.ok

    def test_raise_for_status_shed(self):
        shed = ServeResponse(kind="recommend", status="shed", tenant="bulk", error_type="ShedError")
        assert not shed.served
        with pytest.raises(ShedError, match="bulk"):
            shed.raise_for_status()

    def test_raise_for_status_error_restores_type(self):
        err = ServeResponse(
            kind="recommend", status="error", error="k must be >= 1", error_type="ValueError"
        )
        with pytest.raises(ValueError, match="k must be >= 1"):
            err.raise_for_status()
        with pytest.raises(RuntimeError):
            ServeResponse(kind="rate", status="error", error="boom", error_type="Weird").raise_for_status()


# ---------------------------------------------------------------------- #
# tenant-labelled traces
# ---------------------------------------------------------------------- #
class TestTraces:
    def test_poisson_with_tenant_label(self, n_users):
        trace = QueryTrace.poisson(50, 100.0, n_users, seed=1, tenant="acme")
        assert trace.tenants is not None
        assert set(trace.tenants) == {"acme"}

    def test_merge_sorts_and_labels(self, n_users):
        a = QueryTrace.poisson(30, 100.0, n_users, seed=1, tenant="a")
        b = QueryTrace.poisson(30, 100.0, n_users, seed=2)  # unlabelled -> default
        merged = QueryTrace.merge(a, b, label="mix")
        assert merged.n_requests == 60
        assert np.all(np.diff(merged.arrivals) >= 0)
        assert set(merged.tenants) == {"a", "default"}

    def test_multi_tenant_rates(self, n_users):
        trace = QueryTrace.multi_tenant({"x": 500.0, "y": 1000.0}, 2.0, n_users, seed=3)
        counts = {name: int((trace.tenants == name).sum()) for name in ("x", "y")}
        assert counts["x"] == pytest.approx(1000, rel=0.2)
        assert counts["y"] == pytest.approx(2000, rel=0.2)
        assert np.all(np.diff(trace.arrivals) >= 0)

    def test_misaligned_tenants_rejected(self):
        with pytest.raises(ValueError, match="tenants must align"):
            QueryTrace(np.array([0.0, 1.0]), np.array([1, 2]), tenants=np.array(["a"]))


# ---------------------------------------------------------------------- #
# WFQ replay: the tentpole behaviours, on both backends
# ---------------------------------------------------------------------- #
def _fresh_backend(fitted, replicas: int):
    store = FactorStore.from_result(fitted.result, n_shards=2)
    return ServingCluster.of(store) if replicas == 1 else ServingCluster.from_store(store, n_replicas=replicas)


def _events(backend, specs, duration: float) -> list:
    """Materialise ``(fraction of duration, kind, unit)`` specs on ``backend``.

    ``drain`` / ``restore`` go through the guarded public calls and are
    skipped where the guard would refuse them (a 1-replica cluster has
    nothing to drain); ``drain-all`` bypasses the last-replica guard on purpose
    to empty the rotation.
    """

    def drain(unit):
        if unit < len(backend.serving_units()) and len(backend.active_indices()) > 1 and unit in backend.active_indices():
            backend.drain(unit)

    def restore(unit):
        if unit < len(backend.serving_units()) and unit not in backend.active_indices():
            backend.restore(unit)

    def drain_all(_unit):
        backend._active = [False] * backend.n_replicas

    actions = {"drain": drain, "restore": restore, "drain-all": drain_all}
    return [LifecycleEvent(frac * duration, functools.partial(actions[kind], unit), kind) for frac, kind, unit in specs]


@st.composite
def _replays(draw):
    """A replay input: trace, batching knobs, backend size, lifecycle events."""
    n, rate, seed = draw(st.integers(20, 300)), draw(st.sampled_from([500.0, 5e3, 5e4])), draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        trace = QueryTrace.poisson(n, rate, N_USERS, seed=seed)
    else:
        trace = QueryTrace.bursty(n, rate / 10, rate, N_USERS, burst_every_s=0.05, burst_len_s=0.01, seed=seed)
    replicas = draw(st.sampled_from([1, 2, 3]))
    frac = st.integers(0, 1200).map(lambda permille: permille / 1000)  # of the trace duration
    events = draw(st.lists(st.tuples(frac, st.sampled_from(["drain", "restore"]), st.integers(0, 2)), max_size=4))
    if replicas > 1:
        full_drain = draw(st.sampled_from(["none", "drain", "drain+restore"]))
        drained_at = draw(frac)
        if full_drain != "none":
            events.append((drained_at, "drain-all", 0))
        if full_drain == "drain+restore":
            events.append((drained_at + draw(frac) / 2, "restore", 0))
    return {
        "trace": trace,
        "replicas": replicas,
        "events": events,
        "max_batch": draw(st.sampled_from([1, 8, 64, 256])),
        "window_s": draw(st.sampled_from([0.0, 1e-4, 5e-3])),
        "exclude": draw(st.booleans()),
    }


class TestScheduledReplay:
    def test_cap_enforcement(self, backend, per_query_s, n_users):
        """A capped tenant is rate-limited via typed sheds, not queueing."""
        capacity = _capacity(backend, per_query_s)
        cap = 0.1 * capacity
        policies = [TenantPolicy("capped", rate_cap_qps=cap, burst=8), TenantPolicy("free")]
        trace = QueryTrace.multi_tenant(
            {"capped": 3 * cap, "free": 0.3 * capacity}, duration_s=0.02, n_users=n_users, seed=7
        )
        sim = RequestSimulator(backend, k=10, max_batch=32, window_s=5e-5, policies=policies)
        report = sim.run(trace)
        capped = report.per_tenant["capped"]
        free = report.per_tenant["free"]
        assert capped.n_shed_cap > 0
        assert capped.n_shed == capped.n_shed_cap  # only the bucket sheds here
        # Served rate stays at the cap (+ bucket burst slack).
        assert capped.throughput_qps <= cap * 1.3
        assert free.n_shed == 0
        assert free.n_served == free.n_requests
        assert report.n_shed == capped.n_shed

    def test_weighted_fair_shares(self, backend, per_query_s, n_users):
        """Two saturated tenants split capacity by weight within tolerance.

        Bounded per-tenant flow buffers (``queue_limit``) are what make
        this hold: they keep each backlogged tenant's finish tags near
        the virtual clock, so service follows the 2:1 tag interleave
        while the excess tail-drops as queue sheds.
        """
        capacity = _capacity(backend, per_query_s)
        policies = [
            TenantPolicy("gold", weight=2.0, queue_limit=64),
            TenantPolicy("bronze", weight=1.0, queue_limit=64),
        ]
        rate = 1.2 * capacity  # each tenant alone overloads the backend
        duration = 8000 / (2 * rate)
        trace = QueryTrace.multi_tenant({"gold": rate, "bronze": rate}, duration, n_users, seed=11)
        sim = RequestSimulator(
            backend, k=10, max_batch=32, window_s=2 * 32 * per_query_s, policies=policies
        )
        report = sim.run(trace)
        gold, bronze = report.per_tenant["gold"], report.per_tenant["bronze"]
        assert gold.n_shed_queue > 0 and bronze.n_shed_queue > 0  # genuinely overloaded
        ratio = gold.n_served / bronze.n_served
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_priority_shed_order(self, backend, per_query_s, n_users):
        """Queue overflow evicts the lowest-priority tenant first."""
        capacity = _capacity(backend, per_query_s)
        policies = [
            TenantPolicy("vip", priority=5),
            TenantPolicy("bulk", priority=0),
        ]
        # The VIP stays inside its share of capacity; the bulk tenant is
        # the aggressor driving the queue past its bound.
        rates = {"vip": 0.3 * capacity, "bulk": 2.0 * capacity}
        duration = 3000 / sum(rates.values())
        trace = QueryTrace.multi_tenant(rates, duration, n_users, seed=13)
        sim = RequestSimulator(
            backend,
            k=10,
            max_batch=32,
            window_s=32 * per_query_s,
            policies=policies,
            max_pending=128,
        )
        report = sim.run(trace)
        vip, bulk = report.per_tenant["vip"], report.per_tenant["bulk"]
        assert bulk.n_shed_queue > 0
        assert vip.n_shed == 0
        assert vip.n_served == vip.n_requests

    def test_degrade_path(self, backend, per_query_s, n_users):
        """Over-cap requests of a degradable tenant serve at reduced k."""
        capacity = _capacity(backend, per_query_s)
        cap = 0.05 * capacity
        policies = [TenantPolicy("soft", rate_cap_qps=cap, burst=8, degrade_k=3)]
        trace = QueryTrace.multi_tenant({"soft": 5 * cap}, duration_s=0.02, n_users=n_users, seed=17)
        sim = RequestSimulator(backend, k=10, max_batch=32, window_s=5e-5, policies=policies)
        report = sim.run(trace)
        soft = report.per_tenant["soft"]
        assert soft.n_degraded > 0
        assert soft.n_shed == 0  # degrade replaces shedding for this tenant
        assert soft.n_served == soft.n_requests
        assert report.n_degraded == soft.n_degraded

    def test_per_tenant_report_math(self, backend, per_query_s, n_users):
        """Per-tenant counts partition the totals; percentiles are consistent."""
        capacity = _capacity(backend, per_query_s)
        policies = [
            TenantPolicy("a", weight=2.0, rate_cap_qps=0.2 * capacity, burst=8),
            TenantPolicy("b", weight=1.0),
        ]
        trace = QueryTrace.multi_tenant(
            {"a": 0.5 * capacity, "b": 0.3 * capacity}, duration_s=0.02, n_users=n_users, seed=19
        )
        sim = RequestSimulator(backend, k=10, max_batch=32, window_s=5e-5, policies=policies)
        report = sim.run(trace)
        tenants = report.per_tenant.values()
        assert sum(t.n_requests for t in tenants) == report.n_requests
        assert sum(t.n_shed for t in tenants) == report.n_shed
        assert sum(t.n_degraded for t in tenants) == report.n_degraded
        assert sum(t.n_dropped for t in tenants) == report.n_dropped
        served_total = sum(t.n_served for t in tenants)
        assert served_total == report.n_requests - report.n_shed - report.n_dropped
        assert sum(t.share for t in tenants) == pytest.approx(1.0)
        for t in tenants:
            assert t.n_requests == t.n_ok + t.n_degraded + t.n_shed + t.n_dropped
            assert t.throughput_qps == pytest.approx(t.n_served / report.makespan_s)
        assert "tenant a" in report.summary()

    def test_slo_violation_accounting(self, backend, per_query_s, n_users):
        """A deadline tighter than the batching window flags every served query."""
        tight = per_query_s * 1e3 * 0.01  # far below one batch's service time
        policies = [TenantPolicy("t", deadline_ms=1e6, degrade_after=1.0)]
        # Huge deadline: nothing sheds; then rebuild the report view with a
        # tight SLO by reading the per-tenant fields.
        trace = QueryTrace.poisson(200, 1000.0, n_users, seed=23, tenant="t")
        sim = RequestSimulator(backend, k=10, max_batch=32, window_s=1e-3, policies=policies)
        report = sim.run(trace)
        t = report.per_tenant["t"]
        assert t.n_slo_violations == 0  # generous SLO
        assert t.deadline_ms == 1e6
        assert tight < 1.0  # sanity on the calibration scale

    def test_single_tenant_per_tenant_matches_aggregate(self, backend, n_users):
        policies = [TenantPolicy("solo")]
        trace = QueryTrace.poisson(300, 2000.0, n_users, seed=29, tenant="solo")
        sim = RequestSimulator(backend, k=10, max_batch=64, window_s=5e-3, policies=policies)
        report = sim.run(trace)
        solo = report.per_tenant["solo"]
        assert solo.n_requests == report.n_requests
        assert solo.latency_p95_s == pytest.approx(report.latency_p95_s)
        assert solo.latency_p50_s == pytest.approx(report.latency_p50_s)
        assert solo.share == 1.0

    @settings(max_examples=50, deadline=None)
    @given(replay=_replays())
    def test_zero_cost_when_unconfigured(self, fitted, data, replay):
        """FIFO vs trivial-policy WFQ on generated replays: identical reports."""
        trace = replay["trace"]
        labelled = QueryTrace(trace.arrivals, trace.users, label=trace.label, tenants=np.full(trace.n_requests, "solo"))
        exclude = data.train if replay["exclude"] else None

        def run(trace, policies=None):
            backend = _fresh_backend(fitted, replay["replicas"])
            sim = RequestSimulator(backend, k=10, exclude=exclude, max_batch=replay["max_batch"], window_s=replay["window_s"], policies=policies)
            return sim.run(trace, _events(backend, replay["events"], trace.duration))

        fifo = run(trace)
        wfq = run(labelled, policies=[TenantPolicy("solo")])
        for fld in dataclasses.fields(TrafficReport):
            if fld.name not in ("wall_seconds", "per_tenant", "n_shed", "n_degraded"):
                assert getattr(fifo, fld.name) == getattr(wfq, fld.name), fld.name
        assert wfq.n_shed == 0 and wfq.n_degraded == 0

    @pytest.mark.parametrize("policies", [None, [TenantPolicy("solo")]], ids=["fifo", "wfq"])
    @pytest.mark.parametrize("case", ["empty", "all-dropped"])
    def test_nothing_served_reports_zero_throughput(self, fitted, n_users, policies, case):
        """No served query means throughput 0.0 (not inf), under both disciplines."""
        if case == "empty":
            backend = _fresh_backend(fitted, 1)
            trace = QueryTrace(np.empty(0), np.empty(0, dtype=np.int64), tenants=np.empty(0, dtype=str))
            events = []
        else:
            backend = _fresh_backend(fitted, 2)
            trace = QueryTrace.poisson(50, 2000.0, n_users, seed=5, tenant="solo")
            events = _events(backend, [(0.0, "drain-all", 0)], trace.duration)
        report = RequestSimulator(backend, k=10, max_batch=8, policies=policies).run(trace, events)
        assert report.n_dropped == trace.n_requests
        assert report.makespan_s == 0.0
        assert report.throughput_qps == 0.0
        assert all(t.throughput_qps == 0.0 for t in report.per_tenant.values())

    @pytest.mark.parametrize("k", [0, -3, 2.5, "10", True])
    def test_bad_k_rejected_before_any_event(self, fitted, data, n_users, k):
        fired = []
        trace = QueryTrace.poisson(20, 2000.0, n_users, seed=1)
        events = [LifecycleEvent(0.0, lambda: fired.append("sim"))]
        with pytest.raises(ValueError, match="k must be an integer"):
            RequestSimulator(_fresh_backend(fitted, 2), k=k).run(trace, events)
        service = fitted.serve(ServingConfig(replicas=2, ratings=data.train))
        with pytest.raises(ValueError, match="k must be an integer"):
            service.simulate(trace, [LifecycleEvent(0.0, lambda: fired.append("service"))], k=k)
        assert fired == []

    def test_unlabelled_trace_ignores_policies(self, backend, n_users):
        """No tenant labels -> FIFO discipline even with policies configured."""
        sim = RequestSimulator(
            backend, k=10, max_batch=64, window_s=5e-3, policies=[TenantPolicy("ghost", rate_cap_qps=1.0)]
        )
        report = sim.run(QueryTrace.poisson(100, 2000.0, n_users, seed=31))
        assert report.n_shed == 0
        assert report.per_tenant == {}


# ---------------------------------------------------------------------- #
# facade admission and config plumbing
# ---------------------------------------------------------------------- #
class TestServiceTenancy:
    def _service(self, fitted, data, replicas=1, **policy_kwargs):
        config = ServingConfig(replicas=replicas, ratings=data.train, **policy_kwargs)
        return fitted.serve(config)

    def test_serve_plumbs_tenant_table(self, fitted, data):
        service = self._service(fitted, data, tenants=[TenantPolicy("acme", weight=3.0)])
        assert service.policies is not None
        assert service.policies.policy_for("acme").weight == 3.0

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_cap_shed_envelope_and_counters(self, fitted, data, replicas):
        service = self._service(
            fitted,
            data,
            replicas=replicas,
            tenants=[TenantPolicy("bulk", rate_cap_qps=1e-6, burst=1)],
        )
        first = service.recommend(3, k=5, tenant="bulk")
        assert first.status == "ok" and first.tenant == "bulk"
        second = service.recommend(3, k=5, tenant="bulk")
        assert second.status == "shed"
        assert second.payload is None and second.replica == -1
        with pytest.raises(ShedError, match="bulk"):
            second.raise_for_status()
        counters = service.stats()["tenants"]["bulk"]
        assert counters["ok"] == 1 and counters["shed"] == 1
        # An unlisted tenant rides the (uncapped) default policy.
        assert service.recommend(3, k=5, tenant="other").status == "ok"

    def test_degraded_envelope_reduces_k(self, fitted, data):
        service = self._service(
            fitted,
            data,
            tenants=[TenantPolicy("soft", rate_cap_qps=1e-6, burst=1, degrade_k=2)],
        )
        assert service.recommend(3, k=8, tenant="soft").status == "ok"
        degraded = service.recommend(3, k=8, tenant="soft")
        assert degraded.status == "degraded"
        assert degraded.served
        assert len(degraded.payload[0]) == 2  # policy's degrade_k, not the requested 8
        assert degraded.raise_for_status() is degraded
        assert service.stats()["tenants"]["soft"]["degraded"] == 1

    def test_predict_cap_is_hard(self, fitted, data):
        service = self._service(
            fitted,
            data,
            tenants=[TenantPolicy("soft", rate_cap_qps=1e-6, burst=1, degrade_k=2)],
        )
        users = np.array([0, 1])
        items = np.array([2, 3])
        assert service.predict(users, items, tenant="soft").status == "ok"
        # predict has no reduced-k knob, so even a degradable tenant sheds
        assert service.predict(users, items, tenant="soft").status == "shed"

    def test_untenanted_service_unchanged(self, fitted, data):
        service = self._service(fitted, data)
        assert service.policies is None
        response = service.recommend(3, k=5)
        assert response.status == "ok"
        assert "tenants" not in service.stats()

    def test_simulate_carries_policies(self, fitted, data, n_users, per_query_s):
        capacity = 1 / per_query_s
        cap = 0.1 * capacity
        service = self._service(
            fitted, data, tenants=[TenantPolicy("capped", rate_cap_qps=cap, burst=8)]
        )
        trace = QueryTrace.multi_tenant({"capped": 3 * cap}, 0.02, n_users, seed=37)
        report = service.simulate(trace, k=10, max_batch=32, window_s=5e-5, exclude=None)
        assert report.per_tenant["capped"].n_shed_cap > 0


# ---------------------------------------------------------------------- #
# zero cost when unconfigured, by counting
# ---------------------------------------------------------------------- #
class TestUnconfiguredTenancyCounting:
    def test_no_policy_table_never_builds_the_tenant_discipline(self, fitted, data, n_users, monkeypatch):
        """Without a policy table a tenant-labelled replay and a service round build no ``TenantScheduler`` or ``_Wfq``."""

        def sentinel(name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} built without a policy table")

            return called

        monkeypatch.setattr(TenantScheduler, "__init__", sentinel("TenantScheduler()"))
        monkeypatch.setattr(simulator._Wfq, "__init__", sentinel("_Wfq()"))

        trace = QueryTrace.multi_tenant({"free": 4e4, "pro": 2e4}, 0.01, n_users, seed=41)
        assert trace.tenants is not None
        report = RequestSimulator(_build_backend("cluster", fitted), k=5, max_batch=32, window_s=1e-4).run(trace)
        assert report.n_requests == trace.n_requests
        service = fitted.serve(ServingConfig(replicas=2, ratings=data.train))
        assert service.recommend(3, k=5, tenant="free").status == "ok"
        assert service.predict(np.array([0, 1]), np.array([2, 3]), tenant="pro").status == "ok"
        assert service.rate(3, np.array([1]), np.array([4.0]), tenant="free").status == "ok"
        assert service.simulate(trace, k=5, max_batch=32, window_s=1e-4, exclude=None).n_requests == trace.n_requests


# ---------------------------------------------------------------------- #
# router registry satellites
# ---------------------------------------------------------------------- #
class TestRouterRegistry:
    def test_make_router_dict_spec_with_overrides(self):
        router = make_router({"name": "power-of-two", "seed": 5})
        assert router.seed == 5
        router = make_router({"name": "power-of-two", "seed": 5}, seed=9)
        assert router.seed == 9  # explicit keyword wins

    def test_register_custom_router_end_to_end(self, fitted, data, monkeypatch):
        from repro.serving import routing

        # Register into copies of the registry's tables; monkeypatch restores the originals.
        monkeypatch.setattr(routing._ROUTERS, "_specs", dict(routing._ROUTERS._specs))
        monkeypatch.setattr(routing._ROUTERS, "_aliases", dict(routing._ROUTERS._aliases))

        class StickyRouter:
            """Always replica 0 — checks protocol structural typing."""

            name = "sticky"

            def select(self, loads):
                return 0

            def reset(self):
                pass

        assert isinstance(StickyRouter(), Router)  # runtime-checkable protocol
        register_router("sticky", StickyRouter, description="always unit 0", aliases=("pin",))
        assert get_router_spec("pin").name == "sticky"
        # A registered name works in ServingConfig and on the live cluster.
        service = fitted.serve(ServingConfig(replicas=2, router="sticky", ratings=data.train))
        assert service.backend.router.name == "sticky"
        for _ in range(4):
            assert service.recommend(3, k=5).replica == 0
        with pytest.raises(ValueError, match="router name already registered"):
            register_router("sticky", StickyRouter)

    def test_config_rejects_unknown_router_at_config_time(self):
        with pytest.raises(ValueError, match="unknown router"):
            ServingConfig(replicas=2, router="no-such-policy")

    def test_config_accepts_dict_router(self, fitted, data):
        config = ServingConfig(replicas=2, router={"name": "power-of-two", "seed": 7}, ratings=data.train)
        service = fitted.serve(config)
        assert service.backend.router.name == "power-of-two"
