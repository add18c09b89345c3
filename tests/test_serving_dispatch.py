"""One dispatch step: the facade's routed reads against the rule they replaced.

:meth:`RecommenderService.recommend` serves a one-request window through
:func:`~repro.serving.simulator.serve_window`, the replay's own dispatch
step.  Each replica is free at its ``stats.simulated_seconds``, the
request arrives and dispatches at the earliest free time of a replica in
rotation, and the router sees ``max(0, free[r] - now)``.

The earlier rule lives on here as the reference: the router sees each
active replica's ``stats.simulated_seconds`` as is, and the latency is
the chosen replica's stats delta.  A hypothesis sequence of recommend,
predict, fold-in and drain/restore calls on 1-3 replicas pins that the
picks agree under every built-in router, that least-loaded latencies
agree bit for bit, and that a load-blind pick now waits behind the
replica's backlog, as it does in the replay.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.serving import (
    FactorStore,
    QueryTrace,
    RecommenderService,
    RequestSimulator,
    ServingCluster,
    TenantPolicy,
    TenantScheduler,
    make_router,
)
from repro.serving.tenancy import STATUS_DEGRADED, STATUS_SHED_CAP

N_USERS, N_ITEMS, F = 40, 60, 6

_RNG = np.random.default_rng(0)
_BASE = FactorStore(_RNG.random((N_USERS, F)), _RNG.random((N_ITEMS, F)), n_shards=2)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("recommend"), st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=40), st.integers(1, 8)),
        st.tuples(st.just("predict"), st.integers(0, N_USERS - 1), st.integers(0, N_ITEMS - 1)),
        st.tuples(st.just("fold_in"), st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=6, unique=True)),
        st.tuples(st.just("drain"), st.integers(0, 2)),
        st.tuples(st.just("restore"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("router", ["least-loaded", "power-of-two", "round-robin"])
@settings(max_examples=40, deadline=None)
@given(n_replicas=st.integers(1, 3), ops=_OPS)
def test_facade_dispatch_matches_the_reference_rule(router, n_replicas, ops):
    cluster = ServingCluster.from_store(_BASE, n_replicas, router=router)
    service = RecommenderService(cluster)
    reference = make_router(router)  # same policy and seed, fed the earlier rule's loads
    with obs.observed() as (_, tracer):
        for op, *args in ops:
            spans = len(tracer.spans_for("serve", "request"))
            active = cluster.active_indices()
            free = [rep.stats.simulated_seconds for rep in cluster.replicas]
            if op == "recommend":
                users, k = args
                pick = active[reference.select([free[r] for r in active])]
                response = service.recommend(np.array(users), k=k, exclude=None)
                assert response.ok and response.replica == pick
                service_s = cluster.replicas[pick].stats.simulated_seconds - free[pick]
                if router == "least-loaded":
                    assert response.latency_s == service_s  # bit for bit
                now = min(free[r] for r in active)
                assert response.latency_s == pytest.approx((free[pick] - now) + service_s, rel=1e-12, abs=0.0)
            elif op == "predict":
                user, item = args
                response = service.predict(np.array([user]), np.array([item]))
                assert response.ok and response.replica == active[0]
            elif op == "fold_in":
                service.fold_in(np.array(args[0]), np.full(len(args[0]), 4.0))
                continue
            elif op == "drain":
                if args[0] < n_replicas and cluster.is_active(args[0]) and cluster.n_active > 1:
                    service.drain(args[0])
                continue
            else:
                if args[0] < n_replicas and not cluster.is_active(args[0]):
                    service.restore(args[0])
                continue
            assert len(tracer.spans_for("serve", "request")) == spans + 1  # one span per served call


def test_round_robin_waits_behind_the_backlog():
    """A load-blind pick queues behind the replica it lands on, as in the replay."""
    service = RecommenderService(ServingCluster.from_store(_BASE, 2, router="round-robin"))
    big = service.recommend(np.arange(N_USERS), k=5, exclude=None)  # replica 0 now ends later
    small = service.recommend(np.arange(2), k=5, exclude=None)  # replica 1 starts at its own free time
    third = service.recommend(np.arange(2), k=5, exclude=None)  # back on replica 0, behind its backlog
    assert (big.replica, small.replica, third.replica) == (0, 1, 0)
    replicas = service.backend.replicas
    assert third.latency_s > replicas[0].stats.simulated_seconds - big.latency_s  # more than its own service time
    assert third.latency_s == pytest.approx(replicas[0].stats.simulated_seconds - replicas[1].stats.simulated_seconds, rel=1e-12)


def test_replay_admits_through_the_scheduler(monkeypatch):
    """The replay's tenant discipline decides admission with ``TenantScheduler.admit_many``, once per arrival."""
    verdicts = []
    admit_many = TenantScheduler.admit_many

    def counted(self, tenant, now, backlog=0):
        decided = admit_many(self, tenant, now, backlog)
        verdicts.extend(decided.tolist())
        return decided

    monkeypatch.setattr(TenantScheduler, "admit_many", counted)
    policies = [TenantPolicy("capped", rate_cap_qps=2_000.0), TenantPolicy("lite", rate_cap_qps=2_000.0, degrade_k=2)]
    trace = QueryTrace.multi_tenant({"capped": 20_000.0, "lite": 20_000.0, "free": 5_000.0}, duration_s=0.01, n_users=N_USERS, seed=3)
    report = RequestSimulator(_BASE.replicate(), k=5, max_batch=16, window_s=1e-4, policies=policies).run(trace)
    assert len(verdicts) == trace.n_requests
    assert verdicts.count(STATUS_SHED_CAP) == report.per_tenant["capped"].n_shed_cap > 0
    assert verdicts.count(STATUS_DEGRADED) == report.per_tenant["lite"].n_degraded > 0


def test_predict_charges_the_replica_clock():
    """A facade predict costs one pair-scoring pass on the replica's clock, and its span lasts that long."""
    service = RecommenderService(ServingCluster.from_store(_BASE, 2))
    rng = np.random.default_rng(1)
    users, items = rng.integers(0, N_USERS, 50), rng.integers(0, N_ITEMS, 50)
    before = [rep.stats.simulated_seconds for rep in service.backend.replicas]
    with obs.observed() as (_, tracer):
        response = service.predict(users, items)
    replica = service.backend.replicas[response.replica]
    assert response.ok and response.latency_s > 0
    assert response.latency_s == replica.stats.simulated_seconds - before[response.replica]
    assert (replica.stats.queries, replica.stats.batches) == (0, 0)  # top-k counters only
    [span] = tracer.spans_for("serve", "request")
    assert span.start == before[response.replica]
    assert span.duration == pytest.approx(response.latency_s, rel=1e-12, abs=0.0)
