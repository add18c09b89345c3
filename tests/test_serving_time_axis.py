"""One serving time axis: a replay's report does not depend on how long its backend has served.

Every serving charge returns its own seconds, and those seconds are the
only source of serving time: a store credits them through
``FactorStore._spend``, and the dispatch step reads each call's service
from the replica's per-call meter, never as a difference of the
replica's lifetime ``stats.simulated_seconds``.  A difference of a
running total rounds differently as the total grows, so a long-lived
backend would otherwise report differently from a fresh one.

The hypothesis property replays one generated trace N >= 3 times on one
long-lived backend (a plain :class:`~repro.serving.store.FactorStore`,
or a :class:`~repro.serving.cluster.ServingCluster` of 1-3 replicas
under any built-in router), with FIFO windows or the tenant WFQ
discipline and no lifecycle events, and requires every
:class:`~repro.serving.simulator.TrafficReport` to equal, field for
field except ``wall_seconds``, the replay of that trace on a fresh
backend.  Tiered stores are left out on purpose: their heat and page
residency carry over from one replay to the next, so a later replay of
the same trace legitimately hits and misses differently.  A second
property pins the tiered store's share of the meter instead: on a fresh
tiered replica, one call's service is exactly the seconds the replica
spent, cache-miss fills and plan waves included.  A replay's
``cache["miss_seconds"]`` is likewise the sum of what its own fills and
plan waves spent, not a difference of the store's lifetime total: two
copies of one long-lived tiered store, one with that total zeroed,
report the same ``cache`` for a replay.
"""

from __future__ import annotations

import copy
import dataclasses
from operator import methodcaller

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import CacheConfig, FactorStore, QueryTrace, RequestSimulator, ServingCluster, TenantPolicy, TieredFactorStore
from repro.serving.simulator import serve_window

N_USERS, N_ITEMS, F = 40, 70, 6

_RNG = np.random.default_rng(7)
_X, _THETA = _RNG.standard_normal((N_USERS, F)), _RNG.standard_normal((N_ITEMS, F))

_POLICIES = [
    TenantPolicy("gold", weight=4.0, priority=1, deadline_ms=0.5, degrade_k=2),
    TenantPolicy("bronze", weight=1.0, rate_cap_qps=40_000.0, queue_limit=8),
]


def _fields(report) -> dict:
    """The report as a dict, without its host wall time."""
    fields = dataclasses.asdict(report)
    del fields["wall_seconds"]
    return fields


@settings(max_examples=30, deadline=None)
@given(
    shards=st.integers(1, 2),
    plain=st.booleans(),
    n_replicas=st.integers(1, 3),
    router=st.sampled_from(["least-loaded", "power-of-two", "round-robin"]),
    wfq=st.booleans(),
    rate=st.sampled_from([20_000.0, 200_000.0, 2_000_000.0]),
    n_requests=st.integers(20, 300),
    max_batch=st.sampled_from([4, 16, 64]),
    window_s=st.sampled_from([0.0, 2e-5, 2e-4]),
    n_replays=st.integers(3, 5),
    seed=st.integers(0, 2**16),
)
def test_a_long_lived_backend_replays_like_a_fresh_one(shards, plain, n_replicas, router, wfq, rate, n_requests, max_batch, window_s, n_replays, seed):
    base = FactorStore(_X, _THETA, n_shards=shards)
    if wfq:
        trace = QueryTrace.multi_tenant({"gold": rate / 2, "bronze": rate / 2}, duration_s=n_requests / rate, n_users=N_USERS, seed=seed)
        policies = _POLICIES
    else:
        trace = QueryTrace.poisson(n_requests, rate, N_USERS, seed=seed)
        policies = None

    def backend():
        return base.replicate() if plain else ServingCluster.from_store(base, n_replicas, router=router)

    def replay(on):
        return _fields(RequestSimulator(on, k=5, max_batch=max_batch, window_s=window_s, policies=policies).run(trace))

    fresh = replay(backend())
    long_lived = backend()
    for n in range(n_replays):
        assert replay(long_lived) == fresh, n


@settings(max_examples=30, deadline=None)
@given(
    shards=st.integers(1, 2),
    users=st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=30),
    k=st.integers(1, 8),
    plan_window_s=st.sampled_from([1e-12, 1.0]),
)
def test_a_tiered_call_serves_for_what_it_spent(shards, users, k, plan_window_s):
    replica = TieredFactorStore(_X, _THETA, n_shards=shards, cache=CacheConfig(hot_fraction=0.3, page_items=4, plan_window_s=plan_window_s))
    _, [(_, service, done)] = serve_window(ServingCluster.of(replica), [0], [0.0], 0.0, [methodcaller("recommend_batch", np.array(users), k=k)])
    assert replica.cache_stats.miss_seconds > 0  # a fresh replica's pages are warm: the call paid fills
    assert service == done == replica.stats.simulated_seconds


def test_a_tiered_replay_reports_the_miss_seconds_it_spent():
    rng = np.random.default_rng(11)
    n_users, n_items = 300, 1500
    store = TieredFactorStore(
        rng.standard_normal((n_users, 8)), rng.standard_normal((n_items, 8)), n_shards=4, cache=CacheConfig(hot_fraction=0.2, page_items=16, plan_window_s=1e-4)
    )

    def replay(on, seed):
        return RequestSimulator(on, k=10, max_batch=64, window_s=2e-4).run(QueryTrace.poisson(2000, 50_000.0, n_users, seed=seed)).cache

    for seed in range(6):  # a long-lived store: its lifetime miss total has grown
        replay(store, seed)
    for seed in range(6, 12):
        grown, zeroed = copy.deepcopy(store), copy.deepcopy(store)
        zeroed.cache_stats.miss_seconds = 0.0
        report = replay(grown, seed)
        assert report["miss_seconds"] > 0
        assert report["miss_seconds"] == pytest.approx(grown.cache_stats.miss_seconds - store.cache_stats.miss_seconds, rel=1e-9)  # every fill and wave
        assert report == replay(zeroed, seed), seed
