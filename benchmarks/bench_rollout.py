"""Lifecycle benchmarks: incremental refresh and zero-downtime rollout.

Two claims are pinned here:

* **refresh == retrain on the rows it touches** — the incremental
  refresh re-solves only the affected user rows (and folds new items
  in against the frozen X), yet every row it produces matches a full
  ``update_factor`` pass over the merged ratings to <= 1e-8, at a
  fraction of the row count;
* **a rolling v1 -> v2 swap drops nothing** — with sustained Poisson
  traffic replayed through a 3-replica cluster, the RolloutController
  drains/swaps/restores one replica at a time and every query in the
  trace is answered (zero dropped), with the p95 inside the rollout
  window reported next to the steady-state p95 as the degradation
  figure.
"""

import numpy as np
import pytest

from repro.core.hermitian import update_factor
from repro.serving import (
    InteractionLog,
    QueryTrace,
    RequestSimulator,
    RolloutController,
    ServingCluster,
    SnapshotRegistry,
    refresh_factors,
)
from repro.sparse.csr import CSRMatrix

M_USERS = 1_500
N_ITEMS = 6_000
NNZ = 45_000
F = 16
LAM = 0.05
TOPK = 10
MAX_BATCH = 128
N_SHARDS = 2
REPLICAS = 3


@pytest.fixture(scope="module")
def base():
    """Frozen v1 factors plus the ratings matrix they were trained on."""
    rng = np.random.default_rng(13)
    ratings = CSRMatrix.from_arrays(
        (M_USERS, N_ITEMS),
        rng.integers(0, M_USERS, size=NNZ),
        rng.integers(0, N_ITEMS, size=NNZ),
        rng.uniform(1.0, 5.0, size=NNZ),
    )
    x = rng.random((M_USERS, F))
    theta = rng.random((N_ITEMS, F))
    return ratings, x, theta


@pytest.fixture(scope="module")
def serving_log(base):
    """What arrived through serving: feedback, fold-in users, new items."""
    ratings, x, theta = base
    rng = np.random.default_rng(29)
    log = InteractionLog()
    for user in rng.choice(M_USERS, size=60, replace=False):
        items = rng.choice(N_ITEMS, size=5, replace=False)
        log.record(int(user), items, rng.uniform(1.0, 5.0, size=items.size))
    for new_user in range(M_USERS, M_USERS + 10):  # cold-start fold-ins
        items = rng.choice(N_ITEMS, size=8, replace=False)
        log.record(new_user, items, rng.uniform(1.0, 5.0, size=items.size))
    for new_item in range(N_ITEMS, N_ITEMS + 4):  # brand-new items
        for user in rng.choice(M_USERS, size=12, replace=False):
            log.record(int(user), np.array([new_item]), rng.uniform(1.0, 5.0, size=1))
    return log


@pytest.fixture(scope="module")
def refreshed(base, serving_log):
    ratings, x, theta = base
    return refresh_factors(x, theta, ratings, serving_log, LAM)


@pytest.fixture(scope="module")
def registry(base, refreshed, tmp_path_factory):
    """v0 = the trained snapshot, v1 = the refreshed one."""
    ratings, x, theta = base
    reg = SnapshotRegistry(str(tmp_path_factory.mktemp("registry")))
    reg.publish(x, theta, lam=LAM, tag="trained")
    reg.publish(refreshed.x, refreshed.theta, lam=LAM, tag="refreshed")
    return reg


@pytest.fixture(scope="module")
def capacity_qps(registry):
    """Saturated single-replica throughput (one full batch, simulated)."""
    probe = registry.build_store(0, n_shards=N_SHARDS)
    probe.recommend_batch(np.arange(MAX_BATCH), k=TOPK)
    return MAX_BATCH / probe.stats.simulated_seconds


def _cluster(registry, version=0):
    return ServingCluster(
        [registry.build_store(version, n_shards=N_SHARDS) for _ in range(REPLICAS)],
        router="least-loaded",
    )


def _rolling_replay(registry, trace):
    cluster = _cluster(registry)
    controller = RolloutController(cluster, registry)
    events = controller.plan_events(1, start_s=0.25 * trace.duration, step_s=0.18 * trace.duration)
    sim = RequestSimulator(cluster, k=TOPK, max_batch=MAX_BATCH, window_s=0.0)
    return sim.run(trace, events=events), controller


def test_refresh_matches_full_retrain(base, refreshed, report):
    """Affected rows must equal a full update pass to <= 1e-8 (acceptance pin)."""
    ratings, x, theta = base
    res = refreshed
    full_x = update_factor(res.ratings, res.theta, LAM)
    user_dev = float(np.abs(res.x[res.affected_users] - full_x[res.affected_users]).max())
    # the fold-in holds X fixed: compare against an item pass over the same
    # frozen X (pre-refresh rows, zeros for users that did not exist yet)
    x_frozen = np.vstack([x, np.zeros((res.ratings.shape[0] - x.shape[0], F))])
    full_theta = update_factor(res.ratings.transpose(), x_frozen, LAM)
    item_dev = float(np.abs(res.theta[res.new_items] - full_theta[res.new_items]).max())
    untouched = np.setdiff1d(np.arange(M_USERS), res.affected_users)
    report(
        "incremental refresh vs full retrain (%d users x %d items, f=%d)"
        % (res.ratings.shape[0], res.ratings.shape[1], F),
        "\n".join(
            [
                res.summary(),
                "affected user rows: %d of %d (%.1f%%)"
                % (
                    res.affected_users.size,
                    res.ratings.shape[0],
                    100.0 * res.affected_users.size / res.ratings.shape[0],
                ),
                "max |refresh - full pass| over affected rows: %.2e" % user_dev,
                "max |fold-in - full pass| over new item rows:  %.2e" % item_dev,
            ]
        ),
    )
    assert user_dev <= 1e-8
    assert item_dev <= 1e-8
    np.testing.assert_array_equal(res.x[untouched], x[untouched])


def test_rollout_zero_drops_under_traffic(registry, capacity_qps, report):
    """The rolling swap must answer every query while both versions serve."""
    rate = 0.8 * REPLICAS * capacity_qps  # sustained, near-saturating
    trace = QueryTrace.poisson(9_000, rate, M_USERS, seed=3)
    steady = RequestSimulator(_cluster(registry), k=TOPK, max_batch=MAX_BATCH, window_s=0.0).run(trace)
    rolled, controller = _rolling_replay(registry, trace)
    degradation = rolled.window_p95_s / steady.latency_p95_s if steady.latency_p95_s else 1.0
    report(
        "rolling v0 -> v1 swap, %d replicas, %d queries at %.0f qps offered"
        % (REPLICAS, trace.n_requests, rate),
        "\n".join(
            [
                "steady state : p95 %7.3f ms, %10.0f qps"
                % (steady.latency_p95_s * 1e3, steady.throughput_qps),
                "during rollout: window p95 %7.3f ms over %d queries (%.2fx steady)"
                % (rolled.window_p95_s * 1e3, rolled.window_queries, degradation),
                "per-version queries: %s"
                % ", ".join(f"{v}: {q}" for v, q in sorted(rolled.per_version_queries.items())),
                "dropped: %d of %d" % (rolled.n_dropped, rolled.n_requests),
            ]
        ),
    )
    assert rolled.n_dropped == 0, f"{rolled.n_dropped} queries dropped during rollout"
    assert sum(rolled.per_replica_queries) == trace.n_requests
    assert rolled.per_version_queries.get("v0", 0) > 0
    assert rolled.per_version_queries.get("v1", 0) > 0
    assert controller.status()["versions"] == ["v1"] * REPLICAS
    assert controller.status()["active"] == list(range(REPLICAS))
    assert rolled.window_queries > 0 and np.isfinite(rolled.window_p95_s)


def test_bench_rolling_swap(benchmark, registry, capacity_qps):
    trace = QueryTrace.poisson(3_000, 0.8 * REPLICAS * capacity_qps, M_USERS, seed=7)
    result, _ = benchmark.pedantic(_rolling_replay, args=(registry, trace), rounds=1, iterations=1)
    assert result.n_dropped == 0


def test_bench_refresh(benchmark, base, serving_log):
    ratings, x, theta = base
    res = benchmark.pedantic(refresh_factors, args=(x, theta, ratings, serving_log, LAM), rounds=1, iterations=1)
    assert res.affected_users.size > 0


def test_grown_items_are_served_after_rollout(registry, refreshed):
    """Post-rollout, every replica answers queries over the grown item axis."""
    cluster = _cluster(registry)
    RolloutController(cluster, registry).rollout(1)
    assert cluster.n_items == N_ITEMS + refreshed.n_new_items
    # the merged ratings matrix is the exclude matrix of the new version
    recs = cluster.recommend(M_USERS + 2, k=5, exclude=refreshed.ratings)
    assert len(recs) == 5


def test_store_swap_is_cheaper_than_rebuild(registry):
    """Swapping in place must not reset accumulated serving stats."""
    store = registry.build_store(0, n_shards=N_SHARDS)
    store.recommend_batch(np.arange(64), k=TOPK)
    queries_before = store.stats.queries
    snap = registry.load(1)
    store.swap_snapshot(snap.x, snap.theta, version=snap.label)
    assert store.stats.queries == queries_before
    assert store.version == "v1"
