"""One rolling swap: the immediate and the planned swap run the same steps, and a rollout loads its target once.

:meth:`ServingCluster.swap_snapshot` runs the rolling swap's drain and
swap steps back to back; :meth:`ServingCluster.plan_swap` schedules the
same steps as replay events.  A hypothesis property fires a plan's
events in time order with no traffic and requires the result of the
immediate swap, bit for bit: versions, rotation (fully restored),
serving metadata, each replica's simulated seconds and clock breakdown,
one shared model per cluster, identical answers and no stale cache hit.
A write made between planning and the first swap (a fold-in, item
growth) is never dropped: when the snapshot no longer covers the
cluster, the first swap raises :class:`ShrinkingSnapshotError` on both
sides and leaves every replica serving what it served, in rotation.
The facade loads a registry version once per planned rollout and three
times per planned rollback (the dry-run target, the registry's
re-publish and the rollout of the new head).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    CacheConfig,
    FactorStore,
    QueryTrace,
    RecommenderService,
    RequestSimulator,
    ServingCluster,
    ShrinkingSnapshotError,
    SnapshotRegistry,
    TieredFactorStore,
)
from repro.sparse.csr import CSRMatrix

N_USERS, N_ITEMS, F, K, SHARDS = 16, 40, 4, 5, 2
_CACHE = CacheConfig(hot_fraction=0.3, page_items=4, plan_window_s=2e-5)


def _cluster(tiered: bool, n_replicas: int, x: np.ndarray, theta: np.ndarray) -> ServingCluster:
    store = TieredFactorStore(x, theta, n_shards=SHARDS, cache=_CACHE) if tiered else FactorStore(x, theta, n_shards=SHARDS)
    return ServingCluster.from_store(store, n_replicas)


def _bits(value):
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def _state(cluster: ServingCluster) -> list:
    """Per replica: what it serves and under which metadata, its clock and its counters; plus the rotation."""
    replicas = [
        _bits(
            {
                "served": (rep.version, rep.lam, rep.weighted, rep.n_users, rep.n_items, rep.x.tobytes(), rep.theta.tobytes()),
                "seconds": rep.stats.simulated_seconds,
                "breakdown": rep.machine.clock.breakdown(),
                "stats": rep.stats.as_dict(),
                "cache": rep.cache_stats.as_dict() if isinstance(rep, TieredFactorStore) else None,
            }
        )
        for rep in cluster.replicas
    ]
    return [replicas, cluster.active_indices()]


@settings(max_examples=150, deadline=None)
@given(
    n_replicas=st.integers(2, 4),
    tiered=st.booleans(),
    masked=st.booleans(),
    new_users=st.integers(0, 3),
    new_items=st.integers(0, 6),
    warm=st.lists(st.integers(0, N_USERS - 1), max_size=8),
    write=st.sampled_from(["none", "fold_in", "grow_items"]),
    seed=st.integers(0, 2**16),
)
def test_swap_snapshot_equals_the_planned_swap_fired_in_time_order(n_replicas, tiered, masked, new_users, new_items, warm, write, seed):
    rng = np.random.default_rng(seed)
    x, theta = rng.standard_normal((N_USERS, F)), rng.standard_normal((N_ITEMS, F))
    now, planned = _cluster(tiered, n_replicas, x, theta), _cluster(tiered, n_replicas, x, theta)
    for cluster in (now, planned):  # the same history on both sides: traffic on every replica and a fold-in
        for rep in cluster.replicas:
            rep.recommend_batch(np.array(warm or [0]), k=K)
        cluster.fold_in(np.array([1, 3]), np.array([4.0, 2.0]))
    assert _state(now) == _state(planned)

    new_x = rng.standard_normal((N_USERS + 1 + new_users, F))
    new_theta = rng.standard_normal((N_ITEMS + new_items, F))
    events = planned.plan_swap(new_x, new_theta, lam=0.2, weighted=False, version="v1", start_s=0.0, step_s=1.0)
    assert len(events) == 2 * n_replicas
    grown = rng.standard_normal((3, F))
    for cluster in (now, planned):  # a write after the plan was built, before its first swap
        if write == "fold_in":
            assert cluster.fold_in(np.array([0, 2]), np.array([5.0, 1.0])) == N_USERS + 1
        elif write == "grow_items":
            assert cluster.grow_items(grown) == N_ITEMS
    before = _state(now)
    refused = now.n_users > new_x.shape[0] or now.n_items > new_theta.shape[0]

    outcomes = []
    try:
        now.swap_snapshot(new_x, new_theta, lam=0.2, weighted=False, version="v1")
    except ShrinkingSnapshotError as exc:
        outcomes.append(str(exc))
    for event in sorted(events, key=lambda event: event.time):
        try:
            event.action()
        except ShrinkingSnapshotError as exc:  # a replay stops here: the error propagates out of it
            outcomes.append(str(exc))
            break
    assert len(outcomes) == 2 * refused and len(set(outcomes)) <= 1
    assert _state(now) == _state(planned)
    if refused:  # nothing installed, nothing dropped, every replica back in rotation
        assert _state(now) == before
        assert all(cluster.active_indices() == list(range(n_replicas)) for cluster in (now, planned))
        return
    users = np.arange(new_x.shape[0])
    exclude = CSRMatrix.from_dense((rng.random((users.size, new_theta.shape[0])) < 0.2).astype(np.float64)) if masked else None
    answers = []
    for cluster in (now, planned):
        assert [rep.version for rep in cluster.replicas] == ["v1"] * n_replicas
        assert cluster.active_indices() == list(range(n_replicas))
        assert len({id(rep._model) for rep in cluster.replicas}) == 1
        for rep in cluster.replicas:
            topk = rep.recommend_batch(users, k=K, exclude=exclude)
            answers.append((topk.ids.tobytes(), topk.scores.tobytes(), topk.valid.tobytes()))
            if tiered:
                assert rep.cache_stats.stale_hits == 0
    assert len(set(answers)) == 1
    assert _state(now) == _state(planned)


@pytest.mark.parametrize("tiered", [False, True])
def test_a_fold_in_after_planning_is_refused_by_the_first_swap_not_dropped(tiered):
    """3 replicas of a 20-user store: plan the swap, fold a user in (id 20), replay with the events."""
    rng = np.random.default_rng(11)
    x, theta = rng.standard_normal((20, F)), rng.standard_normal((N_ITEMS, F))
    cluster = _cluster(tiered, 3, x, theta)
    trace = QueryTrace.poisson(300, 100_000.0, 20, seed=1)
    events = cluster.plan_swap(x + 1.0, theta, version="v1", start_s=0.25 * trace.duration, step_s=0.2 * trace.duration)
    assert cluster.fold_in(np.array([1, 3]), np.array([4.0, 2.0])) == 20
    with pytest.raises(ShrinkingSnapshotError, match="the snapshot serves 20 users but the backend serves 21"):
        RequestSimulator(cluster, k=K).run(trace, events)
    assert [rep.n_users for rep in cluster.replicas] == [21, 21, 21]
    assert [rep.version for rep in cluster.replicas] == ["", "", ""] and cluster.active_indices() == [0, 1, 2]
    assert cluster.fold_in(np.array([2]), np.array([3.0])) == 21


@pytest.mark.parametrize("planned", [False, True])
def test_replicas_of_one_shard_count_share_the_swapped_model(planned):
    rng = np.random.default_rng(3)
    x, theta = rng.standard_normal((N_USERS, F)), rng.standard_normal((N_ITEMS, F))
    cluster = ServingCluster([FactorStore(x, theta, n_shards=n) for n in (2, 3, 2, 3)])
    if planned:
        for event in cluster.plan_swap(x + 1.0, theta, version="v1", start_s=0.0, step_s=1.0):
            event.action()
    else:
        cluster.swap_snapshot(x + 1.0, theta, version="v1")
    r0, r1, r2, r3 = cluster.replicas
    assert r0._model is r2._model and r1._model is r3._model and r0._model is not r1._model
    assert r1._model.n_shards == 3 and r1.x is r0.x


# ---------------------------------------------------------------------- #
# one load per target
# ---------------------------------------------------------------------- #
@pytest.fixture()
def counted_loads(monkeypatch):
    """The versions every ``SnapshotRegistry.load`` call asked for, in call order."""
    calls: list = []
    load = SnapshotRegistry.load

    def counted(self, version=None):
        calls.append(version)
        return load(self, version)

    monkeypatch.setattr(SnapshotRegistry, "load", counted)
    return calls


def test_a_rollout_loads_its_target_once(counted_loads, tmp_path):
    rng = np.random.default_rng(7)
    x, theta = rng.random((N_USERS, F)), rng.random((N_ITEMS, F))
    registry = SnapshotRegistry(str(tmp_path))
    registry.publish(x, theta, tag="v0")
    v1 = registry.publish(x + 1.0, theta, tag="v1")
    service = RecommenderService(_cluster(False, 3, x, theta), registry=registry)

    counted_loads.clear()
    service.plan_rollout(v1, start_s=0.0, step_s=1.0)
    assert counted_loads == [v1]

    counted_loads.clear()
    service.rollout(v1)
    assert counted_loads == [v1]

    counted_loads.clear()
    events = service.plan_rollback(0, start_s=0.0, step_s=1.0)
    head = registry.latest_version()
    assert counted_loads == [0, 0, head]
    for event in events:
        event.action()
    assert service.versions() == [f"v{head}"] * 3
