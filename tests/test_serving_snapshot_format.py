"""One snapshot format: a registry version carries the fold-in state, and every way back from it restores it.

A served model is persisted only as a :class:`SnapshotRegistry` version.
A model with folded-in users publishes their rows together with the
trained-user count and each folded user's items, so a store built from
the version (:meth:`SnapshotRegistry.build_store`) and a cluster rolled
out to it (:meth:`RecommenderService.rollout`) keep masking a trained
user with its row of the training matrix and a folded user with its own
items.  Without the fold-in state the folded rows would turn into
trained rows, and every ``recommend`` with the training matrix as its
exclude would be refused for having fewer rows than the store has users.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALSConfig, CuMF
from repro.datasets import DatasetSpec, generate_ratings
from repro.serving import CacheConfig, FactorStore, QueryTrace, RecommenderService, ServingCluster, ServingConfig, SnapshotRegistry, TieredFactorStore
from repro.sparse.csr import CSRMatrix

_CACHE = CacheConfig(hot_fraction=0.3, page_items=8, plan_window_s=2e-5)


@pytest.fixture(scope="module")
def fitted():
    data = generate_ratings(DatasetSpec("snap", 60, 80, 1_200, 6, 0.05, kind="synthetic"), seed=0)
    model = CuMF(ALSConfig(f=6, lam=0.05, iterations=2, seed=0), backend="base")
    model.fit(data.train)
    return model, data.train


def _bits(topk) -> tuple:
    return topk.ids.tolist(), topk.scores.view(np.int32).tolist()


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "tiered"])
@pytest.mark.parametrize(
    "replicas, deploy",
    [(1, "rollout"), (1, "rollback"), (3, "rollout"), (3, "plan_rollout"), (3, "rollback")],
)
def test_a_version_with_a_fold_in_deploys_servable(fitted, tmp_path, replicas, deploy, cached):
    """fold_in → snapshot → deploy the version: the default exclude still serves the trained and the folded user, unchanged."""
    model, train = fitted
    service = model.serve(ServingConfig(replicas=replicas, n_shards=2, registry_dir=str(tmp_path), ratings=train, cache=_CACHE if cached else None))
    folded = service.fold_in(np.array([3, 17, 41]), np.array([5.0, 2.0, 4.0]))
    assert folded == train.shape[0]

    def answers() -> list:
        responses = [service.recommend(user, k=10) for user in (0, folded)]
        assert [response.status for response in responses] == ["ok", "ok"], [response.error for response in responses]
        return [_bits(response.payload) for response in responses]

    before = answers()
    version = service.snapshot()
    if deploy == "rollout":
        service.rollout(version)
    elif deploy == "plan_rollout":
        trace = QueryTrace.poisson(400, 200_000.0, service.n_users, seed=1)
        events = service.plan_rollout(version, start_s=0.25 * trace.duration, step_s=0.2 * trace.duration)
        service.simulate(trace, events, k=10)
    else:
        service.snapshot(tag="newer head")
        service.rollback(version)
    assert service.versions() == [service.registry.load().label] * replicas
    assert answers() == before
    for rep in service.backend.replicas:
        assert rep._n_trained_users == train.shape[0] and rep._folded_items[folded].tolist() == [3, 17, 41]


def _store(cls, x, theta, n_shards, lam, weighted) -> FactorStore:
    cache = {"cache": _CACHE} if cls is TieredFactorStore else {}
    return cls(x, theta, lam=lam, weighted=weighted, n_shards=n_shards, **cache)


@settings(max_examples=40, deadline=None)
@given(
    tiered=st.booleans(),
    n_shards=st.integers(1, 3),
    n_trained=st.integers(2, 12),
    n_items=st.integers(3, 30),
    f=st.integers(1, 4),
    lam=st.sampled_from([0.05, 0.5]),
    weighted=st.booleans(),
    fold_ins=st.lists(st.integers(0, 5), max_size=4),  # the number of items each folded user rates (0: ratings-less)
    n_replicas=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_publish_then_build_reproduces_the_store(tiered, n_shards, n_trained, n_items, f, lam, weighted, fold_ins, n_replicas, seed):
    """publish_store → build_store reproduces factors, fold-in state and every answer; so does a rollout to the version."""
    rng = np.random.default_rng(seed)
    cls = TieredFactorStore if tiered else FactorStore
    n_shards = min(n_shards, n_items)
    x, theta = rng.standard_normal((n_trained, f)), rng.standard_normal((n_items, f))
    store = _store(cls, x, theta, n_shards, lam, weighted)
    for count in fold_ins:
        items = rng.choice(n_items, size=min(count, n_items), replace=False)
        store.fold_in(items, rng.uniform(1.0, 5.0, items.size))
    nnz = int(rng.integers(0, 4 * n_trained))
    train = CSRMatrix.from_arrays((n_trained, n_items), rng.integers(0, n_trained, nnz), rng.integers(0, n_items, nnz), np.ones(nnz))
    users, k = np.arange(store.n_users), int(rng.integers(1, n_items + 2))
    want = {id(exclude): _bits(store.recommend_batch(users, k=k, exclude=exclude)) for exclude in (None, train)}

    with tempfile.TemporaryDirectory() as directory:
        registry = SnapshotRegistry(directory)
        version = registry.publish_store(store)
        built = registry.build_store(version, store_cls=cls, n_shards=n_shards, **({"cache": _CACHE} if tiered else {}))
        service = RecommenderService(ServingCluster.from_store(_store(cls, x, theta, n_shards, 0.05, True), n_replicas), registry=registry)
        service.rollout(version)

    for served in (built, *service.backend.replicas):
        assert type(served) is cls and served.version == f"v{version}"
        assert served.x.tobytes() == store.x.tobytes() and served.x.shape == store.x.shape
        assert served.theta.tobytes() == store.theta.tobytes() and served.theta.shape == store.theta.shape
        assert (served.lam, served.weighted, served._n_trained_users) == (store.lam, store.weighted, store._n_trained_users)
        assert served._folded_items.keys() == store._folded_items.keys()
        for user, items in store._folded_items.items():
            assert served._folded_items[user].dtype == items.dtype and served._folded_items[user].tolist() == items.tolist()
        for exclude in (None, train):
            assert _bits(served.recommend_batch(users, k=k, exclude=exclude)) == want[id(exclude)]


def test_a_fold_in_state_that_is_not_the_last_users_is_refused(tmp_path):
    registry = SnapshotRegistry(tmp_path)
    x, theta = np.ones((4, 2)), np.ones((5, 2))
    for folded in ({0: np.array([1])}, {3: np.array([1]), 5: np.array([2])}):
        with pytest.raises(ValueError, match="must map exactly the last users"):
            registry.publish(x, theta, folded_items=folded)
        with pytest.raises(ValueError, match="must map exactly the last users"):
            FactorStore(x, theta).swap_snapshot(x, theta, folded_items=folded)
    assert registry.versions() == []
