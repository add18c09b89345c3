"""Unified serving API: backend contract, envelopes, rollback, compaction.

The heart of this file is the parametrized backend suite: every test
that takes the ``backend`` / ``service`` fixture runs against *both* a
lone :class:`FactorStore` served as a 1-replica :class:`ServingCluster`
and a 2-replica cluster, pinning one contract — identical envelope
fields, identical error messages, identical drain/rollout semantics —
whatever the replica count.
"""

import re

import numpy as np
import pytest

from repro.core import ALSConfig, CuMF
from repro.datasets import NETFLIX, generate_ratings
from repro.serving import (
    FactorStore,
    InteractionLog,
    PredictRequest,
    QueryTrace,
    RateRequest,
    RecommenderService,
    RecommendRequest,
    RequestSimulator,
    ServeResponse,
    ServingCluster,
    ServingConfig,
    SnapshotRegistry,
    refresh_factors,
)

F = 8
LAM = 0.05


@pytest.fixture(scope="module")
def data():
    spec = NETFLIX.scaled(max_rows=500, f=F)
    return generate_ratings(spec, seed=0, noise_sigma=0.3)


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
def backend(request, fitted):
    return _build_backend(request.param, fitted)


@pytest.fixture
def service(backend, data):
    return RecommenderService(backend, log=InteractionLog(), ratings=data.train)


# ---------------------------------------------------------------------- #
# backend contract
# ---------------------------------------------------------------------- #
def test_of_returns_clusters_and_wraps_stores_without_copying(fitted):
    cluster = _build_backend("cluster", fitted)
    assert ServingCluster.of(cluster) is cluster
    store = FactorStore.from_result(fitted.result, n_shards=2)
    wrapped = ServingCluster.of(store)
    assert wrapped.replicas == [store] and wrapped.replicas[0] is store
    RecommenderService(wrapped).recommend(np.array([0, 1, 2]), k=3, exclude=None)
    assert store.stats.queries == 3  # the caller's store served the routed call
    for other in (None, "store", [store], fitted.result):
        with pytest.raises(TypeError, match="expected a FactorStore or ServingCluster"):
            ServingCluster.of(other)


class TestBackendContract:
    def test_units_and_rotation(self, backend):
        units = backend.serving_units()
        assert len(units) >= 1
        assert backend.active_indices() == list(range(len(units)))
        assert all(isinstance(unit, FactorStore) for unit in units)

    def test_route_stays_in_range(self, backend):
        service = RecommenderService(backend)
        for _ in range(5):
            assert service.recommend(0, k=3).replica in backend.active_indices()

    def test_drain_last_active_refused_identically(self, backend):
        """Both backends refuse to empty the rotation with one message."""
        active = backend.active_indices()
        for unit in active[:-1]:
            backend.drain(unit)
        with pytest.raises(RuntimeError, match="cannot drain the last active replica"):
            backend.drain(active[-1])
        for unit in active[:-1]:
            backend.restore(unit)

    def test_restore_without_drain_refused(self, backend):
        with pytest.raises(ValueError, match="not draining"):
            backend.restore(0)

    def test_stats_dict_shape(self, backend):
        stats = backend.stats_dict()
        for key in ("n_replicas", "n_active", "router", "versions"):
            assert key in stats
        assert stats["n_replicas"] == len(backend.serving_units())

    def test_swap_snapshot_everywhere(self, backend):
        rng = np.random.default_rng(5)
        x = rng.random((backend.n_users, F))
        theta = rng.random((backend.n_items, F))
        backend.swap_snapshot(x, theta, version="vNext")
        for unit in backend.serving_units():
            assert unit.version == "vNext"
            np.testing.assert_array_equal(unit.x, x)
        # Rotation is fully restored after the rolling swap.
        assert backend.active_indices() == list(range(len(backend.serving_units())))

    def test_simulator_drives_any_backend(self, backend, data):
        trace = QueryTrace.poisson(200, 5_000.0, backend.n_users, seed=3)
        sim = RequestSimulator(backend, k=5, exclude=data.train, max_batch=64, window_s=0.0)
        report = sim.run(trace)
        assert report.n_requests == 200 and report.n_dropped == 0
        assert report.n_replicas == len(backend.serving_units())
        assert report.router == backend.router.name == "least-loaded"

    def test_rollout_drives_any_backend(self, backend, fitted, tmp_path):
        registry = SnapshotRegistry(str(tmp_path))
        registry.publish(fitted.result.x, fitted.result.theta, lam=LAM, tag="v0")
        snap = RecommenderService(backend, registry=registry).rollout(0)
        assert snap.version == 0
        assert all(unit.version == "v0" for unit in backend.serving_units())


# ---------------------------------------------------------------------- #
# envelope semantics, identical on every backend
# ---------------------------------------------------------------------- #
class TestEnvelopes:
    def test_recommend_envelope_fields(self, service):
        response = service.recommend(np.array([0, 1, 2]), k=5)
        assert isinstance(response, ServeResponse)
        assert response.ok and response.status == "ok" and response.kind == "recommend"
        assert len(response.payload) == 3 and len(response.payload[0]) == 5
        assert response.latency_s > 0.0
        assert response.replica in service.backend.active_indices()
        assert response.raise_for_status() is response

    def test_recommend_request_object_and_scalar_user(self, service):
        response = service.recommend(RecommendRequest(users=0, k=3))
        assert response.ok and len(response.payload) == 1 and len(response.payload[0]) == 3

    def test_recommend_excludes_seen_items_by_default(self, service, data):
        seen = set(data.train.row(0)[0].tolist())
        served = {item for item, _ in service.recommend(0, k=5).payload[0]}
        assert not served & seen
        unmasked = service.recommend(RecommendRequest(users=0, k=5, exclude=None))
        assert len(unmasked.payload[0]) == 5  # explicit None disables masking

    def test_predict_envelope(self, service):
        response = service.predict(PredictRequest(np.array([0, 1]), np.array([2, 3])))
        assert response.ok and response.kind == "predict"
        expected = service.backend.replicas[response.replica].predict(np.array([0, 1]), np.array([2, 3]))
        np.testing.assert_allclose(response.payload, expected)

    def test_rate_records_into_log(self, service):
        response = service.rate(RateRequest(1, np.array([2, 3]), np.array([4.0, 5.0])))
        assert response.ok and response.payload == 2 and response.replica == -1
        assert service.log.n_events == 2

    def test_rate_allows_brand_new_items(self, service):
        new_item = service.n_items + 7
        response = service.rate(0, np.array([new_item]), np.array([5.0]))
        assert response.ok and service.log.max_item() == new_item

    def test_rate_rejects_unknown_user(self, service):
        response = service.rate(service.n_users + 1, np.array([0]), np.array([3.0]))
        assert not response.ok and "fold_in" in response.error
        with pytest.raises(ValueError):
            response.raise_for_status()

    def test_bad_user_is_error_envelope_same_message(self, service):
        response = service.recommend(np.array([service.n_users + 5]), k=3)
        assert not response.ok and response.error_type == "ValueError"
        assert response.error == (
            f"user index out of range: store serves users [0, {service.n_users})"
        )
        assert response.payload is None

    def test_k_zero_is_error_envelope_same_message(self, service):
        response = service.recommend(np.array([0]), k=0)
        assert not response.ok and response.error == "k must be >= 1"

    def test_error_counters(self, service):
        service.recommend(np.array([0]), k=0)
        service.recommend(np.array([0]), k=2)
        stats = service.stats()
        assert stats["request_errors"] == 1 and stats["requests"]["recommend"] == 1

    def test_fold_in_then_serve_newcomer(self, service):
        rng = np.random.default_rng(9)
        items = rng.choice(service.n_items, size=6, replace=False)
        user = service.fold_in(items, rng.uniform(3.0, 5.0, size=6))
        assert user == service.n_users - 1
        assert service.log.n_events == 6  # recorded exactly once, any backend
        response = service.recommend(user, k=4, exclude=None)
        assert response.ok and len(response.payload[0]) == 4


# ---------------------------------------------------------------------- #
# k <= 0 regression: identical ValueError on every backend, through the facade
# ---------------------------------------------------------------------- #
class TestTopKValidation:
    #: Hostile top-k arguments that must be a ValueError, never an empty or internal-error answer.
    HOSTILE = [
        ({"k": 2.5}, r"^k must be an integer, got 2\.5$"),
        ({"k": True}, r"^k must be an integer, got True$"),
        ({"k": 3, "user_block": 0}, r"^user_block must be an integer >= 1, got 0$"),
        ({"k": 3, "user_block": -1}, r"^user_block must be an integer >= 1, got -1$"),
    ]

    @pytest.mark.parametrize("k", [0, -3])
    def test_backend_recommend_batch(self, backend, k):
        response = RecommenderService(backend).recommend(np.array([0]), k=k)
        assert (response.status, response.error_type, response.error) == ("error", "ValueError", "k must be >= 1")

    @pytest.mark.parametrize("k", [0, -3])
    def test_backend_recommend(self, backend, k):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            RecommenderService(backend).recommend(0, k=k).raise_for_status()

    @pytest.mark.parametrize("kwargs, message", HOSTILE)
    def test_hostile_arguments_rejected_before_any_charge(self, backend, kwargs, message):
        units = backend.serving_units()
        before = [unit.stats.simulated_seconds for unit in units]
        response = RecommenderService(backend).recommend(np.array([0, 1]), **kwargs)
        assert response.error_type == "ValueError" and re.match(message, response.error)
        assert [unit.stats.simulated_seconds for unit in units] == before

    @pytest.mark.parametrize("kwargs, message", HOSTILE + [({"k": 0}, r"^k must be >= 1$")])
    def test_hostile_arguments_take_no_routing_slot(self, fitted, data, kwargs, message):
        store = FactorStore.from_result(fitted.result, n_shards=2)
        service = RecommenderService(ServingCluster.from_store(store, n_replicas=2, router="round-robin"), ratings=data.train)
        response = service.recommend(np.array([0]), **kwargs)
        assert (response.status, response.error_type, response.payload, response.replica) == ("error", "ValueError", None, -1)
        assert re.match(message, response.error)
        assert service.recommend(np.array([0]), k=3).replica == 0
        assert [unit.stats.simulated_seconds > 0 for unit in service.backend.serving_units()] == [True, False]

    def test_cluster_rejects_before_routing(self, fitted):
        service = RecommenderService(_build_backend("cluster", fitted))
        assert service.recommend(np.array([0]), k=0).error == "k must be >= 1"
        # The rejected request charged no replica: every clock is still at zero.
        assert all(unit.stats.simulated_seconds == 0.0 for unit in service.backend.serving_units())


# ---------------------------------------------------------------------- #
# CuMF.serve construction
# ---------------------------------------------------------------------- #
class TestServeConstruction:
    def test_single_replica_builds_store(self, fitted, data):
        service = fitted.serve(ServingConfig(n_shards=2, ratings=data.train))
        assert isinstance(service.backend, ServingCluster) and service.backend.n_replicas == 1
        assert type(service.backend.replicas[0]) is FactorStore
        assert service.backend.replicas[0].n_shards == 2
        assert isinstance(service.log, InteractionLog)
        assert service.backend.log is service.log

    def test_single_replica_stats_have_the_cluster_shape(self, fitted):
        service = fitted.serve(ServingConfig(n_shards=2, log=False))
        service.recommend(np.array([0, 1, 2]), k=3).raise_for_status()
        stats = service.stats()
        assert (stats["router"], stats["n_replicas"], stats["n_active"]) == ("least-loaded", 1, 1)
        assert stats["queries"] == 3 and len(stats["per_replica"]) == 1
        assert stats["per_replica"][0] == service.backend.replicas[0].stats.as_dict()
        assert "cache" not in stats

    def test_replicated_builds_cluster(self, fitted):
        service = fitted.serve(ServingConfig(replicas=3, router="round-robin"))
        assert isinstance(service.backend, ServingCluster)
        assert service.backend.n_replicas == 3
        assert service.backend.router.name == "round-robin"
        assert service.backend.log is service.log

    def test_overrides_patch_config(self, fitted):
        service = fitted.serve(ServingConfig(replicas=2), replicas=1, log=False)
        assert service.backend.n_replicas == 1
        assert type(service.backend.replicas[0]) is FactorStore
        assert service.log is None

    def test_registry_dir_publishes_and_stamps(self, fitted, tmp_path):
        service = fitted.serve(ServingConfig(replicas=2, registry_dir=str(tmp_path)))
        assert service.registry is not None
        assert service.registry.versions() == [0]
        assert service.versions() == ["v0", "v0"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            ServingConfig(replicas=0)
        with pytest.raises(ValueError, match="n_shards"):
            ServingConfig(n_shards=0)
        with pytest.raises(ValueError, match="registry_keep needs"):
            ServingConfig(registry_keep=2)
        with pytest.raises(ValueError, match="unknown router"):
            ServingConfig(router="no-such-policy")

    def test_rate_without_log_is_error_envelope(self, fitted):
        service = fitted.serve(ServingConfig(log=False))
        response = service.rate(0, np.array([1]), np.array([3.0]))
        assert not response.ok and "no interaction log" in response.error


# ---------------------------------------------------------------------- #
# refresh / rollout / rollback through the service
# ---------------------------------------------------------------------- #
class TestServiceLifecycle:
    def _service(self, fitted, data, tmp_path, replicas=2):
        return fitted.serve(
            ServingConfig(
                replicas=replicas, n_shards=2, registry_dir=str(tmp_path), ratings=data.train
            )
        )

    def test_refresh_publishes_and_rollout_applies(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path)
        rng = np.random.default_rng(3)
        for user in rng.choice(service.n_users, size=10, replace=False):
            items = rng.choice(service.n_items, size=3, replace=False)
            service.rate(int(user), items, rng.uniform(1.0, 5.0, size=3)).raise_for_status()
        refreshed = service.refresh()
        assert service.log.n_events == 0  # consumed
        assert service.ratings is data.train  # merged matrix not live yet
        assert service.registry.versions() == [0, 1]
        assert service.versions() == ["v0", "v0"]  # not applied yet
        snap = service.rollout()
        assert snap.version == 1 and service.versions() == ["v1", "v1"]
        assert service.ratings is refreshed.ratings  # adopted at deployment
        np.testing.assert_allclose(service.backend.serving_units()[0].x, refreshed.x)

    def test_refresh_without_registry_swaps_immediately(self, fitted, data):
        service = fitted.serve(ServingConfig(replicas=2, ratings=data.train))
        service.rate(0, np.array([1, 2]), np.array([5.0, 4.0])).raise_for_status()
        refreshed = service.refresh()
        for unit in service.backend.serving_units():
            np.testing.assert_allclose(unit.x, refreshed.x)

    def test_registry_rollback_republishes_monotonically(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path)
        service.rate(0, np.array([1]), np.array([5.0]))
        service.refresh()
        registry = service.registry
        v0 = registry.load(0)
        new_version = registry.rollback(0)
        assert new_version == 2 and registry.versions() == [0, 1, 2]
        head = registry.load(new_version)
        np.testing.assert_array_equal(head.x, v0.x)
        np.testing.assert_array_equal(head.theta, v0.theta)
        assert head.tag == "rollback-of-v0"

    def test_registry_rollback_validation(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path)
        with pytest.raises(ValueError, match="no version 7"):
            service.registry.rollback(7)
        with pytest.raises(ValueError, match="already the latest"):
            service.registry.rollback(0)

    def test_service_rollback_applies_old_factors(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path)
        service.rate(0, np.array([1]), np.array([5.0]))
        service.refresh()
        service.rollout()
        assert service.versions() == ["v1", "v1"]
        snap = service.rollback(0)
        assert snap.version == 2  # v0's factors under the new head number
        assert service.versions() == ["v2", "v2"]
        v0 = service.registry.load(0)
        for unit in service.backend.serving_units():
            np.testing.assert_array_equal(unit.x, v0.x)

    def test_rollback_under_traffic_drops_zero_queries(self, fitted, data, tmp_path):
        """The acceptance pin: a v1 -> v0 rolling rollback loses nothing."""
        service = self._service(fitted, data, tmp_path, replicas=3)
        service.rate(0, np.array([1, 2]), np.array([5.0, 4.0]))
        service.refresh()
        service.rollout()  # live on v1 everywhere
        trace = QueryTrace.poisson(2_000, 50_000.0, service.n_users, seed=11)
        events = service.plan_rollback(
            0, start_s=0.25 * trace.duration, step_s=0.2 * trace.duration
        )
        report = service.simulate(trace, events, k=5, max_batch=128, window_s=0.0)
        assert report.n_dropped == 0
        assert report.n_requests == 2_000
        # Both the old head and the rolled-back version answered queries.
        assert set(report.per_version_queries) == {"v1", "v2"}
        assert all(unit.version == "v2" for unit in service.backend.serving_units())

    def test_refresh_keeps_old_exclusion_until_rollout(self, fitted, data, tmp_path):
        """A new-item refresh must not break the data plane pre-deployment."""
        service = self._service(fitted, data, tmp_path)
        new_item = service.n_items  # brand-new item enters via the log
        service.rate(0, np.array([new_item]), np.array([5.0])).raise_for_status()
        refreshed = service.refresh()
        assert refreshed.n_new_items == 1
        # Backend still serves the old item axis; the old exclusion matches.
        response = service.recommend(np.array([0, 1]), k=3)
        assert response.ok, response.error
        service.rollout()
        assert service.ratings is refreshed.ratings
        assert service.recommend(np.array([0, 1]), k=3).ok

    def test_refresh_adoption_through_planned_rollout(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path, replicas=3)
        service.rate(0, np.array([service.n_items]), np.array([5.0]))
        refreshed = service.refresh()
        trace = QueryTrace.poisson(800, 50_000.0, service.n_users, seed=2)
        events = service.plan_rollout(
            1, start_s=0.25 * trace.duration, step_s=0.2 * trace.duration
        )
        assert events[-1].label == "adopt ratings for v1"
        report = service.simulate(trace, events, k=3, max_batch=64, window_s=0.0, exclude=None)
        assert report.n_dropped == 0
        assert service.ratings is refreshed.ratings  # adopted by the final event

    def test_refresh_preserves_log_when_publish_fails(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path)
        service.rate(0, np.array([1, 2]), np.array([5.0, 4.0]))

        def broken_publish(*args, **kwargs):
            raise OSError("registry directory unwritable")

        service.registry.publish = broken_publish
        with pytest.raises(OSError, match="unwritable"):
            service.refresh()
        # Nothing was consumed or replaced: the refresh can be retried.
        assert service.log.n_events == 2
        assert service.ratings is data.train

    def test_refused_rollback_leaves_registry_untouched(self, fitted, data, tmp_path):
        """A rollback target with smaller axes is refused before publishing."""
        service = self._service(fitted, data, tmp_path)
        rng = np.random.default_rng(8)
        items = rng.choice(service.n_items, size=4, replace=False)
        service.fold_in(items, rng.uniform(3.0, 5.0, size=4))  # grow the user axis
        service.refresh()
        service.rollout()
        assert service.registry.versions() == [0, 1]
        with pytest.raises(ValueError, match="serves .* users"):
            service.rollback(0)  # v0 lacks the fold-in row
        with pytest.raises(ValueError, match="serves .* users"):
            service.plan_rollback(0, start_s=0.0, step_s=1.0)
        # No orphaned head was published; the default rollout still works.
        assert service.registry.versions() == [0, 1]
        assert service.rollout().version == 1

    def test_plan_rollback_refused_on_single_unit_before_publish(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path, replicas=1)
        service.rate(0, np.array([1]), np.array([5.0]))
        service.refresh()
        service.rollout()
        with pytest.raises(ValueError, match="at least 2 replicas"):
            service.plan_rollback(0, start_s=0.0, step_s=1.0)
        assert service.registry.versions() == [0, 1]  # nothing published

    def test_rollout_swaps_a_drained_replica_in_place(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path, replicas=3)
        service.rate(0, np.array([1]), np.array([5.0]))
        service.refresh()
        service.drain(1)
        assert service.rollout().version == 1
        assert service.versions() == ["v1", "v1", "v1"]
        assert service.backend.active_indices() == [0, 2]  # rotation unchanged

    def test_plan_rollout_refused_while_a_replica_drains(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path, replicas=3)
        service.rate(0, np.array([1]), np.array([5.0]))
        service.refresh()
        service.drain(1)
        with pytest.raises(ValueError, match=r"replicas \[1\] are draining"):
            service.plan_rollout(start_s=0.0, step_s=1.0)
        assert service.versions() == ["v0", "v0", "v0"]
        service.restore(1)
        assert len(service.plan_rollout(start_s=0.0, step_s=1.0)) == 7  # 3 drain + 3 swap + adopt

    def test_facade_bad_k_consumes_no_routing_slot(self, fitted, data):
        service = fitted.serve(
            ServingConfig(replicas=2, router="round-robin", ratings=data.train)
        )
        assert not service.recommend(np.array([0]), k=0).ok
        first = service.recommend(np.array([0]), k=2)
        second = service.recommend(np.array([1]), k=2)
        assert (first.replica, second.replica) == (0, 1)  # rotation undisturbed

    def test_admin_verbs_require_registry(self, fitted, data):
        service = fitted.serve(ServingConfig(ratings=data.train))
        with pytest.raises(RuntimeError, match="no snapshot registry"):
            service.rollout()
        with pytest.raises(RuntimeError, match="no snapshot registry"):
            service.rollback(0)
        with pytest.raises(RuntimeError, match="no snapshot registry"):
            service.snapshot()

    def test_snapshot_publishes_live_factors(self, fitted, data, tmp_path):
        service = self._service(fitted, data, tmp_path)
        rng = np.random.default_rng(4)
        items = rng.choice(service.n_items, size=5, replace=False)
        service.fold_in(items, rng.uniform(3.0, 5.0, size=5))
        version = service.snapshot(tag="with-foldin")
        snap = service.registry.load(version)
        assert snap.x.shape[0] == service.n_users  # fold-in row published


# ---------------------------------------------------------------------- #
# InteractionLog.compact: bounded events, unchanged refresh
# ---------------------------------------------------------------------- #
class TestLogCompaction:
    def _filled_log(self, n_users, n_items, seed=21):
        rng = np.random.default_rng(seed)
        log = InteractionLog()
        for user in rng.integers(0, n_users + 5, size=40):  # incl. fold-in ids
            items = rng.choice(n_items + 2, size=3, replace=False)
            log.record(int(user), items, rng.uniform(1.0, 5.0, size=3))
        return log

    def test_compact_bounds_event_list(self):
        log = self._filled_log(50, 30)
        total = log.n_events
        folded = log.compact(max_events=30)
        assert folded == total - 30
        assert log.n_events == 30 and log.n_compacted == folded
        assert len(log) == 30

    def test_compact_noop_below_threshold(self):
        log = self._filled_log(50, 30)
        assert log.compact(max_events=10_000) == 0
        assert log.n_compacted == 0

    def test_compact_preserves_totals_and_views(self):
        log = self._filled_log(50, 30)
        before = log.to_csr().to_dense()
        users_before = log.affected_users()
        max_before = (log.max_user(), log.max_item())
        log.compact(max_events=12)
        after = log.to_csr().to_dense()
        np.testing.assert_allclose(after, before, atol=1e-12)
        np.testing.assert_array_equal(log.affected_users(), users_before)
        assert (log.max_user(), log.max_item()) == max_before

    def test_repeated_compaction_accumulates(self):
        log = self._filled_log(50, 30)
        dense = log.to_csr().to_dense()
        log.compact(max_events=60)
        for user in range(3):
            log.record(user, np.array([1, 2]), np.array([3.0, 4.0]))
            dense[user, 1] += 3.0
            dense[user, 2] += 4.0
        log.compact(max_events=2)
        assert log.n_events == 2
        np.testing.assert_allclose(log.to_csr().to_dense(), dense, atol=1e-12)

    def test_compact_to_zero_events(self):
        log = self._filled_log(50, 30)
        dense = log.to_csr().to_dense()
        log.compact(max_events=0)
        assert log.n_events == 0 and len(log) == 0
        np.testing.assert_allclose(log.to_csr().to_dense(), dense, atol=1e-12)

    def test_refresh_unchanged_by_compaction(self, fitted, data):
        """The acceptance pin: compacted-log refresh == raw-log refresh to 1e-8."""
        n_users, n_items = data.train.shape
        raw = self._filled_log(n_users, n_items, seed=33)
        compacted = self._filled_log(n_users, n_items, seed=33)
        compacted.compact(max_events=15)
        x, theta = fitted.result.x, fitted.result.theta
        ref_raw = refresh_factors(x, theta, data.train, raw, LAM)
        ref_compact = refresh_factors(x, theta, data.train, compacted, LAM)
        np.testing.assert_allclose(ref_compact.x, ref_raw.x, atol=1e-8)
        np.testing.assert_allclose(ref_compact.theta, ref_raw.theta, atol=1e-8)
        np.testing.assert_array_equal(ref_compact.affected_users, ref_raw.affected_users)

    def test_compact_validation_and_clear(self):
        log = self._filled_log(50, 30)
        with pytest.raises(ValueError, match="non-negative"):
            log.compact(max_events=-1)
        log.compact(max_events=5)
        log.clear()
        assert log.n_events == 0 and log.n_compacted == 0
        assert log.to_csr(n_users=5, n_items=5).nnz == 0
