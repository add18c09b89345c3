"""Model lifecycle: interaction log, incremental refresh, registry, rollout."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import ALSConfig, CuMF
from repro.core.checkpoint import CheckpointManager
from repro.core.hermitian import update_factor
from repro.serving import (
    FactorStore,
    InteractionLog,
    LifecycleEvent,
    QueryTrace,
    RequestSimulator,
    RolloutController,
    ServingCluster,
    ServingConfig,
    SnapshotRegistry,
    merged_ratings,
    refresh_factors,
)


@pytest.fixture(scope="module")
def fitted(tiny_ratings):
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=3, seed=1, row_batch=128), backend="base")
    model.fit(tiny_ratings.train, tiny_ratings.test)
    return model


@pytest.fixture()
def store(fitted):
    return fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]


def _feedback_log(train, n_new_items: int = 2):
    """A log with existing-user feedback, a new user and new items."""
    n_users, n_items = train.shape
    log = InteractionLog()
    log.record(3, np.array([1, 5, n_items]), np.array([5.0, 2.0, 4.0]))
    log.record(17, np.array([n_items + n_new_items - 1, 2]), np.array([3.5, 1.0]))
    log.record(n_users, np.array([0, 4, 9]), np.array([4.0, 4.5, 2.0]))  # new user
    return log


class TestInteractionLog:
    def test_record_and_views(self):
        log = InteractionLog()
        assert len(log) == 0 and log.max_user() == -1 and log.max_item() == -1
        assert log.record(2, np.array([5, 7]), np.array([1.0, 2.0])) == 2
        assert log.record(9, np.array([7]), np.array([3.0])) == 1
        assert log.n_events == 3
        np.testing.assert_array_equal(log.affected_users(), [2, 9])
        assert log.max_user() == 9 and log.max_item() == 7
        np.testing.assert_array_equal(log.new_user_ids(5), [9])
        np.testing.assert_array_equal(log.new_item_ids(6), [7])
        users, items, ratings = log.arrays()
        assert users.tolist() == [2, 2, 9]
        assert items.tolist() == [5, 7, 7]
        assert ratings.tolist() == [1.0, 2.0, 3.0]

    def test_empty_record_is_a_noop(self):
        log = InteractionLog()
        assert log.record(4, np.empty(0, dtype=np.int64), np.empty(0)) == 0
        assert log.n_events == 0

    def test_to_csr_sums_duplicates_and_widens(self):
        log = InteractionLog()
        log.record(1, np.array([3, 3]), np.array([1.0, 2.0]))
        delta = log.to_csr(n_users=4, n_items=10)
        assert delta.shape == (4, 10)
        assert delta.nnz == 1
        assert delta.row(1)[1][0] == 3.0  # duplicates summed
        with pytest.raises(ValueError, match="cannot fit"):
            log.to_csr(n_users=1)
        with pytest.raises(ValueError, match="cannot fit"):
            log.to_csr(n_items=3)

    def test_validation_matches_fold_in_path(self):
        log = InteractionLog()
        with pytest.raises(ValueError, match="aligned"):
            log.record(0, np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ValueError, match="integer"):
            log.record(0, np.array([1.5]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            log.record(0, np.array([-1]), np.array([1.0]))
        with pytest.raises(ValueError, match="scalar integer"):
            log.record(1.5, np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            log.record(-2, np.array([0]), np.array([1.0]))
        assert log.n_events == 0  # nothing sticks on rejection

    def test_clear(self):
        log = InteractionLog()
        log.record(0, np.array([1]), np.array([1.0]))
        log.clear()
        assert log.n_events == 0 and log.affected_users().size == 0


class TestRefresh:
    def test_affected_rows_match_full_update_pass(self, fitted, tiny_ratings):
        """The acceptance pin: refreshed rows == full retrain rows to 1e-8."""
        result = fitted.result
        log = _feedback_log(tiny_ratings.train)
        res = refresh_factors(result.x, result.theta, tiny_ratings.train, log, fitted.config.lam)
        full_x = update_factor(res.ratings, res.theta, fitted.config.lam)
        np.testing.assert_allclose(
            res.x[res.affected_users], full_x[res.affected_users], rtol=0, atol=1e-8
        )

    def test_untouched_rows_are_untouched(self, fitted, tiny_ratings):
        result = fitted.result
        log = _feedback_log(tiny_ratings.train)
        res = refresh_factors(result.x, result.theta, tiny_ratings.train, log, fitted.config.lam)
        untouched = np.setdiff1d(np.arange(result.x.shape[0]), res.affected_users)
        np.testing.assert_array_equal(res.x[untouched], result.x[untouched])
        np.testing.assert_array_equal(res.theta[: result.theta.shape[0]], result.theta)

    def test_new_item_fold_in_equals_base_als_item_update(self, fitted, tiny_ratings):
        """A folded-in item's θ row IS one Base-ALS item update (to 1e-8).

        Mirror of the user-side fold-in pin: holding X fixed, the new
        item's row solves the same normal equations as the update-Θ pass
        over the merged matrix's transpose.
        """
        result = fitted.result
        n_items = tiny_ratings.train.shape[1]
        log = InteractionLog()
        # only existing users rate the new item, so frozen X == trained X
        log.record(4, np.array([n_items]), np.array([4.0]))
        log.record(29, np.array([n_items, 0]), np.array([2.5, 5.0]))
        res = refresh_factors(result.x, result.theta, tiny_ratings.train, log, fitted.config.lam)
        assert res.new_items.tolist() == [n_items]
        reference = update_factor(res.ratings.transpose(), result.x, fitted.config.lam)
        np.testing.assert_allclose(res.theta[n_items], reference[n_items], rtol=0, atol=1e-8)
        # and the user side solved against the *extended* theta
        full_x = update_factor(res.ratings, res.theta, fitted.config.lam)
        np.testing.assert_allclose(res.x[[4, 29]], full_x[[4, 29]], rtol=0, atol=1e-8)

    def test_grows_axes_and_reports_counts(self, fitted, tiny_ratings):
        result = fitted.result
        m, n = tiny_ratings.train.shape
        log = _feedback_log(tiny_ratings.train, n_new_items=2)
        res = refresh_factors(result.x, result.theta, tiny_ratings.train, log, fitted.config.lam)
        assert res.x.shape == (m + 1, fitted.config.f)
        assert res.theta.shape == (n + 2, fitted.config.f)
        assert res.n_new_users == 1 and res.n_new_items == 2
        assert res.ratings.shape == (m + 1, n + 2)
        assert "re-solved" in res.summary()

    def test_empty_log_is_identity(self, fitted, tiny_ratings):
        result = fitted.result
        res = refresh_factors(result.x, result.theta, tiny_ratings.train, InteractionLog(), 0.05)
        np.testing.assert_array_equal(res.x, result.x)
        np.testing.assert_array_equal(res.theta, result.theta)
        assert res.affected_users.size == 0 and res.new_items.size == 0

    def test_merged_ratings_sums_re_ratings(self, tiny_ratings):
        train = tiny_ratings.train
        items, ratings = train.row(0)
        log = InteractionLog()
        log.record(0, items[:1], np.array([1.0]))
        merged = merged_ratings(train, log)
        assert merged.row(0)[1][0] == ratings[0] + 1.0

    def test_validation(self, fitted, tiny_ratings):
        result = fitted.result
        log = InteractionLog()
        with pytest.raises(ValueError, match="matching f"):
            refresh_factors(result.x, result.theta[:, :4], tiny_ratings.train, log, 0.05)
        with pytest.raises(ValueError, match="rows"):
            refresh_factors(result.x[:5], result.theta, tiny_ratings.train, log, 0.05)
        with pytest.raises(ValueError, match="columns"):
            refresh_factors(result.x, result.theta[:-1], tiny_ratings.train, log, 0.05)
        with pytest.raises(ValueError, match="lam"):
            refresh_factors(result.x, result.theta, tiny_ratings.train, log, -0.1)

    def test_trainer_refresh_facade(self, tiny_ratings):
        model = CuMF(ALSConfig(f=8, lam=0.05, iterations=2, seed=1, row_batch=128), backend="base")
        model.fit(tiny_ratings.train)
        x_before = model.result.x.copy()
        log = _feedback_log(tiny_ratings.train)
        res = model.refresh(tiny_ratings.train, log)
        assert model.result.solver.endswith("+refresh")
        np.testing.assert_array_equal(model.result.x, res.x)
        assert model._store is None  # serving snapshot invalidated
        assert model.result.x.shape[0] == x_before.shape[0] + 1
        # predict now reaches the refreshed (grown) model
        assert model.predict(np.array([x_before.shape[0]]), np.array([0])).shape == (1,)
        with pytest.raises(RuntimeError, match="fit"):
            CuMF().refresh(tiny_ratings.train, log)


class TestSnapshotRegistry:
    def test_publish_load_roundtrip(self, fitted, tmp_path):
        registry = SnapshotRegistry(str(tmp_path))
        assert registry.latest_version() is None
        v0 = registry.publish(fitted.result.x, fitted.result.theta, lam=0.07, tag="seed")
        assert v0 == 0 and registry.versions() == [0]
        snap = registry.load()
        assert (snap.version, snap.lam, snap.tag, snap.label) == (0, 0.07, "seed", "v0")
        np.testing.assert_array_equal(snap.x, fitted.result.x)
        assert os.path.exists(snap.path)

    def test_versions_increase_and_keep_prunes(self, fitted, tmp_path):
        registry = SnapshotRegistry(str(tmp_path), keep=2)
        x, theta = fitted.result.x, fitted.result.theta
        versions = [registry.publish(x, theta) for _ in range(4)]
        assert versions == [0, 1, 2, 3]
        assert registry.versions() == [2, 3]  # registry retention, oldest first
        with pytest.raises(ValueError, match="at least one"):
            SnapshotRegistry(str(tmp_path), keep=0)

    def test_build_store_stamps_version(self, fitted, tmp_path):
        registry = SnapshotRegistry(str(tmp_path))
        registry.publish_result(fitted.result)
        store = registry.build_store(n_shards=2)
        assert store.version == "v0"
        assert store.n_shards == 2
        assert store.lam == fitted.result.config.lam
        assert store.recommend(0, k=3)

    def test_shared_directory_with_trainer(self, fitted, tmp_path):
        """Registry versions and trainer checkpoints must not evict each other."""
        manager = CheckpointManager(str(tmp_path), keep=2)
        manager.save(0, fitted.result.x, fitted.result.theta)
        registry = SnapshotRegistry(str(tmp_path))
        version = registry.publish(fitted.result.x, fitted.result.theta)
        assert version == 1  # past the trainer's iteration, no collision
        assert registry.versions() == [1]  # the trainer file is not a version
        for it in (5, 6, 7):
            manager.save(it, fitted.result.x, fitted.result.theta)
        assert registry.versions() == [1]  # trainer pruning skipped the version
        assert manager.list_iterations() == [1, 6, 7]
        with pytest.raises(ValueError, match="not a registry version"):
            registry.load(6)

    def test_compressed_files_still_load_and_list(self, fitted, tmp_path):
        """Files written with ``np.savez_compressed`` (the earlier format) stay readable."""
        x, theta = fitted.result.x, fitted.result.theta
        np.savez_compressed(tmp_path / "cumf_iter0.npz", iteration=np.int64(0), x=x, theta=theta)
        np.savez_compressed(
            tmp_path / "cumf_iter1.npz",
            iteration=np.int64(1),
            x=x,
            theta=theta,
            lam=np.float64(0.07),
            weighted=np.bool_(True),
            tag=np.str_("old"),
            registry_version=np.int64(1),
            protected=np.bool_(True),
        )
        manager = CheckpointManager(str(tmp_path), keep=5)
        np.testing.assert_array_equal(manager.load(0).theta, theta)
        registry = SnapshotRegistry(str(tmp_path))
        assert registry.versions() == [1]
        snap = registry.load(1)
        assert (snap.label, snap.lam, snap.tag) == ("v1", 0.07, "old")
        np.testing.assert_array_equal(snap.x, x)
        assert registry.publish(x, theta) == 2 and registry.versions() == [1, 2]
        with np.load(registry.load(2).path) as blob:
            np.testing.assert_array_equal(blob["theta"], theta)

    def test_publish_store_and_empty_load(self, store, tmp_path):
        registry = SnapshotRegistry(str(tmp_path))
        with pytest.raises(ValueError, match="no versions"):
            registry.load()
        store.fold_in(np.array([1, 2]), np.array([4.0, 5.0]))
        registry.publish_store(store, tag="live")
        snap = registry.load()
        assert snap.x.shape[0] == store.n_users  # fold-in row included
        assert snap.tag == "live"


class TestStoreLifecycleHooks:
    def test_swap_snapshot_switches_answers_in_place(self, fitted, store):
        rng = np.random.default_rng(5)
        store.recommend_batch(np.arange(8), k=3)
        stats_before = store.stats.queries
        machine = store.machine
        x2 = rng.random((store.n_users + 3, store.f))
        theta2 = rng.random((store.n_items + 4, store.f))
        store.swap_snapshot(x2, theta2, version="v2", lam=0.1)
        assert store.machine is machine  # same serving process
        assert store.stats.queries == stats_before  # stats survive the swap
        assert (store.n_users, store.n_items) == (x2.shape[0], theta2.shape[0])
        assert store.version == "v2" and store.lam == 0.1
        assert store._n_trained_users == store.n_users and not store._folded_items
        rebuilt = np.concatenate(store._shards, axis=0)
        np.testing.assert_array_equal(rebuilt, store.theta.astype(np.float32))
        recs = store.recommend(store.n_users - 1, k=3)  # a user only v2 has
        assert len(recs) == 3

    def test_swap_snapshot_charges_the_clock(self, store):
        before = store.stats.simulated_seconds
        store.swap_snapshot(store.x.copy(), store.theta.copy())
        assert store.stats.simulated_seconds > before

    def test_swap_snapshot_validation(self, store):
        with pytest.raises(ValueError, match="2-D"):
            store.swap_snapshot(np.zeros(4), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="disagree"):
            store.swap_snapshot(np.zeros((4, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="shards"):
            store.swap_snapshot(np.zeros((4, 3)), np.zeros((1, 3)))

    def test_swap_snapshot_rejects_non_finite_factors(self, store):
        before = store.recommend_batch(np.arange(5), k=3)
        version, x, theta = store.version, store.x, store.theta
        for bad in (np.nan, np.inf, -np.inf):
            theta2 = store.theta.copy()
            theta2[1, 0] = bad
            with pytest.raises(ValueError, match="theta has non-finite"):
                store.swap_snapshot(store.x, theta2, version="v-bad")
            x2 = store.x.copy()
            x2[-1, -1] = bad
            with pytest.raises(ValueError, match="x has non-finite"):
                store.swap_snapshot(x2, store.theta, version="v-bad")
        # a rejected swap leaves the served snapshot untouched
        assert store.version == version and store.x is x and store.theta is theta
        assert store.recommend_batch(np.arange(5), k=3) == before

    def test_swap_snapshot_rejects_factors_beyond_float32(self, store):
        before = store.recommend_batch(np.arange(5), k=3)
        version, x, theta = store.version, store.x, store.theta
        theta2 = store.theta.copy()
        theta2[1, 0] = 1e39
        with pytest.raises(ValueError, match="theta has entries beyond the float32 range"):
            store.swap_snapshot(store.x, theta2, version="v-bad")
        x2 = store.x.copy()
        x2[-1, -1] = -1e39
        with pytest.raises(ValueError, match="x has entries beyond the float32 range"):
            store.swap_snapshot(x2, store.theta, version="v-bad")
        assert store.version == version and store.x is x and store.theta is theta
        assert store.recommend_batch(np.arange(5), k=3) == before

    def test_grow_items_appends_and_repartitions(self, store):
        rng = np.random.default_rng(6)
        n_before = store.n_items
        rows = rng.random((5, store.f))
        start = store.grow_items(rows)
        assert start == n_before and store.n_items == n_before + 5
        np.testing.assert_array_equal(store.theta[n_before:], rows)
        rebuilt = np.concatenate(store._shards, axis=0)
        np.testing.assert_array_equal(rebuilt, store.theta.astype(np.float32))
        assert store.partition.bounds[-1] == store.n_items
        # new items are scorable (give one a huge factor so it must win)
        store.grow_items(np.full((1, store.f), 50.0))
        top = store.recommend(0, k=1)
        assert top[0][0] == store.n_items - 1
        # growing zero rows is a no-op
        assert store.grow_items(np.empty((0, store.f))) == store.n_items

    def test_grow_items_validation(self, store):
        with pytest.raises(ValueError, match="shape"):
            store.grow_items(np.zeros((2, store.f + 1)))
        with pytest.raises(ValueError, match="shape"):
            store.grow_items(np.zeros(store.f))

    def test_grow_items_rejects_non_finite_rows(self, store):
        n_before = store.n_items
        for bad in (np.nan, np.inf, -np.inf):
            rows = np.ones((3, store.f))
            rows[2, 0] = bad
            with pytest.raises(ValueError, match="new item rows has non-finite"):
                store.grow_items(rows)
        assert store.n_items == n_before and store.partition.bounds[-1] == n_before

    def test_grow_items_rejects_rows_beyond_float32(self, store):
        n_before = store.n_items
        rows = np.ones((3, store.f))
        rows[1, 0] = 1e39
        with pytest.raises(ValueError, match="new item rows has entries beyond the float32 range"):
            store.grow_items(rows)
        assert store.n_items == n_before and store.partition.bounds[-1] == n_before

    def test_fold_in_records_into_attached_log(self, fitted):
        log = InteractionLog()
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]
        user = ServingCluster([store], log=log).fold_in(np.array([2, 7]), np.array([5.0, 3.0]))
        assert log.affected_users().tolist() == [user]
        users, items, ratings = log.arrays()
        assert items.tolist() == [2, 7] and ratings.tolist() == [5.0, 3.0]

    def test_version_survives_replicate_and_save_load(self, fitted, tmp_path):
        store = FactorStore.from_result(fitted.result, version="v7")
        assert store.replicate().version == "v7"
        store.save(str(tmp_path))
        assert FactorStore.load(str(tmp_path)).version == "v7"


class TestClusterLifecycle:
    def test_drain_restore_masks_routing(self, store):
        cluster = ServingCluster.from_store(store, 3, router="round-robin")
        assert cluster.active_indices() == [0, 1, 2]
        cluster.drain(1)
        assert cluster.n_active == 2 and not cluster.is_active(1)
        for _ in range(6):
            assert cluster.route() != 1
        cluster.recommend_batch(np.arange(4), k=2)
        assert cluster.replicas[1].stats.queries == 0
        cluster.restore(1)
        assert cluster.active_indices() == [0, 1, 2]
        assert 1 in {cluster.route() for _ in range(6)}

    def test_drain_validation(self, store):
        cluster = ServingCluster.from_store(store, 2)
        cluster.drain(0)
        with pytest.raises(RuntimeError, match="last active"):
            cluster.drain(1)
        with pytest.raises(ValueError, match="already draining"):
            cluster.drain(0)
        with pytest.raises(ValueError, match="not draining"):
            cluster.restore(1)
        with pytest.raises(ValueError, match="no replica"):
            cluster.drain(5)
        cluster.restore(0)

    def test_predict_skips_drained_head(self, store):
        cluster = ServingCluster.from_store(store, 2)
        cluster.drain(0)
        np.testing.assert_allclose(
            cluster.predict(np.array([0]), np.array([1])),
            cluster.replicas[1].predict(np.array([0]), np.array([1])),
        )

    def test_grow_items_writes_through(self, store):
        cluster = ServingCluster.from_store(store, 3)
        rows = np.random.default_rng(3).random((2, store.f))
        start = cluster.grow_items(rows)
        assert start == store.n_items
        for rep in cluster.replicas:
            assert rep.n_items == store.n_items + 2
            np.testing.assert_array_equal(rep.theta[start:], rows)
        cluster.replicas[0].grow_items(rows)  # diverge one replica
        with pytest.raises(RuntimeError, match="diverged"):
            cluster.grow_items(rows)

    def test_cluster_fold_in_records_once(self, store):
        log = InteractionLog()
        cluster = ServingCluster.from_store(store, 3, log=log)
        user = cluster.fold_in(np.array([1, 4]), np.array([5.0, 3.0]))
        assert log.n_events == 2  # one record, not one per replica
        assert log.affected_users().tolist() == [user]
        assert cluster.stats_dict()["n_active"] == 3

    def test_from_result_attaches_log_at_cluster_level(self, fitted):
        """A log kwarg must never reach the replicas (triple-recording bug)."""
        log = InteractionLog()
        cluster = ServingCluster.from_result(fitted.result, 3, log=log)
        assert cluster.log is log
        assert not any(hasattr(rep, "log") for rep in cluster.replicas)
        cluster.fold_in(np.array([2]), np.array([4.0]))
        assert log.n_events == 1


class TestRollout:
    @pytest.fixture()
    def versioned(self, fitted, tmp_path):
        """A registry with v0 (= the fit) and v1 (refresh with new rows)."""
        registry = SnapshotRegistry(str(tmp_path))
        registry.publish_result(fitted.result, tag="fit")
        rng = np.random.default_rng(11)
        x2 = np.vstack([fitted.result.x, rng.random((2, fitted.config.f))])
        theta2 = np.vstack([fitted.result.theta, rng.random((3, fitted.config.f))])
        registry.publish(x2, theta2, lam=fitted.config.lam, tag="refresh")
        cluster = ServingCluster([registry.build_store(0, n_shards=2) for _ in range(3)])
        return registry, cluster

    def test_immediate_rollout_swaps_every_replica(self, versioned):
        registry, cluster = versioned
        controller = RolloutController(cluster, registry)
        snap = controller.rollout()  # latest = v1
        assert snap.version == 1
        status = controller.status()
        assert status["versions"] == ["v1", "v1", "v1"]
        assert status["active"] == [0, 1, 2]
        assert cluster.n_users == snap.x.shape[0]

    def test_single_replica_rollout_swaps_directly(self, fitted, tmp_path):
        """R=1 has no one to rotate behind: rollout() swaps, plan_events refuses."""
        registry = SnapshotRegistry(str(tmp_path))
        registry.publish_result(fitted.result)
        registry.publish_result(fitted.result, tag="again")
        cluster = ServingCluster([registry.build_store(0, n_shards=2)])
        controller = RolloutController(cluster, registry)
        snap = controller.rollout(1)
        assert cluster.replicas[0].version == "v1" == snap.label
        assert cluster.active_indices() == [0]
        with pytest.raises(ValueError, match="at least 2 replicas"):
            controller.plan_events(1, start_s=0.0, step_s=1.0)

    def test_rollout_refuses_shrinking_snapshots(self, versioned):
        registry, cluster = versioned
        controller = RolloutController(cluster, registry)
        controller.rollout(1)
        with pytest.raises(ValueError, match="users"):
            controller.rollout(0)  # v0 has fewer users than the live v1

    def test_plan_events_validation(self, versioned):
        registry, cluster = versioned
        controller = RolloutController(cluster, registry)
        with pytest.raises(ValueError, match="start_s"):
            controller.plan_events(1, start_s=-1.0, step_s=1.0)
        with pytest.raises(ValueError, match="step_s"):
            controller.plan_events(1, start_s=0.0, step_s=0.0)
        with pytest.raises(ValueError, match="swap_s"):
            controller.plan_events(1, start_s=0.0, step_s=1.0, swap_s=2.0)
        events = controller.plan_events(1, start_s=0.5, step_s=0.2)
        assert len(events) == 2 * cluster.n_replicas
        assert [e.time for e in events] == sorted(e.time for e in events)

    def test_mid_trace_rollout_zero_drops(self, versioned):
        """The tentpole invariant: a rolling swap under traffic drops nothing."""
        registry, cluster = versioned
        controller = RolloutController(cluster, registry)
        trace = QueryTrace.poisson(1200, 200_000.0, cluster.n_users, seed=2)
        events = controller.plan_events(
            1, start_s=0.25 * trace.duration, step_s=0.2 * trace.duration
        )
        sim = RequestSimulator(cluster, k=4, max_batch=32, window_s=0.0)
        report = sim.run(trace, events=events)
        assert report.n_dropped == 0
        assert report.n_requests == trace.n_requests
        assert sum(report.per_replica_queries) == trace.n_requests
        assert report.per_version_queries.get("v0", 0) > 0
        assert report.per_version_queries.get("v1", 0) > 0
        assert sum(report.per_version_queries.values()) == trace.n_requests
        assert report.n_events == 6
        assert report.window_queries > 0 and report.window_p95_s > 0.0
        assert controller.status()["versions"] == ["v1", "v1", "v1"]
        assert cluster.active_indices() == [0, 1, 2]
        assert "lifecycle events" in report.summary()

    def test_late_events_fire_at_end_of_trace(self, versioned):
        registry, cluster = versioned
        controller = RolloutController(cluster, registry)
        trace = QueryTrace.poisson(60, 50_000.0, cluster.n_users, seed=3)
        events = controller.plan_events(1, start_s=trace.duration * 10, step_s=1.0)
        report = RequestSimulator(cluster, k=3, max_batch=16).run(trace, events=events)
        assert report.n_dropped == 0
        assert controller.status()["versions"] == ["v1", "v1", "v1"]
        assert cluster.active_indices() == [0, 1, 2]

    def test_all_replicas_drained_drops_the_tail(self, fitted):
        """Without a restore event left, the remaining queries are dropped."""
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]
        cluster = ServingCluster.from_store(store, 2)
        trace = QueryTrace.poisson(100, 10_000.0, store.n_users, seed=4)
        cutoff = trace.arrivals[49]

        def drain_both():
            cluster.drain(0)
            cluster._active[1] = False  # bypass the last-replica guard deliberately

        report = RequestSimulator(cluster, k=3, max_batch=16).run(
            trace, events=[LifecycleEvent(time=float(cutoff), action=drain_both)]
        )
        assert report.n_dropped > 0
        assert report.n_dropped + sum(report.per_replica_queries) == 100

    def test_event_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            LifecycleEvent(time=-1.0, action=lambda: None)
        with pytest.raises(ValueError, match="callable"):
            LifecycleEvent(time=0.0, action="nope")
