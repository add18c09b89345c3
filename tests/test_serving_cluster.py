"""ServingCluster: replication, routing policies, write-through fold-in."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ALSConfig, CuMF
from repro.gpu.machine import MultiGPUMachine
from repro.serving import (
    FactorStore,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    QueryTrace,
    RecommenderService,
    RequestSimulator,
    RoundRobinRouter,
    ServingCluster,
    ServingConfig,
    make_router,
)


@pytest.fixture(scope="module")
def fitted(tiny_ratings):
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=3, seed=1, row_batch=128), backend="base")
    model.fit(tiny_ratings.train, tiny_ratings.test)
    return model


@pytest.fixture()
def store(fitted):
    return fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]


@pytest.fixture(scope="module")
def traffic_store():
    """A store big enough that routing/timing differences are visible."""
    rng = np.random.default_rng(0)
    return FactorStore(rng.random((1000, 16)), rng.random((4000, 16)), n_shards=2)


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        loads = [5.0, 0.0, 1.0]
        assert [router.select(loads) for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        router.reset()
        assert router.select(loads) == 0

    def test_least_loaded_takes_argmin(self):
        router = LeastLoadedRouter()
        assert router.select([3.0, 0.5, 2.0]) == 1
        assert router.select([0.0, 0.0, 7.0]) == 0  # ties: lowest id

    def test_power_of_two_picks_lighter_of_its_pair(self):
        router = PowerOfTwoRouter(seed=3)
        rng = np.random.default_rng(3)  # mirror the router's sampling
        loads = [4.0, 1.0, 3.0, 2.0]
        for _ in range(50):
            a, b = rng.choice(4, size=2, replace=False)
            expected = int(a if loads[a] <= loads[b] else b)
            assert router.select(loads) == expected

    def test_power_of_two_reset_is_deterministic(self):
        router = PowerOfTwoRouter(seed=9)
        loads = [1.0, 2.0, 3.0, 4.0]
        first = [router.select(loads) for _ in range(20)]
        router.reset()
        assert [router.select(loads) for _ in range(20)] == first

    def test_single_replica_shortcut(self):
        assert PowerOfTwoRouter().select([1.0]) == 0

    def test_make_router(self):
        assert make_router("round-robin").name == "round-robin"
        router = PowerOfTwoRouter(seed=5)
        assert make_router(router) is router
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")


class TestConstruction:
    def test_from_store_replicates(self, store):
        cluster = ServingCluster.from_store(store, 3, router="round-robin")
        assert cluster.n_replicas == 3
        assert (cluster.n_users, cluster.n_items, cluster.f) == (
            store.n_users,
            store.n_items,
            store.f,
        )
        machines = {id(rep.machine) for rep in cluster.replicas}
        assert id(store.machine) not in machines and len(machines) == 3
        for rep in cluster.replicas:
            np.testing.assert_array_equal(rep.x, store.x)
            assert rep.stats.queries == 0

    def test_replicate_preserves_fold_ins(self, store):
        user = store.fold_in(np.array([1, 4]), np.array([5.0, 3.0]))
        clone = store.replicate()
        assert clone.n_users == store.n_users
        assert clone._n_trained_users == store._n_trained_users
        np.testing.assert_array_equal(clone._folded_items[user], store._folded_items[user])
        assert clone.stats.simulated_seconds == 0.0

    def test_serve_builds_cluster(self, fitted):
        cluster = fitted.serve(ServingConfig(replicas=2, router="power-of-two", n_shards=2, log=False)).backend
        assert cluster.n_replicas == 2
        assert cluster.router.name == "power-of-two"
        assert cluster.replicas[0].n_shards == 2

    def test_validation(self, store, fitted):
        with pytest.raises(ValueError, match="at least 1"):
            ServingCluster.from_store(store, 0)
        with pytest.raises(ValueError, match="at least one replica"):
            ServingCluster([])
        other = FactorStore(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="differs from replica 0"):
            ServingCluster([store.replicate(), other])
        a, b = store.replicate(), store.replicate()
        b.fold_in(np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError, match="shape|trained-user"):
            ServingCluster([a, b])

    def test_replicas_must_serve_one_model(self, store):
        same_shape = FactorStore(np.asarray(store.x) + 1.0, store.theta, lam=store.lam)
        with pytest.raises(ValueError, match="different factors"):
            ServingCluster([store.replicate(), same_shape])
        tweaked = store.replicate()
        tweaked.lam = store.lam + 1.0
        with pytest.raises(ValueError, match="fold-in hyper-parameters"):
            ServingCluster([store.replicate(), tweaked])

    def test_shared_machine_rejected(self, fitted):
        with pytest.raises(ValueError, match="independent machines"):
            ServingCluster.from_result(fitted.result, 2, machine=MultiGPUMachine(n_gpus=2))


class TestRoutingInvariants:
    def test_routed_batch_matches_single_store(self, store, tiny_ratings):
        service = RecommenderService(ServingCluster.from_store(store, 3, router="round-robin"), ratings=tiny_ratings.train)
        users = np.arange(30)
        want = store.recommend_batch(users, k=5, exclude=tiny_ratings.train)
        for replica in range(3):  # every replica gives the single-store answer
            response = service.recommend(users, k=5)
            assert response.replica == replica and response.payload == want

    def test_direct_routing_balances_work(self, traffic_store):
        service = RecommenderService(ServingCluster.from_store(traffic_store, 3, router="least-loaded"))
        for _ in range(9):
            service.recommend(np.arange(64), k=5)
        batches = [rep.stats.batches for rep in service.backend.replicas]
        assert batches == [3, 3, 3]

    def test_every_query_served_exactly_once(self, traffic_store):
        cluster = ServingCluster.from_store(traffic_store, 4, router="power-of-two")
        trace = QueryTrace.poisson(600, 200_000.0, traffic_store.n_users, seed=4)
        report = RequestSimulator(cluster, k=5, max_batch=64, window_s=0.001).run(trace)
        assert report.n_requests == 600
        assert sum(report.per_replica_queries) == 600
        assert cluster.stats_dict()["queries"] == 600
        assert sum(rep.stats.batches for rep in cluster.replicas) == report.n_batches
        assert report.n_replicas == 4 and report.router == "power-of-two"
        assert len(report.per_replica_utilization) == 4
        assert all(0.0 <= util <= 1.0 + 1e-9 for util in report.per_replica_utilization)
        assert "replicas via power-of-two" in report.summary()

    def test_cluster_run_is_reproducible(self, traffic_store):
        trace = QueryTrace.poisson(400, 150_000.0, traffic_store.n_users, seed=8)
        reports = []
        for _ in range(2):  # fresh replicas, same router seed -> same routing
            cluster = ServingCluster.from_store(traffic_store, 3, router="power-of-two")
            reports.append(RequestSimulator(cluster, k=5, max_batch=64).run(trace))
        assert reports[0].per_replica_queries == reports[1].per_replica_queries
        assert reports[0].makespan_s == reports[1].makespan_s

    def test_single_replica_cluster_matches_plain_store(self, traffic_store):
        trace = QueryTrace.poisson(300, 100_000.0, traffic_store.n_users, seed=5)
        plain = RequestSimulator(traffic_store.replicate(), k=5, max_batch=64).run(trace)
        cluster = ServingCluster.from_store(traffic_store, 1, router="round-robin")
        routed = RequestSimulator(cluster, k=5, max_batch=64).run(trace)
        assert routed.makespan_s == pytest.approx(plain.makespan_s)
        assert routed.latency_p95_s == pytest.approx(plain.latency_p95_s)

    def test_replicas_add_throughput(self, traffic_store):
        """A saturating trace must finish ~R times faster on R replicas."""
        trace = QueryTrace.poisson(3000, 10_000_000.0, traffic_store.n_users, seed=6)
        reports = {}
        for n_replicas in (1, 4):
            cluster = ServingCluster.from_store(traffic_store, n_replicas, router="least-loaded")
            reports[n_replicas] = RequestSimulator(cluster, k=5, max_batch=256, window_s=0.0).run(trace)
        assert reports[4].throughput_qps >= 3.0 * reports[1].throughput_qps
        assert reports[4].latency_p95_s < reports[1].latency_p95_s

    def test_power_of_two_beats_round_robin_under_skewed_bursts(self, traffic_store):
        """The paper-adjacent load-balancing claim, pinned on tail latency."""
        trace = QueryTrace.bursty(
            4000, 3000.0, 400_000.0, traffic_store.n_users, burst_every_s=0.02, burst_len_s=0.004, seed=5
        )
        reports = {}
        for router in ("round-robin", "power-of-two"):
            cluster = ServingCluster.from_store(traffic_store, 4, router=router)
            reports[router] = RequestSimulator(cluster, k=5, max_batch=64, window_s=0.0).run(trace)
        assert reports["power-of-two"].latency_p95_s < reports["round-robin"].latency_p95_s


class TestWriteThroughFoldIn:
    def test_fold_in_lands_on_every_replica_with_one_id(self, store, tiny_ratings):
        cluster = ServingCluster.from_store(store, 3, router="round-robin")
        items, ratings = tiny_ratings.train.row(7)
        user = cluster.fold_in(items, ratings)
        assert user == store.n_users  # next free id on every replica
        for rep in cluster.replicas:
            assert rep.n_users == store.n_users + 1
            assert rep.stats.fold_ins == 1
            np.testing.assert_array_equal(rep.x[user], cluster.replicas[0].x[user])
        # Any replica serves the newcomer identically, exclusions included.
        answers = {
            tuple(tuple(pair) for pair in rep.recommend(user, k=5, exclude=tiny_ratings.train))
            for rep in cluster.replicas
        }
        assert len(answers) == 1

    def test_routed_queries_for_folded_user_are_consistent(self, store, tiny_ratings):
        service = RecommenderService(ServingCluster.from_store(store, 3, router="power-of-two"), ratings=tiny_ratings.train)
        user = service.fold_in(*tiny_ratings.train.row(11))
        want = service.backend.replicas[0].recommend(user, k=4, exclude=tiny_ratings.train)
        replicas = set()
        for _ in range(6):  # whichever replica the router picks, same answer
            response = service.recommend(user, k=4)
            assert response.payload[0] == want
            replicas.add(response.replica)
        assert len(replicas) > 1

    def test_diverged_replicas_detected_without_mutation(self, store):
        cluster = ServingCluster.from_store(store, 2, router="round-robin")
        cluster.replicas[1].fold_in(np.array([0]), np.array([1.0]))  # out-of-band write
        counts_before = [rep.n_users for rep in cluster.replicas]
        with pytest.raises(RuntimeError, match="diverged"):
            cluster.fold_in(np.array([1]), np.array([2.0]))
        # detection happens before any replica is touched
        assert [rep.n_users for rep in cluster.replicas] == counts_before

    def test_stats_dict_merges_replicas(self, store):
        cluster = ServingCluster.from_store(store, 2)
        RecommenderService(cluster).recommend(np.arange(8), k=3)
        cluster.fold_in(np.array([2]), np.array([4.0]))
        merged = cluster.stats_dict()
        assert merged["n_replicas"] == 2
        assert merged["queries"] == 8
        assert merged["fold_ins"] == 2  # write-through: one per replica
        assert len(merged["per_replica"]) == 2
