"""Cache invalidation composes with the model lifecycle.

The acceptance pin for the tiered cache: across refresh -> publish ->
rollout, rolling rollouts under live traffic, and rollbacks, cached
pages are cleared and re-stamped so no query is ever answered from a
stale-version factor page (``stale_hits == 0`` everywhere).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ALSConfig, CuMF
from repro.serving import CacheConfig, QueryTrace, ServingConfig, TieredFactorStore

CFG = dict(hot_fraction=0.25, page_items=8, plan_window_s=1e-6, half_life_s=0.5)

#: ``replicas=1`` serves one ``TieredFactorStore`` as a 1-replica
#: ``ServingCluster``; ``replicas=3`` replicates it behind the same facade.
BACKENDS = [pytest.param(1, id="store"), pytest.param(3, id="cluster")]


@pytest.fixture(scope="module")
def fitted(tiny_ratings):
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=2, seed=1, row_batch=128), backend="base")
    model.fit(tiny_ratings.train)
    return model


def make_service(fitted, data, tmp_path, replicas):
    return fitted.serve(
        ServingConfig(
            replicas=replicas,
            n_shards=2,
            registry_dir=str(tmp_path),
            ratings=data.train,
            cache=CacheConfig(**CFG),
        )
    )


def units(service) -> list[TieredFactorStore]:
    out = service.backend.serving_units()
    assert all(isinstance(unit, TieredFactorStore) for unit in out)
    return out


def warm(service, rounds: int = 9, seed: int = 0) -> None:
    """Replay one user block until every replica has promoted its pages."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, service.n_users, size=64)
    for _ in range(rounds):
        service.recommend(users, k=5).raise_for_status()


def total_stale(service) -> int:
    return sum(unit.cache_stats.stale_hits for unit in service.backend.serving_units())


def assert_pages_stamped_current(service) -> None:
    """Every unit's every page carries the version that unit serves."""
    for unit in units(service):
        assert set(unit._pages.stamps) == {unit.version}


def publish_refresh(service, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    for user in rng.choice(service.n_users, size=8, replace=False):
        items = rng.choice(service.n_items, size=3, replace=False)
        service.rate(int(user), items, rng.uniform(1.0, 5.0, size=3)).raise_for_status()
    service.refresh()


@pytest.mark.parametrize("replicas", BACKENDS)
class TestLifecycleInvalidation:
    def test_rollout_clears_and_restamps_cached_pages(self, fitted, tiny_ratings, tmp_path, replicas):
        service = make_service(fitted, tiny_ratings, tmp_path, replicas)
        warm(service)
        assert any(unit.resident_bytes()["gpu-hot"] > 0 for unit in units(service))
        assert_pages_stamped_current(service)  # all stamped v0

        publish_refresh(service)
        assert_pages_stamped_current(service)  # publish alone changes nothing
        snap = service.rollout()

        for unit in units(service):
            assert unit.version == snap.label
            assert unit.cache_stats.invalidations >= 1
            # The hot set was dropped with the old factors...
            assert unit.resident_bytes()["gpu-hot"] == 0
        assert_pages_stamped_current(service)  # ...and re-stamped to v1

        warm(service, seed=1)
        assert total_stale(service) == 0
        assert any(unit.cache_stats.hits > 0 for unit in units(service))

    def test_rollback_restamps_to_the_republished_version(self, fitted, tiny_ratings, tmp_path, replicas):
        service = make_service(fitted, tiny_ratings, tmp_path, replicas)
        publish_refresh(service)
        service.rollout()
        warm(service)

        snap = service.rollback(0)
        assert snap.version == 2  # monotonic republish of v0
        for unit in units(service):
            assert unit.version == snap.label
            assert unit.cache_stats.invalidations >= 2  # rollout + rollback
        assert_pages_stamped_current(service)

        warm(service, seed=2)
        assert total_stale(service) == 0

    def test_new_item_refresh_regrows_the_page_table(self, fitted, tiny_ratings, tmp_path, replicas):
        service = make_service(fitted, tiny_ratings, tmp_path, replicas)
        warm(service)
        old_items = service.n_items
        service.rate(0, np.array([old_items]), np.array([5.0])).raise_for_status()
        refreshed = service.refresh()
        assert refreshed.n_new_items == 1
        service.rollout()

        for unit in units(service):
            assert unit.n_items == old_items + 1
            assert unit._pages.n_items == unit.n_items
            assert unit._heat.n_items == unit.n_items
        assert_pages_stamped_current(service)
        warm(service, seed=3)
        assert total_stale(service) == 0

    def test_mixed_lifecycle_never_serves_a_stale_page(self, fitted, tiny_ratings, tmp_path, replicas):
        service = make_service(fitted, tiny_ratings, tmp_path, replicas)
        warm(service, seed=4)
        publish_refresh(service)
        service.rollout()
        warm(service, seed=5)
        service.rollback(0)
        warm(service, seed=6)

        assert total_stale(service) == 0
        assert_pages_stamped_current(service)
        # Hot pages in particular carry the live version stamp.
        for unit in units(service):
            table = unit._pages
            for page in table.pages_in(0):  # TIER_HOT
                assert table.stamps[page] == unit.version


class TestRollingRolloutUnderTraffic:
    def test_planned_rollback_mid_trace_stays_fresh(self, fitted, tiny_ratings, tmp_path):
        """Replay with a mid-trace rolling rollback: zero drops, zero stale."""
        service = make_service(fitted, tiny_ratings, tmp_path, replicas=3)
        publish_refresh(service)
        service.rollout()
        warm(service)

        trace = QueryTrace.poisson(1_500, 50_000.0, service.n_users, seed=11)
        events = service.plan_rollback(
            0, start_s=0.25 * trace.duration, step_s=0.2 * trace.duration
        )
        report = service.simulate(trace, events, k=5, max_batch=128, window_s=0.0)

        assert report.n_dropped == 0
        assert set(report.per_version_queries) == {"v1", "v2"}
        assert report.cache and report.cache["stale_hits"] == 0
        assert total_stale(service) == 0
        assert all(unit.version == "v2" for unit in units(service))
        assert_pages_stamped_current(service)

    def test_planned_rollout_mid_trace_reports_cache_deltas(self, fitted, tiny_ratings, tmp_path):
        service = make_service(fitted, tiny_ratings, tmp_path, replicas=3)
        publish_refresh(service)
        warm(service)

        trace = QueryTrace.poisson(1_000, 50_000.0, service.n_users, seed=7)
        events = service.plan_rollout(
            1, start_s=0.3 * trace.duration, step_s=0.2 * trace.duration
        )
        report = service.simulate(trace, events, k=5, max_batch=128, window_s=0.0, exclude=None)

        assert report.n_dropped == 0
        assert report.cache["hits"] + report.cache["misses"] > 0
        assert report.cache["stale_hits"] == 0
        assert report.cache["invalidations"] == 3  # one per swapped replica
        assert total_stale(service) == 0
        assert_pages_stamped_current(service)
