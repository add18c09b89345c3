"""Heat-aware multi-tier factor cache: sketch, pages, planner, tiered store."""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core import ALSConfig, CuMF
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology
from repro.serving import (
    CacheConfig,
    FactorStore,
    HeatSketch,
    PageTable,
    QueryTrace,
    RequestSimulator,
    ServingCluster,
    ServingConfig,
    TenantPolicy,
    TieredFactorStore,
)
from repro.serving.cache import TIER_COLD, TIER_HOT, TIER_WARM, CachePlanner, CacheStats
from repro.sparse.partition import Partition1D


@pytest.fixture(scope="module")
def fitted(tiny_ratings):
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=2, seed=1, row_batch=128), backend="base")
    model.fit(tiny_ratings.train)
    return model


#: Small pages + a tiny planning window so unit tests exercise promotion
#: waves with only a handful of query batches.
CFG = dict(hot_fraction=0.25, page_items=8, plan_window_s=1e-6, half_life_s=0.5)


def tiered_store(fitted, **overrides) -> TieredFactorStore:
    cache = CacheConfig(**{**CFG, **overrides})
    return TieredFactorStore.from_result(fitted.result, cache=cache, n_shards=2)


# ---------------------------------------------------------------------- #
# CacheConfig
# ---------------------------------------------------------------------- #
class TestCacheConfig:
    def test_defaults_and_coerce(self):
        assert CacheConfig.coerce(None) is None
        cfg = CacheConfig.coerce({"hot_fraction": 0.5, "page_items": 16})
        assert isinstance(cfg, CacheConfig) and cfg.page_items == 16
        assert CacheConfig.coerce(cfg) is cfg
        with pytest.raises(ValueError, match="cache must be a CacheConfig"):
            CacheConfig.coerce("big")

    def test_validation(self):
        with pytest.raises(ValueError, match="not both"):
            CacheConfig(hot_bytes=10, hot_fraction=0.5)
        with pytest.raises(ValueError, match="hot_fraction"):
            CacheConfig(hot_fraction=1.5)
        with pytest.raises(ValueError, match="page_items"):
            CacheConfig(page_items=0)
        with pytest.raises(ValueError, match="hysteresis"):
            CacheConfig(hysteresis=0.9)
        with pytest.raises(ValueError, match="half_life_s"):
            CacheConfig(half_life_s=0.0)

    def test_hot_capacity_resolution(self):
        assert CacheConfig(hot_bytes=123).hot_capacity(10_000) == 123
        assert CacheConfig(hot_fraction=0.5).hot_capacity(1000) == 500
        assert CacheConfig().hot_capacity(1000) == 100  # 10% default

    def test_wave_budget_floor_is_one_page(self):
        cfg = CacheConfig(max_wave_bytes=1)
        assert cfg.wave_budget(hot_capacity=4096, page_bytes=512) == 512
        assert CacheConfig().wave_budget(4096, 512) == 1024  # capacity / 4


# ---------------------------------------------------------------------- #
# HeatSketch
# ---------------------------------------------------------------------- #
class TestHeatSketch:
    def test_observe_counts_and_half_life_decay(self):
        sketch = HeatSketch(4, half_life_s=1.0)
        sketch.observe(np.array([0, 2]), np.array([2, 1]), now=0.0)
        np.testing.assert_allclose(sketch.scores(0.0), [2.0, 0.0, 1.0, 0.0])
        # One half-life later everything halved.
        np.testing.assert_allclose(sketch.scores(1.0), [1.0, 0.0, 0.5, 0.0])
        # Touching an item folds decay in before adding the new count.
        sketch.observe(np.array([0]), np.array([1]), now=1.0)
        np.testing.assert_allclose(sketch.scores(1.0), [2.0, 0.0, 0.5, 0.0])

    def test_reads_do_not_mutate(self):
        sketch = HeatSketch(2, half_life_s=1.0)
        sketch.observe(np.array([0]), np.array([1]), now=0.0)
        sketch.scores(5.0)
        np.testing.assert_allclose(sketch.scores(0.0), [1.0, 0.0])

    def test_page_scores_sums_per_page(self):
        sketch = HeatSketch(5, half_life_s=1.0)
        sketch.observe(np.array([0, 1, 4]), np.array([1, 1, 1]), now=0.0)
        np.testing.assert_allclose(sketch.page_scores(0.0, page_items=2), [2.0, 0.0, 1.0])

    def test_grow_appends_cold_items(self):
        sketch = HeatSketch(2, half_life_s=1.0)
        sketch.observe(np.array([1]), np.array([1]), now=0.0)
        sketch.grow(4)
        np.testing.assert_allclose(sketch.scores(0.0), [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="shrink"):
            sketch.grow(1)


# ---------------------------------------------------------------------- #
# PageTable
# ---------------------------------------------------------------------- #
class TestPageTable:
    def test_initial_layout_all_warm(self):
        table = PageTable(n_items=10, page_items=4, row_bytes=8, version="v0")
        assert table.n_pages == 3
        assert table.page_bytes.tolist() == [32, 32, 16]  # partial tail page
        assert table.resident_bytes(TIER_WARM) == 80
        assert table.resident_bytes(TIER_HOT) == 0
        assert table.pages_of(np.array([0, 3, 4, 9])).tolist() == [0, 1, 2]

    def test_move_maintains_resident_bytes(self):
        table = PageTable(10, 4, 8, "v0")
        assert table.move(np.array([0, 2]), TIER_HOT) == 48
        assert table.resident_bytes(TIER_HOT) == 48
        assert table.resident_bytes(TIER_WARM) == 32
        assert table.move(np.array([0]), TIER_HOT) == 0  # already there
        table.move(np.array([1]), TIER_COLD)
        assert table.resident_bytes(TIER_COLD) == 32

    def test_stamps_and_stale_mask(self):
        table = PageTable(8, 4, 8, "v0")
        pages = np.array([0, 1])
        assert not table.stale_mask(pages, "v0").any()
        table.stamp_pages(np.array([1]), "v1")
        assert table.stale_mask(pages, "v1").tolist() == [True, False]

    def test_invalidate_drops_everything_to_warm_restamped(self):
        table = PageTable(8, 4, 8, "v0")
        table.move(np.array([0]), TIER_HOT)
        table.move(np.array([1]), TIER_COLD)
        table.invalidate("v2")
        assert (table.tier == TIER_WARM).all()
        assert not table.stale_mask(np.arange(table.n_pages), "v2").any()
        assert table.resident_bytes(TIER_WARM) == table.total_bytes

    def test_grow_completes_partial_tail_and_appends_warm(self):
        table = PageTable(10, 4, 8, "v0")
        table.move(np.array([2]), TIER_HOT)  # the partial tail page
        table.grow(17, "v1")
        assert table.n_pages == 5
        assert table.page_bytes.tolist() == [32, 32, 32, 32, 8]
        # The tail page filled up in place, in its current tier.
        assert table.resident_bytes(TIER_HOT) == 32
        assert table.stamps[4] == "v1" and table.stamps[0] == "v0"


class _PageOracle:
    """A plain dict of pages: ``page -> [tier, stamp]``, sizes derived from ``n_items``."""

    def __init__(self, n_items: int, page_items: int, row_bytes: int, version: str):
        self.page_items, self.row_bytes, self.n_items = page_items, row_bytes, 0
        self.pages: dict[int, list] = {}
        self.grow(n_items, version)

    def size(self, page: int) -> int:
        return min(self.page_items, self.n_items - page * self.page_items) * self.row_bytes

    def move(self, pages, tier: int) -> int:
        moved = 0
        for p in pages:
            if self.pages[p][0] != tier:
                self.pages[p][0] = tier
                moved += self.size(p)
        return moved

    def stamp(self, pages, version: str) -> None:
        for p in pages:
            self.pages[p][1] = version

    def invalidate(self, version: str) -> None:
        self.pages = {p: [TIER_WARM, version] for p in self.pages}

    def grow(self, n_items: int, version: str) -> None:
        self.n_items = n_items
        for p in range(len(self.pages), -(-n_items // self.page_items)):
            self.pages[p] = [TIER_WARM, version]

    def resident(self, tier: int) -> int:
        return sum(self.size(p) for p, (t, _) in self.pages.items() if t == tier)


_VERSIONS = st.sampled_from(["v0", "v1", "v12"])
_PAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("move"), st.lists(st.integers(0, 99), max_size=8), st.sampled_from([TIER_HOT, TIER_WARM, TIER_COLD])),
        st.tuples(st.just("stamp"), st.lists(st.integers(0, 99), max_size=8), _VERSIONS),
        st.tuples(st.just("invalidate"), _VERSIONS),
        st.tuples(st.just("grow"), st.integers(0, 12), _VERSIONS),
    ),
    max_size=14,
)


class TestPageTableProperties:
    @settings(max_examples=120, deadline=None)
    @given(n_items=st.integers(0, 30), page_items=st.integers(1, 6), row_bytes=st.integers(1, 64), ops=_PAGE_OPS)
    def test_array_table_matches_a_dict_of_pages(self, n_items, page_items, row_bytes, ops):
        """Random move/stamp/invalidate/grow sequences; a repeated page id moves its bytes once."""
        table = PageTable(n_items, page_items, row_bytes, "v0")
        oracle = _PageOracle(n_items, page_items, row_bytes, "v0")
        for op, *args in ops:
            if op in ("move", "stamp"):
                raw, arg = args
                if not oracle.pages:
                    continue
                pages = [r % len(oracle.pages) for r in raw]
                if op == "move":
                    assert table.move(np.array(pages, dtype=np.int64), arg) == oracle.move(pages, arg)
                else:
                    table.stamp_pages(np.array(pages, dtype=np.int64), arg)
                    oracle.stamp(pages, arg)
            elif op == "invalidate":
                table.invalidate(args[0])
                oracle.invalidate(args[0])
            else:
                extra, version = args
                table.grow(oracle.n_items + extra, version)
                oracle.grow(oracle.n_items + extra, version)
            assert table.tier.tolist() == [t for t, _ in oracle.pages.values()]
            assert list(table.stamps) == [v for _, v in oracle.pages.values()]
            assert table.page_bytes.tolist() == [oracle.size(p) for p in oracle.pages]
            for tier in (TIER_HOT, TIER_WARM, TIER_COLD):
                assert table.resident_bytes(tier) == oracle.resident(tier)
            for version in ("v0", "v1"):
                expected = [v != version for _, v in oracle.pages.values()]
                assert table.stale_mask(np.arange(table.n_pages), version).tolist() == expected

    @settings(max_examples=120, deadline=None)
    @given(
        n_items=st.integers(1, 60),
        page_items=st.integers(1, 6),
        tiers=st.lists(st.sampled_from([TIER_HOT, TIER_WARM, TIER_COLD]), max_size=60),
        served=st.lists(st.integers(0, 59), max_size=40),
        limit_share=st.floats(0.0, 1.0),
    )
    def test_vectorised_spill_matches_the_page_loop(self, n_items, page_items, tiers, served, limit_share):
        """One stable sort and a cumsum cut spill the pages the page-at-a-time loop spilled, in its order."""
        table = PageTable(n_items, page_items, 8, "v0")
        for page, tier in enumerate(tiers[: table.n_pages]):
            table.move(np.array([page]), tier)
        heat = HeatSketch(n_items, half_life_s=1.0)
        touched, counts = np.unique(np.array(served, dtype=np.int64) % n_items, return_counts=True)
        heat.observe(touched, counts, now=0.0)
        limit = max(1, int(limit_share * table.resident_bytes(TIER_WARM)))

        reference = copy.deepcopy(table)
        spilled = []
        if reference.resident_bytes(TIER_WARM) > limit:
            warm = reference.pages_in(TIER_WARM)
            for p in warm[np.argsort(heat.page_scores(0.5, page_items)[warm], kind="stable")]:
                reference.move(np.array([p]), TIER_COLD)
                spilled.append(int(p))
                if reference.resident_bytes(TIER_WARM) <= limit:
                    break

        moves = []
        move = table.move
        table.move = lambda pages, tier: moves.append((pages.tolist(), tier)) or move(pages, tier)
        store = SimpleNamespace(
            cache_config=CacheConfig(page_items=page_items, warm_bytes=limit),
            _pages=table,
            _heat=heat,
            cache_stats=CacheStats(),
        )
        TieredFactorStore._enforce_warm_capacity(store, 0.5)
        assert [p for pages, tier in moves for p in pages] == spilled
        assert all(tier == TIER_COLD for _, tier in moves)
        assert store.cache_stats.spills == len(spilled)
        assert table.tier.tolist() == reference.tier.tolist()
        for tier in (TIER_HOT, TIER_WARM, TIER_COLD):
            assert table.resident_bytes(tier) == reference.resident_bytes(tier)


# ---------------------------------------------------------------------- #
# CachePlanner
# ---------------------------------------------------------------------- #
class TestCachePlanner:
    def test_target_set_is_capacity_bounded_hottest_first(self):
        planner = CachePlanner(hot_capacity=64, wave_budget=64)
        heat = np.array([5.0, 1.0, 3.0, 0.0])
        tiers = np.full(4, TIER_WARM, dtype=np.int8)
        bytes_ = np.full(4, 32, dtype=np.int64)
        assert planner.target_hot_set(heat, tiers, bytes_).tolist() == [0, 2]

    def test_zero_heat_pages_never_promoted(self):
        planner = CachePlanner(hot_capacity=1024, wave_budget=1024)
        heat = np.array([0.0, 2.0])
        tiers = np.full(2, TIER_WARM, dtype=np.int8)
        bytes_ = np.full(2, 32, dtype=np.int64)
        assert planner.target_hot_set(heat, tiers, bytes_).tolist() == [1]

    def test_hysteresis_keeps_the_incumbent(self):
        tiers = np.array([TIER_HOT, TIER_WARM], dtype=np.int8)
        bytes_ = np.full(2, 32, dtype=np.int64)
        # Challenger is hotter, but not by the 1.5x the incumbent enjoys.
        heat = np.array([2.0, 2.5])
        keep = CachePlanner(32, 32, hysteresis=1.5).plan(heat, tiers, bytes_)
        assert keep.waves == ()
        # Without hysteresis the same heat flips the page.
        flip = CachePlanner(32, 32, hysteresis=1.0).plan(heat, tiers, bytes_)
        assert flip.n_promotions == 1 and flip.n_demotions == 1

    def test_waves_respect_budget_and_capacity(self):
        planner = CachePlanner(hot_capacity=128, wave_budget=64)
        heat = np.array([4.0, 3.0, 2.0, 1.0])
        tiers = np.full(4, TIER_WARM, dtype=np.int8)
        bytes_ = np.full(4, 32, dtype=np.int64)
        plan = planner.plan(heat, tiers, bytes_)
        assert plan.n_promotions == 4
        assert all(w.promo_bytes <= 64 for w in plan.waves)
        # Replaying the waves never overflows the capacity.
        resident = 0
        for wave in plan.waves:
            resident += wave.promo_bytes - wave.demo_bytes
            assert resident <= 128
        assert resident == 128

    def test_demotions_drain_pages_that_fell_out_of_the_target(self):
        planner = CachePlanner(hot_capacity=64, wave_budget=64)
        tiers = np.array([TIER_HOT, TIER_HOT, TIER_WARM], dtype=np.int8)
        bytes_ = np.full(3, 32, dtype=np.int64)
        # Page 2 became much hotter than incumbent 1; 0 stays.
        heat = np.array([5.0, 0.1, 9.0])
        plan = planner.plan(heat, tiers, bytes_)
        promoted = [p for w in plan.waves for p in w.promotions]
        demoted = [p for w in plan.waves for p in w.demotions]
        assert promoted == [2] and demoted == [1]

    def test_pure_eviction_when_heat_decays_away(self):
        planner = CachePlanner(hot_capacity=64, wave_budget=64)
        tiers = np.array([TIER_HOT, TIER_HOT], dtype=np.int8)
        bytes_ = np.full(2, 32, dtype=np.int64)
        plan = planner.plan(np.zeros(2), tiers, bytes_)
        assert plan.n_promotions == 0 and plan.n_demotions == 2


# ---------------------------------------------------------------------- #
# TieredFactorStore: exact results, accounted misses, promotion waves
# ---------------------------------------------------------------------- #
class TestTieredStore:
    def test_topk_results_identical_to_plain_store(self, fitted, tiny_ratings):
        plain = FactorStore.from_result(fitted.result, n_shards=2)
        tiered = tiered_store(fitted)
        users = np.arange(0, 200, 3)
        expected = plain.recommend_batch(users, k=7, exclude=tiny_ratings.train)
        assert tiered.recommend_batch(users, k=7, exclude=tiny_ratings.train) == expected
        assert ServingCluster.of(tiered).replicas == [tiered]

    def test_first_touch_misses_then_hits_after_promotion(self, fitted):
        tiered = tiered_store(fitted)
        users = np.arange(64)
        tiered.recommend_batch(users, k=5)
        first = tiered.cache_stats
        assert first.hits == 0 and first.warm_misses > 0
        assert first.plans >= 1 and first.promotions > 0
        # The same queries again: the promoted pages now absorb demands.
        tiered.recommend_batch(users, k=5)
        assert tiered.cache_stats.hits > 0
        assert 0.0 < tiered.cache_stats.hit_rate() <= 1.0

    def test_miss_cost_lands_on_the_serving_clock(self, fitted):
        plain = FactorStore.from_result(fitted.result, n_shards=2)
        tiered = tiered_store(fitted)
        users = np.arange(64)
        plain.recommend_batch(users, k=5)
        tiered.recommend_batch(users, k=5)
        assert tiered.cache_stats.miss_seconds > 0.0
        assert tiered.stats.simulated_seconds == pytest.approx(
            plain.stats.simulated_seconds + tiered.cache_stats.miss_seconds
        )

    def test_hot_tier_never_exceeds_capacity(self, fitted):
        tiered = tiered_store(fitted)
        rng = np.random.default_rng(0)
        capacity = tiered._planner.hot_capacity
        for _ in range(5):
            tiered.recommend_batch(rng.integers(0, tiered.n_users, size=64), k=8)
            assert tiered.resident_bytes()["gpu-hot"] <= capacity

    def test_bounded_warm_tier_spills_to_cold_and_pays_cold_reads(self, fitted):
        total = tiered_store(fitted)._pages.total_bytes
        tiered = tiered_store(fitted, warm_bytes=total // 4, cold_latency_s=1e-3)
        rng = np.random.default_rng(1)
        for _ in range(4):
            tiered.recommend_batch(rng.integers(0, tiered.n_users, size=64), k=8)
        stats = tiered.cache_stats
        assert stats.spills > 0 and stats.cold_misses > 0 and stats.demand_fills > 0
        assert tiered.resident_bytes()["host-warm"] <= total // 4
        # Each cold batch paid at least the seek latency.
        assert stats.miss_seconds >= 1e-3


def _reference_page_transfers(machine, partition, table, promotions, demotions) -> list:
    """One transfer per page, its owner searched page by page: what the cache issued before coalescing."""

    def per_page(pages, make, tag):
        return [make(partition.owner_of(int(p) * table.page_items), int(table.page_bytes[p]), tag=tag) for p in pages]

    return per_page(promotions, machine.h2d, "cache-promote") + per_page(demotions, machine.d2h, "cache-demote")


@st.composite
def coalescing_cases(draw):
    """Page sets with repeats, uneven 1–4 shard bounds, one or two sockets, mixed directions."""
    n_items = draw(st.integers(1, 90))
    page_items = draw(st.integers(1, 9))
    n_shards = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, n_items), min_size=n_shards - 1, max_size=n_shards - 1)))
    pages = st.lists(st.integers(0, -(-n_items // page_items) - 1), max_size=16)
    batches = draw(st.lists(st.tuples(pages, pages), min_size=1, max_size=4))
    return n_items, page_items, draw(st.integers(1, 512)), [0, *cuts, n_items], draw(st.booleans()), batches


class TestCoalescedTransfers:
    @settings(max_examples=150, deadline=None)
    @given(case=coalescing_cases())
    def test_one_transfer_per_device_charges_what_one_per_page_charged(self, case):
        """Seconds bitwise equal, bytes moved equal, clock labels equal."""
        n_items, page_items, row_bytes, bounds, dual, batches = case
        n_shards = len(bounds) - 1
        partition = Partition1D(n_items, n_shards, bounds=np.array(bounds))
        table = PageTable(n_items, page_items, row_bytes, "v0")
        store = SimpleNamespace(partition=partition, _pages=table)
        topology = MachineTopology.dual_socket if dual else MachineTopology.single_socket
        reference, coalesced = (MultiGPUMachine(n_shards, topology=topology(n_shards)) for _ in range(2))
        for promotions, demotions in batches:
            promoted, demoted = np.array(promotions, dtype=np.int64), np.array(demotions, dtype=np.int64)
            per_page = _reference_page_transfers(reference, partition, table, promoted, demoted)
            merged = TieredFactorStore._page_transfers(store, promoted, coalesced.h2d, "cache-promote")
            merged += TieredFactorStore._page_transfers(store, demoted, coalesced.d2h, "cache-demote")
            assert len(merged) <= 2 * n_shards
            expected = reference.run_transfers(per_page, label="cache-wave")
            assert np.float64(coalesced.run_transfers(merged, label="cache-wave")).tobytes() == np.float64(expected).tobytes()
        assert coalesced.transfer_engine.total_bytes_moved == reference.transfer_engine.total_bytes_moved
        assert coalesced.clock.breakdown() == reference.clock.breakdown()

    def test_one_touch_fills_with_at_most_one_transfer_per_shard(self, fitted):
        tiered = tiered_store(fitted, plan_window_s=1.0)
        batches = []
        run_transfers = tiered.machine.run_transfers

        def recording(transfers, label="transfer"):
            batches.append((label, len(transfers)))
            return run_transfers(transfers, label=label)

        tiered.machine.run_transfers = recording
        tiered.recommend_batch(np.arange(64), k=8)
        fills = [n for label, n in batches if label == "cache-fill-h2d"]
        assert fills and all(1 <= n <= tiered.n_shards for n in fills)
        assert tiered.cache_stats.warm_misses > tiered.n_shards  # many pages, few transfers


# ---------------------------------------------------------------------- #
# clone + persistence round-trips
# ---------------------------------------------------------------------- #
class TestCloneAndPersistence:
    def test_replicate_carries_tier_configuration(self, fitted):
        tiered = tiered_store(fitted, hysteresis=1.3)
        clone = tiered.replicate()
        assert isinstance(clone, TieredFactorStore)
        assert clone.cache_config == tiered.cache_config
        assert clone.cache_stats.hits == 0  # fresh counters
        assert clone.recommend(5, k=4) == tiered.recommend(5, k=4)

    def test_save_load_round_trips_tier_configuration(self, fitted, tmp_path):
        cache = CacheConfig(
            hot_bytes=4096, warm_bytes=65536, page_items=8, max_wave_bytes=1024, hysteresis=1.25
        )
        tiered = TieredFactorStore.from_result(fitted.result, cache=cache, n_shards=2)
        tiered.save(str(tmp_path))
        loaded = TieredFactorStore.load(str(tmp_path), n_shards=2)
        assert isinstance(loaded, TieredFactorStore)
        assert loaded.cache_config == cache
        assert loaded.recommend(3, k=5) == tiered.recommend(3, k=5)

    def test_save_load_round_trips_none_fields(self, fitted, tmp_path):
        tiered = tiered_store(fitted)  # hot_fraction set, byte fields None
        tiered.save(str(tmp_path))
        loaded = TieredFactorStore.load(str(tmp_path))
        assert loaded.cache_config == tiered.cache_config
        assert loaded.cache_config.hot_bytes is None
        assert loaded.cache_config.warm_bytes is None

    def test_plain_store_load_ignores_cache_extras(self, fitted, tmp_path):
        tiered = tiered_store(fitted)
        tiered.save(str(tmp_path))
        plain = FactorStore.load(str(tmp_path))
        assert type(plain) is FactorStore
        np.testing.assert_array_equal(plain.theta, tiered.theta)


# ---------------------------------------------------------------------- #
# cluster + config + service wiring
# ---------------------------------------------------------------------- #
class TestClusterAndServeWiring:
    def test_cluster_from_result_with_tiered_store_cls(self, fitted):
        cluster = ServingCluster.from_result(
            fitted.result,
            n_replicas=2,
            store_cls=TieredFactorStore,
            cache=CacheConfig(**CFG),
            n_shards=2,
        )
        assert all(isinstance(rep, TieredFactorStore) for rep in cluster.replicas)
        for _ in range(4):
            cluster.recommend_batch(np.arange(48), k=5)
        stats = cluster.stats_dict()
        assert stats["cache"]["misses"] > 0
        assert stats["cache"]["hits"] == sum(
            rep.cache_stats.hits for rep in cluster.replicas
        )
        assert set(stats["cache"]["resident_bytes"]) == {"gpu-hot", "host-warm", "disk-cold"}
        assert stats["cache"]["resident_bytes"]["host-warm"] > 0

    def test_plain_cluster_has_no_cache_block(self, fitted):
        cluster = ServingCluster.from_result(fitted.result, n_replicas=2)
        assert "cache" not in cluster.stats_dict()

    def test_serving_config_coerces_and_validates_cache(self):
        config = ServingConfig(cache={"hot_fraction": 0.3})
        assert isinstance(config.cache, CacheConfig)
        with pytest.raises(ValueError, match="not both"):
            ServingConfig(cache={"hot_bytes": 1, "hot_fraction": 0.5})
        assert ServingConfig().cache is None

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_serve_builds_tiered_backends(self, fitted, tiny_ratings, replicas):
        service = fitted.serve(
            ServingConfig(replicas=replicas, cache=CacheConfig(**CFG), ratings=tiny_ratings.train)
        )
        units = service.backend.serving_units()
        assert len(units) == replicas
        assert all(isinstance(unit, TieredFactorStore) for unit in units)
        service.recommend(0, k=5).raise_for_status()
        assert "cache" in service.stats()

    def test_serve_without_cache_builds_plain_stores(self, fitted):
        service = fitted.serve(ServingConfig(replicas=1))
        assert type(service.backend.replicas[0]) is FactorStore


# ---------------------------------------------------------------------- #
# simulator: TrafficReport.cache from both replay loops
# ---------------------------------------------------------------------- #
class TestSimulatorCacheReporting:
    def test_fast_loop_reports_cache_deltas(self, fitted):
        tiered = tiered_store(fitted)
        trace = QueryTrace.poisson(400, 5_000.0, tiered.n_users, seed=2, user_exponent=1.1)
        sim = RequestSimulator(tiered, k=5, max_batch=64, window_s=0.002)
        report = sim.run(trace)
        assert report.cache["hits"] + report.cache["misses"] > 0
        assert report.cache["hit_rate"] == pytest.approx(
            report.cache["hits"] / (report.cache["hits"] + report.cache["misses"])
        )
        assert "cache" in report.summary()
        # A second replay reports only its own deltas.
        again = sim.run(trace)
        assert again.cache["hits"] == tiered.cache_stats.hits - report.cache["hits"]

    def test_plain_backend_reports_empty_cache(self, fitted):
        plain = FactorStore.from_result(fitted.result, n_shards=2)
        trace = QueryTrace.poisson(100, 5_000.0, plain.n_users, seed=2)
        report = RequestSimulator(plain, k=5).run(trace)
        assert report.cache == {}
        assert "cache" not in report.summary()

    def test_scheduled_loop_reports_cache_deltas(self, fitted):
        tiered = tiered_store(fitted)
        trace = QueryTrace.multi_tenant(
            {"free": 2_000.0, "pro": 2_000.0}, 0.1, tiered.n_users, seed=3
        )
        sim = RequestSimulator(
            tiered,
            k=5,
            max_batch=64,
            window_s=0.002,
            policies=[TenantPolicy(tenant="free", weight=1.0), TenantPolicy(tenant="pro", weight=2.0)],
        )
        report = sim.run(trace)
        assert report.cache["hits"] + report.cache["misses"] > 0


# ---------------------------------------------------------------------- #
# observability
# ---------------------------------------------------------------------- #
class TestCacheObservability:
    def test_counters_gauges_and_wave_spans(self, fitted):
        tiered = tiered_store(fitted)
        with obs.observed() as (registry, tracer):
            for _ in range(3):
                tiered.recommend_batch(np.arange(64), k=5)
            assert registry.value("cache.misses", subsystem="serving") > 0
            assert registry.value("cache.hits", subsystem="serving") > 0
            assert registry.value("cache.promotions", subsystem="serving") > 0
            hot = registry.value("cache.resident_bytes", subsystem="serving", tier="gpu-hot")
            assert hot == tiered.resident_bytes()["gpu-hot"] > 0
            waves = [s for s in tracer.spans if s.category == "cache" and s.phase == "X"]
            assert waves and all(s.track == "cache" for s in waves)

    def test_disabled_obs_is_silent_but_counters_still_accrue(self, fitted):
        tiered = tiered_store(fitted)
        tiered.recommend_batch(np.arange(32), k=5)
        assert tiered.cache_stats.misses > 0


# ---------------------------------------------------------------------- #
# zero cost when disabled, by counting
# ---------------------------------------------------------------------- #
class TestDisabledCacheCounting:
    def test_disabled_cache_never_builds_or_calls_the_cache(self, fitted, tiny_ratings, tmp_path, monkeypatch):
        """With ``cache=None`` a replay and a full service round touch no cache code at all."""

        def sentinel(name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} called with the cache disabled")

            return called

        for cls in (PageTable, HeatSketch, CachePlanner):
            monkeypatch.setattr(cls, "__init__", sentinel(f"{cls.__name__}()"))
        monkeypatch.setattr(TieredFactorStore, "_touch", sentinel("TieredFactorStore._touch"))

        service = fitted.serve(ServingConfig(replicas=2, n_shards=2, registry_dir=str(tmp_path), ratings=tiny_ratings.train))
        assert all(type(unit) is FactorStore for unit in service.backend.serving_units())
        trace = QueryTrace.poisson(300, 20_000.0, service.n_users, seed=4)
        assert service.simulate(trace, k=5).n_requests == 300
        service.recommend(0, k=5).raise_for_status()
        service.rate(0, np.array([1]), np.array([4.0])).raise_for_status()
        service.fold_in(np.array([2, 3]), np.array([5.0, 4.0]))
        service.refresh()
        events = service.plan_rollout(start_s=0.25 * trace.duration, step_s=0.2 * trace.duration)
        report = service.simulate(trace, events, k=5, exclude=None)
        assert report.n_dropped == 0 and report.cache == {}
