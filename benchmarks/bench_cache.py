"""Tiered factor cache: monotone hit-rate/p95 sweep and zero-cost pins.

Two families of acceptance pins for :mod:`repro.serving.cache`:

* **Monotonicity** — replaying one Zipf-skewed trace against the same
  snapshot at increasing hot-tier resident fractions, the cache hit
  rate is non-decreasing and the simulated p95 batch latency is
  non-increasing: more resident bytes never serve traffic worse.
* **Zero cost when disabled** — a service built with ``cache=None``
  replays byte-identically to a raw :class:`FactorStore` (every
  deterministic :class:`TrafficReport` aggregate equal, no cache block)
  and the dormant wiring costs <5% wall.  And with the cache *enabled*,
  the recommendations themselves are bitwise identical to the plain
  store — tiering only re-prices page residency, never the numerics.
* **Host cost of the demand path** — at serve-lifecycle's shape
  (4000×3000, f=16, 2 shards, ``page_items=64``, 64-query blocks) one
  block's missed pages go as at most one fill transfer per shard.  The
  report gives the host wall of a block and of its ``_touch``.  Best of
  5 rounds of 200 blocks, 3 alternating runs, 2-vCPU VM, one BLAS
  thread: one transfer per page took 1186–1306 µs/block, of which
  ``_touch`` 405–446 µs; one transfer per device takes 927–993 µs/block,
  of which ``_touch`` 166–194 µs.
"""

import time

import numpy as np
import pytest

from repro.core.config import FitResult
from repro.datasets.synthetic import powerlaw_weights
from repro.serving import (
    CacheConfig,
    FactorStore,
    RecommenderService,
    RequestSimulator,
    TieredFactorStore,
)
from repro.serving.simulator import QueryTrace

M_USERS = 3_000
N_ITEMS = 8_000
F = 32
N_REQUESTS = 600
RATE_QPS = 3_000.0
HOT_FRACTIONS = [0.05, 0.15, 0.35, 0.7, 1.0]
ROUNDS = 7
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def result():
    """Random factors with a power-law popularity head on the items.

    The first factor column carries Zipf-distributed item "quality"
    against a unit user column, so every user's top-k gravitates to the
    same head items — the regime a hot tier exists for.
    """
    rng = np.random.default_rng(17)
    x = rng.random((M_USERS, F))
    theta = rng.random((N_ITEMS, F))
    x[:, 0] = 1.0
    theta[:, 0] = 50.0 * powerlaw_weights(N_ITEMS, 1.2, rng) * N_ITEMS
    return FitResult(x=x, theta=theta, solver="bench-random")


@pytest.fixture(scope="module")
def trace():
    return QueryTrace.poisson(
        n_requests=N_REQUESTS, rate_qps=RATE_QPS, n_users=M_USERS, seed=23, user_exponent=1.1
    )


def cached_store(result, hot_fraction: float) -> TieredFactorStore:
    cache = CacheConfig(
        hot_fraction=hot_fraction,
        page_items=64,
        plan_window_s=1e-4,
        # Bound the warm tier so low hot fractions also pay cold reads.
        warm_bytes=int(0.5 * N_ITEMS * F * 4),
        cold_latency_s=1e-4,
    )
    return TieredFactorStore.from_result(result, cache=cache, n_shards=4)


def report_key(report) -> tuple:
    """Every deterministic aggregate of a TrafficReport (wall time excluded)."""
    return (
        report.n_requests,
        report.n_batches,
        report.mean_batch_size,
        report.makespan_s,
        report.throughput_qps,
        report.service_seconds,
        report.latency_p50_s,
        report.latency_p95_s,
        report.latency_max_s,
        report.per_replica_queries,
        report.per_replica_busy_s,
        report.per_replica_utilization,
        report.n_dropped,
        tuple(sorted(report.cache.items())),
    )


def test_hit_rate_and_p95_monotone_in_resident_fraction(result, trace, report):
    """Acceptance pin: more hot bytes => more hits and no worse p95."""
    rows = []
    for fraction in HOT_FRACTIONS:
        sim = RequestSimulator(cached_store(result, fraction), k=10, max_batch=64, window_s=0.005)
        replay = sim.run(trace)
        assert replay.cache, "tiered replay must report cache deltas"
        rows.append((fraction, replay.cache["hit_rate"], replay.latency_p95_s))

    body = "\n".join(
        "hot %4.0f%%: hit rate %6.2f%%   p95 %8.4f ms" % (f * 100, h * 100, p * 1e3)
        for f, h, p in rows
    )
    report("tiered cache sweep, %d requests @ %.0f qps" % (N_REQUESTS, RATE_QPS), body)

    hit_rates = [h for _, h, _ in rows]
    p95s = [p for _, _, p in rows]
    for i in range(1, len(rows)):
        assert hit_rates[i] >= hit_rates[i - 1] - 1e-9, (
            f"hit rate fell growing the hot tier: {rows[i - 1]} -> {rows[i]}"
        )
        assert p95s[i] <= p95s[i - 1] * 1.02, (
            f"p95 rose growing the hot tier: {rows[i - 1]} -> {rows[i]}"
        )
    # End to end the sweep must actually move both needles.
    assert hit_rates[-1] > hit_rates[0]
    assert p95s[-1] < p95s[0]


def test_cached_recommendations_bitwise_identical(result, report):
    """Pin: the cache re-prices residency but never changes an answer."""
    plain = FactorStore.from_result(result, n_shards=4)
    tiered = cached_store(result, 0.2)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(4):
        users = rng.integers(0, M_USERS, size=64)
        assert tiered.recommend_batch(users, k=10) == plain.recommend_batch(users, k=10)
        checked += len(users)
    assert tiered.cache_stats.misses > 0  # the cache really was in the path
    report(
        "cache on == cache off (recommendations)",
        "%d users' top-10 bitwise identical; tiered path took %d misses, "
        "%d promotions" % (checked, tiered.cache_stats.misses, tiered.cache_stats.promotions),
    )


def test_disabled_cache_replay_identical(result, trace, report):
    """Pin: ``cache=None`` leaves the replay aggregates byte-identical."""
    raw = RequestSimulator(FactorStore.from_result(result, n_shards=4), k=10).run(trace)
    service = RecommenderService(FactorStore.from_result(result, n_shards=4))
    wired = service.simulate(trace, k=10)
    assert raw.cache == {} and wired.cache == {}
    assert report_key(raw) == report_key(wired)
    report(
        "cache disabled == never wired (TrafficReport)",
        "all %d aggregate fields identical over %d requests"
        % (len(report_key(raw)), raw.n_requests),
    )


def test_disabled_cache_overhead_under_5_percent(result, trace, report):
    """Acceptance pin: the dormant cache hooks cost <5% wall on replay."""
    def run_raw():
        RequestSimulator(FactorStore.from_result(result, n_shards=4), k=10).run(trace)

    def run_wired():
        RecommenderService(FactorStore.from_result(result, n_shards=4)).simulate(trace, k=10)

    run_raw()
    run_wired()
    wall_raw = wall_wired = float("inf")
    for _ in range(ROUNDS):
        wall0 = time.perf_counter()
        run_raw()
        wall_raw = min(wall_raw, time.perf_counter() - wall0)
        wall0 = time.perf_counter()
        run_wired()
        wall_wired = min(wall_wired, time.perf_counter() - wall0)

    overhead = wall_wired / wall_raw - 1.0
    report(
        "dormant cache wall overhead, %d requests" % N_REQUESTS,
        "raw store: %8.3f ms/replay\nwired off: %8.3f ms/replay\noverhead: %+7.2f%%"
        % (wall_raw * 1e3, wall_wired * 1e3, overhead * 100.0),
    )
    assert overhead < MAX_OVERHEAD, (
        f"disabled cache path costs {overhead:.1%} wall over the raw store "
        f"(threshold {MAX_OVERHEAD:.0%})"
    )


def test_lifecycle_shape_touch_cost(report):
    """Pin: one block's page fills go as at most one transfer per shard."""
    rng = np.random.default_rng(29)
    users, items, f, shards = 4000, 3000, 16, 2
    shaped = FitResult(x=rng.standard_normal((users, f)), theta=rng.standard_normal((items, f)), solver="bench-random")
    blocks = [rng.integers(0, users, size=64) for _ in range(200)]
    cache = CacheConfig(hot_fraction=0.2, page_items=64, plan_window_s=5e-4)

    def one_round():
        """Per-block wall of the whole block and of its ``_touch``, plus each fill's transfer count."""
        store = TieredFactorStore.from_result(shaped, cache=cache, n_shards=shards)
        spent, fills, sizes = [0.0], [], {}
        touch, estimate, charge_transfers = store._touch, store.machine.transfer_engine.estimate, store.machine.charge_transfers

        def timed_touch(touched):
            wall0 = time.perf_counter()
            touch(touched)
            spent[0] += time.perf_counter() - wall0

        def pricing(transfers):
            report = estimate(transfers)
            sizes[id(report)] = len(transfers)
            return report

        def counted(report, label="transfer"):
            if label == "cache-fill-h2d":
                fills.append(sizes[id(report)])
            return charge_transfers(report, label=label)

        store._touch, store.machine.transfer_engine.estimate, store.machine.charge_transfers = timed_touch, pricing, counted
        wall0 = time.perf_counter()
        for block in blocks:
            store.recommend_batch(block, k=10)
        return (time.perf_counter() - wall0) / len(blocks), spent[0] / len(blocks), store.cache_stats.misses, fills

    rounds = [one_round() for _ in range(5)]
    _, _, misses, fills = rounds[0]
    report(
        "tiered cache demand path at the lifecycle shape (%d blocks of 64)" % len(blocks),
        "recommend_batch: %7.1f us/block\n_touch:          %7.1f us/block\n%d page misses, %d fill transfers"
        % (min(r[0] for r in rounds) * 1e6, min(r[1] for r in rounds) * 1e6, misses, sum(fills)),
    )
    assert fills and max(fills) <= shards
    assert misses > sum(fills)
