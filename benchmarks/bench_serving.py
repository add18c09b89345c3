"""Serving-tier benchmarks: batched top-k vs the looped single-user path.

The headline number is the one that justifies the serving subsystem:
at B=256 the batched engine reads each Θ shard once per *batch* instead
of once per *query*, so its simulated per-query cost is well over an
order of magnitude below the looped path (the same economics that make
batching mandatory on real GPU serving tiers).  Host wall-clock gains
are smaller — a laptop has no device to amortise — but must stay
measurable, so both ratios are asserted.

Host wall of one 256-user ``recommend_batch`` (median of three
pytest-benchmark medians, one thread of a 2-vCPU x86_64 VM, NumPy 2.4,
``OPENBLAS_NUM_THREADS=1``), before and after selection scanned only the
candidate groups, sorted on one int64 key and scored each shard in place:

=========================================  ========  ========
case                                       before    after
=========================================  ========  ========
uniform [0, 1), 20k items                  12.8 ms   9.6 ms
uniform [0, 1), 20k items, masked          12.9 ms   9.7 ms
N(0, 1), 10k items, masked (replay shape)  7.7 ms    5.9 ms
=========================================  ========  ========
"""

import time

import numpy as np
import pytest

from repro.core.config import FitResult
from repro.serving import FactorStore, QueryTrace, RequestSimulator
from repro.sparse.csr import CSRMatrix

M_USERS = 5_000
N_ITEMS = 20_000
F = 32
BATCH = 256
TOPK = 10
N_SHARDS = 4
SEEN_PER_USER = 25
REPLAY_ITEMS = 10_000  # the e2e serve-replay catalogue


def _factors() -> FitResult:
    rng = np.random.default_rng(7)
    return FitResult(
        x=rng.random((M_USERS, F)),
        theta=rng.random((N_ITEMS, F)),
        solver="bench-random",
    )


@pytest.fixture(scope="module")
def result():
    return _factors()


@pytest.fixture(scope="module")
def users():
    return np.random.default_rng(11).integers(0, M_USERS, size=BATCH)


def _seen(n_items: int) -> CSRMatrix:
    """A seen-item matrix of ~SEEN_PER_USER ratings per user (duplicates merge)."""
    rng = np.random.default_rng(13)
    nnz = SEEN_PER_USER * M_USERS
    rows, cols = rng.integers(0, M_USERS, nnz), rng.integers(0, n_items, nnz)
    return CSRMatrix.from_arrays((M_USERS, n_items), rows, cols, np.ones(nnz))


@pytest.fixture(scope="module")
def seen():
    return _seen(N_ITEMS)


@pytest.fixture()
def store(result):
    return FactorStore.from_result(result, n_shards=N_SHARDS)


def test_bench_recommend_batch(benchmark, store, users):
    recs = benchmark(store.recommend_batch, users, TOPK)
    assert len(recs) == BATCH and len(recs[0]) == TOPK


def test_bench_recommend_batch_masked(benchmark, store, users, seen):
    recs = benchmark(store.recommend_batch, users, TOPK, seen)
    assert len(recs) == BATCH and all(len(row) == TOPK for row in recs)
    for user, row in zip(users, recs):
        assert not set(seen.row(int(user))[0].tolist()) & {item for item, _ in row}


def test_bench_recommend_batch_replay_shape(benchmark, users):
    """The e2e serve-replay batch: N(0, 1) factors, 10k items, every query masked."""
    rng = np.random.default_rng(17)
    store = FactorStore(rng.standard_normal((M_USERS, F)), rng.standard_normal((REPLAY_ITEMS, F)), n_shards=N_SHARDS)
    seen = _seen(REPLAY_ITEMS)
    recs = benchmark(store.recommend_batch, users, TOPK, seen)
    assert len(recs) == BATCH and all(len(row) == TOPK for row in recs)
    for user, row in zip(users, recs):
        assert not set(seen.row(int(user))[0].tolist()) & {item for item, _ in row}


def test_bench_recommend_looped(benchmark, store, users):
    def looped():
        return [store.recommend(int(u), k=TOPK) for u in users[:32]]

    recs = benchmark(looped)
    assert len(recs) == 32


def test_bench_traffic_replay(benchmark, store):
    trace = QueryTrace.poisson(1_000, 20_000.0, M_USERS, seed=3)
    sim = RequestSimulator(store, k=TOPK, max_batch=BATCH, window_s=0.01)
    report = benchmark.pedantic(sim.run, args=(trace,), rounds=1, iterations=1)
    assert report.n_requests == 1_000


def test_batched_throughput_beats_looped(result, users, report):
    """Batched top-k must be >=10x the looped path per query (simulated)."""
    batched = FactorStore.from_result(result, n_shards=N_SHARDS)
    looped = FactorStore.from_result(result, n_shards=N_SHARDS)

    # Warm both paths (BLAS thread pools, allocator) before timing, then
    # take the best of three rounds; the simulated cost is deterministic,
    # so one round's clock delta is representative.
    batched.recommend_batch(users, k=TOPK)
    looped.recommend(int(users[0]), k=TOPK)

    wall_batched = float("inf")
    for _ in range(3):
        before = batched.stats.simulated_seconds
        wall0 = time.perf_counter()
        batched.recommend_batch(users, k=TOPK)
        wall_batched = min(wall_batched, time.perf_counter() - wall0)
        sim_batched = batched.stats.simulated_seconds - before

    wall_looped = float("inf")
    for _ in range(3):
        before = looped.stats.simulated_seconds
        wall0 = time.perf_counter()
        for u in users:
            looped.recommend(int(u), k=TOPK)
        wall_looped = min(wall_looped, time.perf_counter() - wall0)
        sim_looped = looped.stats.simulated_seconds - before

    sim_ratio = sim_looped / sim_batched
    wall_ratio = wall_looped / wall_batched
    report(
        "serving throughput, B=%d users x %d items (f=%d, %d shards)" % (BATCH, N_ITEMS, F, N_SHARDS),
        "batched:  %10.0f qps simulated  (%8.0f qps wall)\n"
        "looped:   %10.0f qps simulated  (%8.0f qps wall)\n"
        "speedup:  %9.1fx  simulated     (%7.1fx  wall)"
        % (
            BATCH / sim_batched,
            BATCH / wall_batched,
            BATCH / sim_looped,
            BATCH / wall_looped,
            sim_ratio,
            wall_ratio,
        ),
    )
    assert sim_ratio >= 10.0, f"batched top-k only {sim_ratio:.1f}x the looped path (simulated)"
    # Wall clock on shared CI runners is too noisy for a hard speedup floor
    # (locally ~2.5x); only catch the pathological case of batching losing.
    assert wall_ratio >= 1.0, f"batched top-k slower than the looped path ({wall_ratio:.2f}x wall)"
