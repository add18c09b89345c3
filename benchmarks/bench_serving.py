"""Serving-tier benchmarks: batched top-k vs the looped single-user path.

The headline number is the one that justifies the serving subsystem:
at B=256 the batched engine reads each Θ shard once per *batch* instead
of once per *query*, so its simulated per-query cost is well over an
order of magnitude below the looped path (the same economics that make
batching mandatory on real GPU serving tiers).  Host wall-clock gains
are smaller — a laptop has no device to amortise — but must stay
measurable, so both ratios are asserted.

Host wall of one 256-user ``recommend_batch`` (one thread of a 2-vCPU
x86_64 VM, NumPy 2.4, ``OPENBLAS_NUM_THREADS=1``).  The first table was
taken before and after selection scanned only the candidate groups,
sorted on one int64 key and scored each shard in place (median of three
pytest-benchmark medians):

=========================================  ========  ========
case                                       before    after
=========================================  ========  ========
uniform [0, 1), 20k items                  12.8 ms   9.6 ms
uniform [0, 1), 20k items, masked          12.9 ms   9.7 ms
N(0, 1), 10k items, masked (replay shape)  7.7 ms    5.9 ms
=========================================  ========  ========

The second was taken before and after answers stayed arrays (a ``TopK``
boxes a row only when it is read) and each distinct user of a batch was
scored once (median of six pytest-benchmark medians, the two sides run
alternately on a shared VM, so the spread between runs is ~±1 ms).
Uniform users almost never repeat within 256 queries; a power-law trace
batch repeats a user in 48 of its 256 queries:

===============================================  ========  ========
case                                             before    after
===============================================  ========  ========
uniform [0, 1), 20k items                        9.0 ms    9.1 ms
uniform [0, 1), 20k items, masked                10.0 ms   8.8 ms
N(0, 1), 10k items, masked, uniform users        6.2 ms    5.1 ms
N(0, 1), 10k items, masked, power-law trace      6.0 ms    4.6 ms
===============================================  ========  ========

The third was taken before and after each store kept an answer table, so
that a user is scored once per snapshot instead of once per batch.  Every
round now runs on a fresh ``replicate()``: on one store, every round
after the first would time table lookups.  The one-batch cases score
every distinct user of their batch on both sides, so they should not
move; they stay within the ~±1 ms spread between runs (allocating and
filling a fresh 5,000-user table for one batch takes ~55 µs).  The
replay of 20k uniform queries over 5,000 users scores its 4,897
distinct users once each instead of ~19,500 rows (median of three
pytest-benchmark medians; the replay row is the median of three
5-round medians):

===============================================  ========  ========
case                                             before    after
===============================================  ========  ========
uniform [0, 1), 20k items                        6.9 ms    7.6 ms
uniform [0, 1), 20k items, masked                6.7 ms    7.5 ms
N(0, 1), 10k items, masked, uniform users        4.5 ms    4.8 ms
N(0, 1), 10k items, masked, power-law trace      4.0 ms    4.1 ms
looped, 32 single-user calls, 20k items          15.3 ms   15.1 ms
replay, 20k uniform queries, one replica         405 ms    148 ms
===============================================  ========  ========
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
REPLAY_QUERIES = 20_000  # one e2e serve-replay trace
ROUNDS = 15


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


@pytest.fixture(scope="module")
def replay_store():
    """The e2e serve-replay store: N(0, 1) factors, 10k items."""
    rng = np.random.default_rng(17)
    return FactorStore(rng.standard_normal((M_USERS, F)), rng.standard_normal((REPLAY_ITEMS, F)), n_shards=N_SHARDS)


@pytest.fixture(scope="module")
def replay_seen():
    return _seen(REPLAY_ITEMS)


def _assert_masked_topk(users, recs, seen):
    assert len(recs) == len(users) and all(len(row) == TOPK for row in recs)
    for user, row in zip(users, recs):
        assert not set(seen.row(int(user))[0].tolist()) & {item for item, _ in row}


@pytest.fixture()
def store(result):
    return FactorStore.from_result(result, n_shards=N_SHARDS)


def _on_fresh_replicas(benchmark, store, call, *args):
    """Time ``call(replica, *args)`` on a fresh replica of ``store`` each round.

    A store answers a user it has scored before from its answer table,
    so timing rounds on one store would time table lookups after the
    first; the untimed ``setup`` hands every round an empty table.
    """
    return benchmark.pedantic(call, setup=lambda: ((store.replicate(), *args), {}), rounds=ROUNDS, warmup_rounds=1)


def test_bench_recommend_batch(benchmark, store, users):
    recs = _on_fresh_replicas(benchmark, store, FactorStore.recommend_batch, users, TOPK)
    assert len(recs) == BATCH and len(recs[0]) == TOPK


def test_bench_recommend_batch_masked(benchmark, store, users, seen):
    recs = _on_fresh_replicas(benchmark, store, FactorStore.recommend_batch, users, TOPK, seen)
    _assert_masked_topk(users, recs, seen)


def test_bench_recommend_batch_replay_shape(benchmark, replay_store, replay_seen, users):
    """The e2e serve-replay batch shape with uniform users (almost no user repeats): every query masked."""
    recs = _on_fresh_replicas(benchmark, replay_store, FactorStore.recommend_batch, users, TOPK, replay_seen)
    _assert_masked_topk(users, recs, replay_seen)


def test_bench_recommend_batch_replay_trace(benchmark, replay_store, replay_seen):
    """A serve-replay batch drawn from a power-law Poisson trace: 48 of its 256 queries repeat a user."""
    users = QueryTrace.poisson(BATCH, 2.0e6, M_USERS, seed=19, user_exponent=0.8).users
    recs = _on_fresh_replicas(benchmark, replay_store, FactorStore.recommend_batch, users, TOPK, replay_seen)
    _assert_masked_topk(users, recs, replay_seen)
    first = {}
    for user, row in zip(users.tolist(), recs):
        assert first.setdefault(user, row) == row


def test_bench_replay_one_replica(benchmark, replay_store, replay_seen):
    """The e2e serve-replay shape end to end: 20k uniform queries through one replica, seen items masked.

    Each distinct user of the trace is scored exactly once; every other
    query reads the replica's answer table.
    """
    rng = np.random.default_rng(23)
    trace = QueryTrace(np.cumsum(rng.exponential(1 / 1.2e6, REPLAY_QUERIES)), rng.integers(0, M_USERS, REPLAY_QUERIES))
    scored_per_round = []

    def fresh_replica():
        replica = replay_store.replicate()
        scored = []
        score_block = replica._score_block

        def counted(block, exclude):
            scored.append(block)
            return score_block(block, exclude)

        replica._score_block = counted
        scored_per_round.append(scored)
        return (RequestSimulator(replica, k=TOPK, exclude=replay_seen, max_batch=BATCH, window_s=1e-3), trace), {}

    report = benchmark.pedantic(RequestSimulator.run, setup=fresh_replica, rounds=3)
    assert report.n_requests == REPLAY_QUERIES
    for scored in scored_per_round:
        np.testing.assert_array_equal(np.sort(np.concatenate(scored)), np.unique(trace.users))


def test_bench_recommend_looped(benchmark, store, users):
    def looped(replica):
        return [replica.recommend(int(u), k=TOPK) for u in users[:32]]

    recs = _on_fresh_replicas(benchmark, store, looped)
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
    # take the best of three rounds, each on fresh replicas: a store answers
    # a user it has scored from its answer table, so a second round on the
    # same store would time lookups.  The simulated cost is deterministic,
    # so one round's clock delta is representative.
    batched.recommend_batch(users, k=TOPK)
    looped.recommend(int(users[0]), k=TOPK)

    wall_batched = float("inf")
    for _ in range(3):
        replica = batched.replicate()
        wall0 = time.perf_counter()
        replica.recommend_batch(users, k=TOPK)
        wall_batched = min(wall_batched, time.perf_counter() - wall0)
        sim_batched = replica.stats.simulated_seconds

    wall_looped = float("inf")
    for _ in range(3):
        replica = looped.replicate()
        wall0 = time.perf_counter()
        for u in users:
            replica.recommend(int(u), k=TOPK)
        wall_looped = min(wall_looped, time.perf_counter() - wall0)
        sim_looped = replica.stats.simulated_seconds

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
