"""FactorStore: sharding, batched top-k, persistence, trainer delegation."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALSConfig, CuMF
from repro.core.checkpoint import CheckpointManager
from repro.gpu.machine import MultiGPUMachine
from repro.serving import FactorStore, ServingConfig, TieredFactorStore
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def fitted(tiny_ratings):
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=3, seed=1, row_batch=128), backend="base")
    model.fit(tiny_ratings.train, tiny_ratings.test)
    return model


@pytest.fixture()
def store(fitted):
    return fitted.serve(ServingConfig(n_shards=3, log=False)).backend.replicas[0]


class TestConstruction:
    def test_from_result_takes_lam_and_solver(self, fitted):
        store = FactorStore.from_result(fitted.result)
        assert store.lam == fitted.result.config.lam
        assert store.solver == fitted.result.solver
        assert store.n_users == fitted.result.x.shape[0]
        assert store.n_items == fitted.result.theta.shape[0]

    def test_shards_cover_theta(self, fitted):
        store = fitted.serve(ServingConfig(n_shards=4, log=False)).backend.replicas[0]
        rebuilt = np.concatenate(store._shards, axis=0)
        np.testing.assert_array_equal(rebuilt, store.theta.astype(store.score_dtype))
        assert store.partition.bounds[-1] == store.n_items

    def test_machine_defines_shard_count(self, fitted):
        machine = MultiGPUMachine(n_gpus=2)
        store = FactorStore.from_result(fitted.result, machine=machine)
        assert store.n_shards == 2
        with pytest.raises(ValueError):
            FactorStore.from_result(fitted.result, machine=machine, n_shards=3)

    def test_bad_factor_shapes_rejected(self):
        with pytest.raises(ValueError):
            FactorStore(np.zeros((4, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            FactorStore(np.zeros(4), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            FactorStore(np.zeros((4, 3)), np.zeros((5, 3)), lam=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factors_rejected(self, bad):
        # A diverged fit's NaN row would rank first in selection and then
        # vanish at boxing: its users would silently get fewer than k items.
        poisoned = np.ones((5, 3))
        poisoned[4, 2] = bad
        with pytest.raises(ValueError, match="x has non-finite"):
            FactorStore(poisoned, np.ones((6, 3)))
        with pytest.raises(ValueError, match="theta has non-finite"):
            FactorStore(np.ones((4, 3)), poisoned)

    def test_load_rejects_non_finite_checkpoint(self, tmp_path):
        theta = np.ones((6, 3))
        theta[0, 0] = np.nan
        CheckpointManager(str(tmp_path)).save(0, np.ones((4, 3)), theta)
        with pytest.raises(ValueError, match="theta has non-finite"):
            FactorStore.load(str(tmp_path))

    def test_store_is_a_snapshot(self, fitted):
        x_before = fitted.result.x.copy()
        store = fitted.serve(ServingConfig(log=False)).backend.replicas[0]
        try:
            fitted.result.x += 1.0  # training-side mutation must not leak into serving
            np.testing.assert_array_equal(store.x, x_before)
        finally:
            fitted.result.x -= 1.0


class TestBatchedTopK:
    def test_batch_matches_looped_recommend(self, fitted, store, tiny_ratings):
        users = np.arange(50)
        batch = store.recommend_batch(users, k=7, exclude=tiny_ratings.train)
        for u, got in zip(users, batch):
            want = fitted.recommend(int(u), k=7, exclude=tiny_ratings.train)
            assert [i for i, _ in got] == [i for i, _ in want]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-5
            )

    def test_single_and_batch_share_one_path(self, store):
        users = np.array([3, 3, 11])
        batch = store.recommend_batch(users, k=5)
        assert batch[0] == batch[1]  # duplicate queries in one batch are identical
        # A batch of one IS the single-user path, bit for bit.
        assert store.recommend_batch(np.array([11]), k=5) == [store.recommend(11, k=5)]
        # Across batch sizes the ranking is identical; scores agree to float32
        # rounding (BLAS picks different kernels for different batch sizes).
        single = store.recommend(3, k=5)
        assert [i for i, _ in batch[0]] == [i for i, _ in single]
        np.testing.assert_allclose(
            [s for _, s in batch[0]], [s for _, s in single], rtol=0, atol=1e-5
        )

    def test_exclusion_masks_seen_items(self, store, tiny_ratings):
        for u, recs in enumerate(store.recommend_batch(np.arange(20), k=10, exclude=tiny_ratings.train)):
            rated = set(tiny_ratings.train.row(u)[0].tolist())
            assert not rated & {i for i, _ in recs}
            scores = [s for _, s in recs]
            assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_items_is_capped(self, store):
        recs = store.recommend(0, k=10**6)
        assert len(recs) == store.n_items

    def test_validation(self, store, tiny_ratings):
        with pytest.raises(ValueError, match="out of range"):
            store.recommend_batch(np.array([store.n_users]))
        with pytest.raises(ValueError, match="out of range"):
            store.recommend(-1)
        with pytest.raises(ValueError):
            store.recommend_batch(np.array([0]), k=0)
        bad_exclude = tiny_ratings.train.col_slice(0, 10)
        with pytest.raises(ValueError, match="one column per item"):
            store.recommend_batch(np.array([0]), exclude=bad_exclude)
        short_exclude = tiny_ratings.train.row_slice(0, 5)
        with pytest.raises(ValueError, match="5 rows"):
            store.recommend_batch(np.array([0]), exclude=short_exclude)
        with pytest.raises(ValueError, match="integer"):
            store.recommend_batch(np.array([3.9]))
        with pytest.raises(ValueError, match="integer"):
            store.recommend(0.5)  # type: ignore[arg-type]

    def test_user_blocking_is_invisible(self, store):
        users = np.arange(40)
        whole = store.recommend_batch(users, k=4)
        blocked = store.recommend_batch(users, k=4, user_block=7)
        assert whole == blocked


def _oracle_topk(x, theta, users, k, seen_of):
    """Plain-NumPy top-k: exact integer scores, ties by ascending item id."""
    out = []
    for user in users:
        scores = (x[user] @ theta.T).astype(np.float64)
        scores[seen_of(user)] = -np.inf
        order = np.lexsort((np.arange(scores.size), -scores))[:k]
        out.append([(int(i), float(scores[i])) for i in order if np.isfinite(scores[i])])
    return out


class TestTopKTieRule:
    """``recommend_batch`` equals a plain-NumPy oracle exactly, ties included.

    Small-integer factors are exact in float32, so every GEMM blocking
    yields the same scores and equal scores are common: the order among
    them must be ascending item id, whatever the shard count, block size,
    batch composition or masking.
    """

    @pytest.mark.parametrize("store_cls", [FactorStore, TieredFactorStore])
    @settings(max_examples=60, deadline=None)
    @given(
        n_shards=st.integers(1, 4),
        n_items=st.one_of(st.integers(1, 12), st.integers(1, 300)),
        f=st.integers(1, 4),
        n_trained=st.integers(2, 12),
        n_folded=st.integers(0, 3),
        k_extra=st.integers(0, 3),
        k_frac=st.floats(0.0, 1.0),
        batch=st.integers(1, 40),
        user_block=st.integers(1, 64),
        masked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_lexsort_oracle(self, store_cls, n_shards, n_items, f, n_trained, n_folded, k_extra, k_frac, batch, user_block, masked, seed):
        n_shards = min(n_shards, n_items)
        rng = np.random.default_rng(seed)
        n_users = n_trained + n_folded
        x = rng.integers(-3, 4, size=(n_users, f))
        theta = rng.integers(-3, 4, size=(n_items, f))
        store = store_cls(x, theta, n_shards=n_shards)
        # Rows above n_trained are fold-in users: their seen items come
        # from the store's fold-in bookkeeping, not the exclude matrix.
        folded = {n_trained + j: np.unique(rng.integers(0, n_items, rng.integers(1, 6))) for j in range(n_folded)}
        store._restore_fold_state(n_trained, folded)
        # Trained user 0 has rated every item; the rest a few (duplicates allowed).
        nnz = int(rng.integers(0, 4 * n_trained))
        rows = np.concatenate([np.zeros(n_items, dtype=np.int64), rng.integers(1, n_trained, nnz)])
        cols = np.concatenate([np.arange(n_items), rng.integers(0, n_items, nnz)])
        exclude = CSRMatrix.from_arrays((n_trained, n_items), rows, cols, np.ones(rows.size))

        def seen_of(user):
            if not masked:
                return np.empty(0, dtype=np.int64)
            return folded[user] if user >= n_trained else exclude.row(user)[0]

        users = rng.integers(0, n_users, batch)  # duplicates are likely
        users[rng.integers(0, batch)] = 0
        k = max(1, int(k_frac * n_items)) + k_extra  # k > n_items included
        got = store.recommend_batch(users, k=k, exclude=exclude if masked else None, user_block=user_block)
        assert got == _oracle_topk(x, theta, users, k, seen_of)
        if masked:
            assert all(recs == [] for user, recs in zip(users, got) if user == 0)


class TestSimulatedTime:
    def test_batches_advance_the_clock(self, fitted):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]
        assert store.stats.simulated_seconds == 0.0
        store.recommend_batch(np.arange(32), k=5)
        assert store.stats.queries == 32
        assert store.stats.batches == 1
        assert store.stats.simulated_seconds > 0.0
        assert store.machine.elapsed_seconds() == pytest.approx(store.stats.simulated_seconds)

    def test_batching_amortizes_theta_reads(self):
        """Per-query simulated time at B=256 must be >=10x cheaper than B=1.

        Batch serving reads each Θ shard once per batch instead of once
        per query — the core economics of the serving tier.
        """
        rng = np.random.default_rng(0)
        x = rng.random((2000, 32))
        theta = rng.random((8000, 32))
        batched = FactorStore(x, theta, n_shards=4)
        looped = FactorStore(x, theta, n_shards=4)
        users = rng.integers(0, 2000, size=256)
        batched.recommend_batch(users, k=10)
        for u in users:
            looped.recommend(int(u), k=10)
        per_query_batched = batched.stats.simulated_seconds / 256
        per_query_looped = looped.stats.simulated_seconds / 256
        assert per_query_looped / per_query_batched >= 10.0


class TestPersistence:
    def test_save_load_roundtrip(self, store, tmp_path):
        path = store.save(str(tmp_path))
        assert path.endswith(".npz")
        reloaded = FactorStore.load(str(tmp_path), n_shards=2, lam=store.lam)
        np.testing.assert_array_equal(reloaded.x, store.x)
        np.testing.assert_array_equal(reloaded.theta, store.theta)
        assert reloaded.recommend(0, k=5) == store.recommend(0, k=5)

    def test_save_load_preserves_fold_in_hyperparameters(self, fitted, tmp_path):
        store = FactorStore.from_result(fitted.result, lam=0.7, weighted=False)
        store.save(str(tmp_path))
        reloaded = FactorStore.load(str(tmp_path))
        assert reloaded.lam == 0.7
        assert reloaded.weighted is False
        items = np.array([1, 4, 7])
        ratings = np.array([5.0, 3.0, 4.0])
        u_a = store.fold_in(items, ratings)
        u_b = reloaded.fold_in(items, ratings)
        np.testing.assert_array_equal(store.x[u_a], reloaded.x[u_b])

    def test_save_load_preserves_fold_in_state(self, store, tiny_ratings, tmp_path):
        """Reloading a store with fold-ins must keep exclusion behaviour intact.

        The saved X gains one row per folded user, so a reloaded store
        must still know which rows are fold-ins (their item sets live in
        the store, not in the exclude matrix) — otherwise
        ``recommend_batch(exclude=train)`` rejects the exclude matrix for
        having fewer rows than users.
        """
        folded = [
            store.fold_in(*tiny_ratings.train.row(3)),
            store.fold_in(np.array([2, 8, 11]), np.array([5.0, 1.0, 3.0])),
            store.fold_in(np.empty(0, dtype=np.int64), np.empty(0)),  # ratings-less user
        ]
        store.save(str(tmp_path))
        reloaded = FactorStore.load(str(tmp_path))
        assert reloaded.n_users == store.n_users
        assert reloaded._n_trained_users == store._n_trained_users
        for user in folded:
            np.testing.assert_array_equal(reloaded._folded_items[user], store._folded_items[user])
        users = np.concatenate([np.arange(10), np.array(folded)])
        # the exclude matrix still has only trained-user rows: must not raise
        want = store.recommend_batch(users, k=8, exclude=tiny_ratings.train)
        got = reloaded.recommend_batch(users, k=8, exclude=tiny_ratings.train)
        assert got == want
        # fold-in items stay excluded for the folded users after reload
        recs = reloaded.recommend(folded[1], k=reloaded.n_items, exclude=tiny_ratings.train)
        assert not {2, 8, 11} & {i for i, _ in recs}

    def test_load_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no checkpoint"):
            FactorStore.load(str(tmp_path))

    def test_save_into_training_checkpoint_dir_stays_latest(self, store, tiny_ratings, tmp_path):
        """Saving over a mid-training checkpoint dir must not prune anything.

        The retention layer keeps the highest iterations; a store saved at
        a fixed low iteration would be deleted in favour of an existing
        training checkpoint and load() would restore stale factors with no
        fold-in state.  The trainer's own checkpoints must survive too.
        """
        CheckpointManager(str(tmp_path)).save(5, np.zeros((3, 8)), np.zeros((4, 8)))
        user = store.fold_in(np.array([1, 2]), np.array([4.0, 5.0]))
        path = store.save(str(tmp_path))
        assert os.path.exists(path)
        reloaded = FactorStore.load(str(tmp_path))
        assert reloaded.n_users == store.n_users
        np.testing.assert_array_equal(reloaded.x, store.x)
        np.testing.assert_array_equal(reloaded._folded_items[user], store._folded_items[user])
        # the pre-existing training checkpoint was not evicted
        assert CheckpointManager(str(tmp_path)).list_iterations() == [5, 6]

    def test_trainer_pruning_never_evicts_store_snapshot(self, store, tmp_path):
        """A trainer's ``keep=N`` rotation must skip store snapshots (regression).

        Store snapshots are saved ``protected``; before the fix,
        ``CheckpointManager._prune`` deleted the oldest files regardless,
        so a store parked at a low iteration in a shared directory was
        evicted as soon as the trainer checkpointed a few more times.
        """
        store.fold_in(np.array([0, 3]), np.array([4.0, 2.0]))
        snapshot_path = store.save(str(tmp_path))
        manager = CheckpointManager(str(tmp_path), keep=2)
        for iteration in (10, 11, 12, 13):
            manager.save(iteration, np.zeros((3, 8)), np.zeros((4, 8)))
        assert os.path.exists(snapshot_path)
        # the trainer's own rotation still applies to its own files
        assert manager.list_iterations() == [0, 12, 13]
        # the surviving snapshot is intact, fold-in bookkeeping included
        restored = manager.load(0)
        np.testing.assert_array_equal(restored.x, store.x)
        assert int(restored.extras["n_trained_users"]) == store._n_trained_users

    def test_load_from_training_checkpoint(self, tiny_ratings, tmp_path):
        model = CuMF(
            ALSConfig(f=8, lam=0.05, iterations=2, seed=1, row_batch=128),
            backend="base",
            checkpoint_dir=str(tmp_path),
        )
        model.fit(tiny_ratings.train)
        store = FactorStore.load(str(tmp_path))
        np.testing.assert_array_equal(store.x, model.result.x)


class TestPerDeviceAccounting:
    def test_serving_seconds_exclude_other_tenants(self):
        """On a shared machine, stats must count serving kernels only."""
        rng = np.random.default_rng(1)
        x, theta = rng.random((300, 8)), rng.random((900, 8))
        machine = MultiGPUMachine(n_gpus=2)
        tenant = FactorStore(x, theta, machine=machine)
        tenant.recommend_batch(np.arange(16), k=5)  # pre-existing busy time
        store = FactorStore(x, theta, machine=machine)
        store.recommend_batch(np.arange(16), k=5)
        for dev in range(2):
            assert store.stats.per_device_seconds[dev] > 0.0
            # strictly less than the cumulative counter, which includes the tenant
            assert store.stats.per_device_seconds[dev] < machine.device(dev).busy_seconds()
        assert store.stats.per_device_seconds == pytest.approx(tenant.stats.per_device_seconds)

    def test_fold_in_charges_device_zero(self, fitted, tiny_ratings):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]
        store.recommend_batch(np.arange(8), k=3)
        before = dict(store.stats.per_device_seconds)
        store.fold_in(*tiny_ratings.train.row(2))
        assert store.stats.per_device_seconds[0] > before[0]
        assert store.stats.per_device_seconds[1] == before[1]  # solve runs on device 0

    def test_deltas_accumulate_batch_over_batch(self, fitted):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]
        store.recommend_batch(np.arange(8), k=3)
        one_batch = dict(store.stats.per_device_seconds)
        store.recommend_batch(np.arange(8), k=3)
        for dev, seconds in store.stats.per_device_seconds.items():
            assert seconds == pytest.approx(2 * one_batch[dev])
        assert "per_device_seconds" in store.stats.as_dict()


class TestTrainerDelegation:
    def test_predict_matches_factors(self, fitted):
        users = np.array([0, 5, 9])
        items = np.array([1, 2, 3])
        want = np.einsum("ij,ij->i", fitted.result.x[users], fitted.result.theta[items])
        np.testing.assert_allclose(fitted.predict(users, items), want)

    def test_predict_validation(self, fitted):
        with pytest.raises(ValueError, match="user index out of range"):
            fitted.predict(np.array([10**6]), np.array([0]))
        with pytest.raises(ValueError, match="item index out of range"):
            fitted.predict(np.array([0]), np.array([10**6]))

    def test_trainer_recommend_batch(self, fitted, tiny_ratings):
        users = np.array([1, 2])
        batch = fitted.recommend_batch(users, k=3, exclude=tiny_ratings.train)
        for u, got in zip(users, batch):
            want = fitted.recommend(int(u), k=3, exclude=tiny_ratings.train)
            assert [i for i, _ in got] == [i for i, _ in want]

    def test_trainer_passes_user_block_through(self, fitted):
        """The facade must expose the store's score-buffer knob unchanged."""
        users = np.arange(40)
        whole = fitted.recommend_batch(users, k=4)
        blocked = fitted.recommend_batch(users, k=4, user_block=7)
        assert whole == blocked
        store = fitted._serving_store()
        batches_before = store.stats.batches
        fitted.recommend_batch(users, k=4, user_block=10)
        # 40 users at user_block=10 means four scoring blocks, proof the
        # knob reached FactorStore.recommend_batch rather than being dropped
        assert store.stats.batches == batches_before + 4

    def test_refit_invalidates_snapshot(self, tiny_ratings):
        model = CuMF(ALSConfig(f=8, lam=0.05, iterations=1, seed=1, row_batch=128), backend="base")
        model.fit(tiny_ratings.train)
        model.recommend(0, k=3)
        assert model._store is not None
        model.fit(tiny_ratings.train)
        assert model._store is None  # rebuilt lazily from the new result
        assert model.recommend(0, k=3)
