"""FactorStore: sharding, batched top-k, persistence through the snapshot registry, trainer delegation."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALSConfig, CuMF
from repro.core.checkpoint import CheckpointManager
from repro.gpu.machine import MultiGPUMachine
from repro.serving import CacheConfig, FactorStore, QueryTrace, RequestSimulator, ServingConfig, TieredFactorStore, TopK
from repro.serving.lifecycle import SnapshotRegistry
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
        rebuilt = np.concatenate(store._model.shards, axis=0)
        np.testing.assert_array_equal(rebuilt, store.theta.astype(np.float32))
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

    @pytest.mark.parametrize("big", [1e39, -1e39])
    def test_factors_beyond_float32_rejected(self, big):
        # 1e39 is finite in float64 but inf in the float32 scoring copy,
        # where it would drop user 0's answers to fewer than k items.
        with pytest.raises(ValueError, match="x has entries beyond the float32 range"):
            FactorStore(np.array([[big, 0.0], [1.0, 1.0]]), np.ones((3, 2)))
        with pytest.raises(ValueError, match="theta has entries beyond the float32 range"):
            FactorStore(np.ones((2, 2)), np.array([[1.0, 1.0], [0.0, big], [1.0, 0.0]]))
        edge = np.finfo(np.float32).max
        assert FactorStore(np.array([[edge, 0.0], [1.0, 1.0]]), np.ones((3, 2))).n_users == 2

    def test_load_rejects_non_finite_checkpoint(self, tmp_path):
        theta = np.ones((6, 3))
        theta[0, 0] = np.nan
        CheckpointManager(str(tmp_path)).save(0, np.ones((4, 3)), theta)
        checkpoint = CheckpointManager(str(tmp_path)).latest()
        with pytest.raises(ValueError, match="theta has non-finite"):
            FactorStore(checkpoint.x, checkpoint.theta)

    def test_store_is_a_snapshot(self, fitted):
        x_before = fitted.result.x.copy()
        store = fitted.serve(ServingConfig(log=False)).backend.replicas[0]
        try:
            fitted.result.x += 1.0  # training-side mutation must not leak into serving
            np.testing.assert_array_equal(store.x, x_before)
        finally:
            fitted.result.x -= 1.0


class TestReplicate:
    @pytest.mark.parametrize("cls", [FactorStore, TieredFactorStore])
    def test_clone_reuses_the_gated_factors(self, fitted, tiny_ratings, monkeypatch, cls):
        source = cls.from_result(fitted.result, n_shards=2)
        source.fold_in(*tiny_ratings.train.row(5))

        def refuse(*args, **kwargs):
            raise AssertionError("replicate() sent gated factors through the gate again")

        monkeypatch.setattr(FactorStore, "_checked_factors", staticmethod(refuse))
        clone = source.replicate()
        monkeypatch.undo()
        assert type(clone) is cls and clone.x is source.x and clone.theta is source.theta
        assert clone.stats.simulated_seconds == 0.0 and clone.machine is not source.machine
        users = np.arange(source.n_users)
        want = source.recommend_batch(users, k=5, exclude=tiny_ratings.train)
        got = clone.recommend_batch(users, k=5, exclude=tiny_ratings.train)
        _assert_bitwise_equal((got.ids, got.scores), (want.ids, want.scores))

    def test_writes_on_the_clone_leave_the_source_untouched(self, store, tiny_ratings):
        x, theta = store.x.copy(), store.theta.copy()
        folded = {u: seg.copy() for u, seg in store._folded_items.items()}
        users = np.arange(store.n_users)
        want = store.recommend_batch(users, k=5, exclude=tiny_ratings.train)
        clone = store.replicate()
        clone.fold_in(np.array([1, 4]), np.array([5.0, 2.0]))
        clone.grow_items(np.ones((2, store.f)))
        clone.swap_snapshot(np.asarray(clone.x) * 2.0, np.asarray(clone.theta) * 2.0)
        np.testing.assert_array_equal(store.x, x)
        np.testing.assert_array_equal(store.theta, theta)
        assert (store.n_users, store.n_items) == (x.shape[0], theta.shape[0])
        assert store._folded_items.keys() == folded.keys()
        assert not store.x.flags.writeable and not store.theta.flags.writeable
        fresh = FactorStore(x, theta, lam=store.lam, n_shards=store.n_shards).recommend_batch(users, k=5, exclude=tiny_ratings.train)
        _assert_bitwise_equal((fresh.ids, fresh.scores), (want.ids, want.scores))
        got = store.recommend_batch(users, k=5, exclude=tiny_ratings.train)
        _assert_bitwise_equal((got.ids, got.scores), (want.ids, want.scores))


class TestBatchedTopK:
    def test_batch_matches_looped_recommend(self, fitted, store, tiny_ratings):
        users = np.arange(50)
        batch = store.recommend_batch(users, k=7, exclude=tiny_ratings.train)
        for u, got in zip(users, batch):
            want = fitted.recommend(int(u), k=7, exclude=tiny_ratings.train)
            assert [i for i, _ in got] == [i for i, _ in want]
            np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-5)

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
        np.testing.assert_allclose([s for _, s in batch[0]], [s for _, s in single], rtol=0, atol=1e-5)

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
        bad_exclude = CSRMatrix.from_arrays((tiny_ratings.train.shape[0], 10), [0], [3], [1.0])
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
        store._restore_fold_state(folded)
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


def _reference_select(scores, kk):
    """The full-scan selection: every entry >= the threshold, then one lexsort by (row, -score, id)."""
    b, n = scores.shape
    g = min(4 * kk, n)
    width = n // g
    group_max = np.fmax.reduce(scores[:, : g * width].reshape(b, g, width), axis=2)
    threshold = np.partition(group_max, g - kk, axis=1)[:, g - kk]
    flat = np.flatnonzero(scores >= threshold[:, None])
    rows, cols = np.divmod(flat, n)
    vals = scores.ravel()[flat]
    order = np.lexsort((cols, -vals, rows))
    counts = np.bincount(rows, minlength=b)
    rank = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    first = rank < kk
    keep = order[first]
    ids = np.zeros((b, kk), dtype=np.int64)
    top = np.full((b, kk), -np.inf, dtype=np.float32)
    ids[rows[keep], rank[first]] = cols[keep]
    top[rows[keep], rank[first]] = vals[keep]
    return ids, top


def _assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1].view(np.int32), want[1].view(np.int32))


def _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge=False):
    """An N(0, 1) float32 store with fold-in users, an exclude matrix (or ``None``) and a block of queries.

    Trained user 0 has rated all but ``spare.size < kk`` items and is in
    the block, so its masked row holds fewer than kk answers; repeated
    users in the block are likely.  With ``huge``, about a fifth of the
    factor entries are ±1e20: in range for float32, but their products
    overflow, so rows hold ±inf scores, and NaN where a GEMM sums
    inf - inf (whether it does depends on the GEMM's row count).
    """
    rng = np.random.default_rng(seed)
    n_users = n_trained + n_folded
    x = rng.standard_normal((n_users, f), dtype=np.float32)
    theta = rng.standard_normal((n_items, f), dtype=np.float32)
    if huge:
        for factor in (x, theta):
            big = rng.random(factor.shape) < 0.2
            factor[big] = rng.choice([-1e20, 1e20], size=int(big.sum()))
    store = FactorStore(x, theta, n_shards=n_shards)
    store._restore_fold_state({n_trained + j: np.unique(rng.integers(0, n_items, rng.integers(1, 6))) for j in range(n_folded)})
    spare = rng.choice(n_items, size=int(rng.integers(0, kk)), replace=False)
    rated = np.setdiff1d(np.arange(n_items), spare)
    nnz = int(rng.integers(0, 4 * n_trained))
    rows = np.concatenate([np.zeros(rated.size, dtype=np.int64), rng.integers(1, n_trained, nnz)])
    cols = np.concatenate([rated, rng.integers(0, n_items, nnz)])
    exclude = CSRMatrix.from_arrays((n_trained, n_items), rows, cols, np.ones(rows.size)) if masked else None
    block = rng.integers(0, n_users, batch)
    block[rng.integers(0, batch)] = 0
    return store, exclude, block, spare


_GENERATED = dict(
    n_shards=st.integers(1, 4),
    n_items=st.integers(1, 300),
    f=st.integers(1, 8),
    n_trained=st.integers(2, 12),
    n_folded=st.integers(0, 3),
    kk=st.integers(1, 40),
    batch=st.integers(1, 40),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


class TestSelectionMatchesReference:
    """``_topk_block`` equals the full-scan ``lexsort`` reference bit for bit on the same score block.

    Unlike :class:`TestTopKTieRule`, the factors are N(0, 1) floats, so
    the scores are the inexact float32 values real serving selects from.
    On a fresh store ``_topk_block`` scores each distinct user of a block
    once, in sorted order, so the reference selects from the score block
    of the distinct users and is expanded back to the block's queries: a
    BLAS row result can depend on the GEMM's row count, so the block's
    own score matrix is not always bitwise the same.
    """

    @settings(max_examples=80, deadline=None)
    @given(**_GENERATED)
    def test_matches_full_scan_reference(self, n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed):
        # n_items % min(4·kk, n_items) != 0 leaves tail columns; n_items < 4·kk makes every column its own group.
        n_shards, kk = min(n_shards, n_items), min(kk, n_items)
        store, exclude, block, spare = _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed)
        got = store._topk_block(block, kk, exclude)
        unique, inverse = np.unique(block, return_inverse=True)
        ids, top = _reference_select(store._score_block(unique, exclude), kk)
        _assert_bitwise_equal(got, (ids[inverse], top[inverse]))
        if masked:
            # User 0's threshold is -inf: it keeps only its spare items.
            assert np.isneginf(got[1][block == 0, spare.size :]).all()

    @settings(max_examples=40, deadline=None)
    @given(**_GENERATED, distinct=st.integers(1, 5))
    def test_repeated_users_get_bitwise_identical_rows(self, n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, distinct):
        n_shards, kk = min(n_shards, n_items), min(kk, n_items)
        store, exclude, block, _ = _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed)
        # At most `distinct` users fill the whole block, so most queries repeat one.
        block = np.random.default_rng(seed).choice(np.unique(block)[:distinct], size=batch)
        ids, top = store._topk_block(block, kk, exclude)
        bits = top.view(np.int32)
        for user in np.unique(block):
            rows = block == user
            assert (ids[rows] == ids[rows][0]).all() and (bits[rows] == bits[rows][0]).all()

    def test_negative_zero_ties_positive_zero(self):
        # f=1: the scores are the Θ column, so the zeros tie and keep ascending ids.
        store = FactorStore(np.ones((1, 1)), np.array([[-1.0], [0.0], [-0.0], [0.0], [-0.0], [-2.0]]))
        assert store._topk_block(np.array([0]), 4, None)[0].tolist() == [[1, 2, 3, 4]]
        # The same tie on a literal block, whose -0.0 entries no GEMM can turn into +0.0; the last column is a tail column.
        scores = np.array([[-1.0, -0.0, -3.0, 0.0, -0.0, -2.0, -5.0, -4.0, 0.0]], dtype=np.float32)
        ids, top = FactorStore._select_topk(scores, 3)
        assert ids.tolist() == [[1, 3, 4]]
        assert np.signbit(top).tolist() == [[True, False, True]]
        _assert_bitwise_equal((ids, top), _reference_select(scores, 3))

    @pytest.mark.parametrize(("m", "n", "f", "n_shards"), [(7, 13, 1, 1), (64, 1000, 32, 4), (256, 999, 16, 3), (5, 4, 8, 4)])
    def test_in_place_shard_gemm_is_bitwise(self, m, n, f, n_shards):
        rng = np.random.default_rng(m + n)
        store = FactorStore(rng.standard_normal((m, f)), rng.standard_normal((n, f)), n_shards=n_shards)
        block = rng.integers(0, m, 2 * m)
        xb = store._model.x_score[block]
        want = np.concatenate([xb @ shard.T for shard in store._model.shards], axis=1)
        np.testing.assert_array_equal(store._score_block(block, None).view(np.int32), want.view(np.int32))


def _full_scan_select(scores, kk):
    """The grouping-free selection: one ``lexsort`` over every non-NaN entry by (row, -score, id), padded with ``(0, -inf)``."""
    b = scores.shape[0]
    rows, cols = np.nonzero(~np.isnan(scores))
    vals = scores[rows, cols]
    order = np.lexsort((cols, -vals, rows))
    counts = np.bincount(rows, minlength=b)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    first = rank < kk
    keep = order[first]
    ids = np.zeros((b, kk), dtype=np.int64)
    top = np.full((b, kk), -np.inf, dtype=np.float32)
    ids[rows[keep], rank[first]] = cols[keep]
    top[rows[keep], rank[first]] = vals[keep]
    return ids, top


class TestNaNScores:
    """A NaN score is no answer, and it costs its row no other answer.

    A group of columns that holds only NaN has maximum ``-inf``; were it
    NaN, ``np.partition`` would rank it above every real maximum and the
    threshold would rise past the row's kk-th valid score.
    """

    def test_all_nan_group_keeps_every_valid_answer(self):
        # kk=3 over 9 columns: each column is its own group, and column 0's is all NaN.
        scores = np.array([[np.nan, 5, 4, 3, 2, 1, 0, -1, -2]], dtype=np.float32)
        ids, top = FactorStore._select_topk(scores, 3)
        assert ids.tolist() == [[1, 2, 3]] and top.tolist() == [[5.0, 4.0, 3.0]]

    def test_store_answers_a_user_with_a_nan_score_in_full(self):
        # User 0 scores item 0 at 1e40 - 1e40: inf - inf = NaN in float32; items 1..8 score 10..80.
        x = np.array([[1e20, 1e20]])
        theta = np.vstack([[1e20, -1e20], np.column_stack([np.arange(1, 9) * 1e-19, np.zeros(8)])])
        store = FactorStore(x, theta)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(store._score_block(np.array([0]), None)[0, 0])
            recs = store.recommend_batch(np.array([0]), k=3)
        assert [item for item, _ in recs[0]] == [8, 7, 6]

    @settings(max_examples=80, deadline=None)
    @given(**_GENERATED)
    def test_matches_grouping_free_reference(self, n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed):
        n_shards, kk = min(n_shards, n_items), min(kk, n_items)
        store, exclude, block, _ = _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge=True)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = store._score_block(np.unique(block), exclude)
        _assert_bitwise_equal(FactorStore._select_topk(scores, kk), _full_scan_select(scores, kk))

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.integers(1, 6),
        n=st.integers(1, 200),
        kk=st.integers(1, 40),
        special_rate=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_literal_blocks_match_grouping_free_reference(self, b, n, kk, special_rate, seed):
        # GEMMs over ±1e20 factors rarely sum inf - inf, so NaN, ±inf and -0.0 are also written in directly, among integer ties.
        rng = np.random.default_rng(seed)
        kk = min(kk, n)
        scores = rng.integers(-4, 5, size=(b, n)).astype(np.float32)
        special = rng.random((b, n)) < special_rate
        scores[special] = rng.choice(np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32), size=int(special.sum()))
        _assert_bitwise_equal(FactorStore._select_topk(scores, kk), _full_scan_select(scores, kk))


def _reference_box(ids, vals, kk):
    """The eager boxing ``recommend_batch`` did before :class:`TopK`: one ``zip`` over a block, sliced into rows, non-finite scores dropped."""
    pairs = list(zip(ids.ravel().tolist(), vals.ravel().tolist()))
    rows = [pairs[r : r + kk] for r in range(0, len(pairs), kk)]
    for r in np.flatnonzero(~np.isfinite(vals).all(axis=1)):
        rows[r] = [(i, v) for i, v in rows[r] if math.isfinite(v)]
    return rows


def _exact(rows):
    """Rows with each pair's types and float bits spelled out (``==`` would tie 0.0 with -0.0)."""
    return [[(type(i), i, type(v), v.hex()) for i, v in row] for row in rows]


class TestTopKBoxing:
    """A :class:`TopK` reads exactly as the lists ``recommend_batch`` used to box eagerly."""

    @settings(max_examples=80, deadline=None)
    @given(
        **_GENERATED,
        huge=st.booleans(),
        user_block=st.integers(1, 16),
        cut=st.tuples(st.none() | st.integers(-45, 45), st.none() | st.integers(-45, 45), st.none() | st.sampled_from([-3, -1, 1, 2])),
    )
    def test_rows_box_to_the_reference_pairs(self, n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge, user_block, cut):
        n_shards, kk = min(n_shards, n_items), min(kk, n_items)
        store, exclude, block, _ = _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge=huge)
        with np.errstate(over="ignore", invalid="ignore"):
            got = store.recommend_batch(block, k=kk, exclude=exclude, user_block=user_block)
            want = []
            for start in range(0, block.size, user_block):
                want += _reference_box(*store._topk_block(block[start : start + user_block], kk, exclude), kk)

        assert isinstance(got, TopK) and len(got) == len(want) == block.size
        assert _exact(got) == _exact(want)
        assert _exact(got[r] for r in range(-len(want), 0)) == _exact(want)
        window = slice(*cut)
        assert isinstance(got[window], TopK) and _exact(got[window]) == _exact(want[window])
        assert got == want and want == got and got == TopK(got.ids.copy(), got.scores.copy())
        assert got != want[:-1] and got != [*want[:-1], [*want[-1], (-1, 0.0)]]
        assert repr(got) == repr(want)
        with pytest.raises(IndexError):
            got[len(want)]

    def test_overflowed_scores_are_not_answers(self):
        # User 0 scores item 0 at +inf and item 2 at -inf in float32; +inf
        # sorts first, so the valid entries of its row are not a prefix.
        x = np.array([[1e20, 1.0], [1.0, 1.0]])
        theta = np.array([[1e20, 0.0], [1.0, 1.0], [-1e20, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"):
            recs = FactorStore(x, theta).recommend_batch(np.array([0, 1]), k=4)
        assert recs.ids[0].tolist() == [0, 1, 3, 2] and recs.valid[0].tolist() == [False, True, True, False]
        want = _reference_box(recs.ids, recs.scores, 4)
        assert _exact(recs) == _exact(want) and [i for i, _ in recs[0]] == [1, 3]
        assert recs[-1] == want[1] and len(want[1]) == 4
        # A NaN score (inf - inf; whether a GEMM yields it depends on its row count) is no answer either.
        literal = TopK(np.array([[4, 1, 0, 2]]), np.array([[np.inf, np.nan, 1.5, -np.inf]], dtype=np.float32))
        assert literal == [[(0, 1.5)]] and _exact(literal) == _exact(_reference_box(literal.ids, literal.scores, 4))

    def test_empty_batch(self, store):
        recs = store.recommend_batch(np.array([], dtype=np.int64), k=3)
        assert len(recs) == 0 and recs == [] and list(recs) == [] and repr(recs) == "[]"

    def test_not_equal_to_other_types(self, store):
        recs = store.recommend_batch(np.array([1, 2]), k=3)
        assert recs != tuple(recs) and recs != None  # noqa: E711
        with pytest.raises(TypeError):
            recs["0"]


class TestSimulatedTime:
    def test_batches_advance_the_clock(self, fitted):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend.replicas[0]
        assert store.stats.simulated_seconds == 0.0
        store.recommend_batch(np.arange(32), k=5)
        assert store.stats.queries == 32
        assert store.stats.batches == 1
        assert store.stats.simulated_seconds > 0.0
        assert store.machine.elapsed_seconds() == pytest.approx(store.stats.simulated_seconds)

    def test_repeated_users_are_charged_per_query(self):
        # A repeated user is scored once but charged like a distinct query.
        rng = np.random.default_rng(3)
        x, theta = rng.standard_normal((40, 8)), rng.standard_normal((300, 8))
        repeated = np.array([3, 7, 3, 3, 11, 7, 0, 3])
        coalesced, distinct = FactorStore(x, theta, n_shards=2), FactorStore(x, theta, n_shards=2)
        coalesced.recommend_batch(repeated, k=5)
        distinct.recommend_batch(np.arange(20, 20 + repeated.size), k=5)
        assert coalesced.stats.queries == distinct.stats.queries == repeated.size
        assert coalesced.stats.batches == 1
        assert coalesced.stats.simulated_seconds == distinct.stats.simulated_seconds
        assert coalesced.stats.per_device_seconds == distinct.stats.per_device_seconds

    def test_tiered_store_touches_every_query_answer(self):
        rng = np.random.default_rng(4)
        n_items = 30
        x, theta = rng.standard_normal((40, 8)), rng.standard_normal((n_items, 8))
        # User 3 has rated all but items 0 and 1, so each of its rows holds two answers.
        rows = np.concatenate([np.full(n_items - 2, 3), [5, 5]])
        cols = np.concatenate([np.arange(2, n_items), [0, 1]])
        seen = CSRMatrix.from_arrays((40, n_items), rows, cols, np.ones(rows.size))
        tiered = TieredFactorStore(x, theta, n_shards=2, cache=CacheConfig(page_items=1))
        recs = tiered.recommend_batch(np.array([3, 7, 3, 3, 5, 7]), k=5, exclude=seen)
        assert tiered.stats.queries == 6 and int(recs.valid.sum()) == 3 * 2 + 2 * 5 + 5
        # Each page a batch touches is classified once; the heat sketch counts every query's answers.
        cache = tiered.cache_stats
        assert cache.hits + cache.stale_hits + cache.warm_misses + cache.cold_misses == np.unique(recs.ids[recs.valid]).size
        assert tiered._heat._heat.sum() == recs.valid.sum()

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


def _count_scored(store):
    """Record the users of every ``_score_block`` call on ``store``; returns the (growing) list of blocks."""
    scored = []
    score_block = store._score_block

    def counted(block, exclude):
        scored.append(block.copy())
        return score_block(block, exclude)

    store._score_block = counted
    return scored


class TestAnswerTable:
    """Each user is scored once per (snapshot, exclude) epoch; later queries read the stored row."""

    def test_replay_scores_each_distinct_user_once(self):
        rng = np.random.default_rng(5)
        x, theta = rng.standard_normal((300, 8)), rng.standard_normal((400, 8))
        seen = CSRMatrix.from_arrays((300, 400), rng.integers(0, 300, 3000), rng.integers(0, 400, 3000), np.ones(3000))
        store = FactorStore(x, theta, n_shards=2)
        scored = _count_scored(store)
        trace = QueryTrace.poisson(3000, 50_000.0, 300, seed=6)
        report = RequestSimulator(store, k=5, exclude=seen, max_batch=64, window_s=1e-3).run(trace)
        assert report.n_requests == store.stats.queries == 3000
        np.testing.assert_array_equal(np.sort(np.concatenate(scored)), np.unique(trace.users))

    def test_repeats_across_calls_read_bitwise_identical_rows(self):
        rng = np.random.default_rng(6)
        store = FactorStore(rng.standard_normal((50, 16)), rng.standard_normal((500, 16)), n_shards=3)
        first = store.recommend_batch(np.array([4]), k=7)
        later = store.recommend_batch(rng.permutation(np.r_[4, 4, np.arange(20, 45)]), k=7)
        rows = later.ids[:, 0] == first.ids[0, 0]
        assert (later.ids[rows] == first.ids[0]).all() and (later.scores[rows].view(np.int32) == first.scores[0].view(np.int32)).all()
        narrow = store.recommend_batch(np.array([4]), k=3)
        assert narrow.ids.tolist() == [first.ids[0, :3].tolist()] and narrow.scores[0].tobytes() == first.scores[0, :3].tobytes()
        assert store.stats.queries == 1 + 27 + 1 and store.stats.batches == 3

    def test_each_mutation_rescores_exactly_the_rows_it_changes(self, tmp_path):
        rng = np.random.default_rng(7)
        x, theta = rng.integers(-3, 4, size=(6, 3)), rng.integers(-3, 4, size=(20, 3))
        # A row for user 6 too, so one matrix masks the folded-in user 6 once a swap makes it a trained user.
        seen = CSRMatrix.from_arrays((7, 20), rng.integers(0, 7, 35), rng.integers(0, 20, 35), np.ones(35))
        store = FactorStore(x, theta, n_shards=2)
        users = np.array([0, 2, 2, 5])

        def rescored(store, k=4, exclude=seen):
            scored = _count_scored(store)
            store.recommend_batch(np.r_[users, 6:store.n_users], k=k, exclude=exclude)
            del store._score_block
            return sorted(np.concatenate(scored).tolist()) if scored else []

        assert rescored(store) == [0, 2, 5]
        assert rescored(store) == rescored(store, k=2) == []
        assert rescored(store, k=5) == [0, 2, 5]  # a wider k than the table holds
        assert rescored(store, exclude=CSRMatrix(seen.shape, seen.indptr, seen.indices, seen.data)) == [0, 2, 5]  # equal, not the same object
        assert rescored(store) == [0, 2, 5] and rescored(store, exclude=None) == [0, 2, 5]
        assert rescored(store) == rescored(store, exclude=None) == rescored(store) == []  # exclude=None and the matrix keep a table each

        def swap(x_entry=None, theta_entry=None):
            """Swap to the served factors (a fresh copy through the gate), with one (row, col, value) entry of x or Θ changed."""

            def run():
                factors = [np.array(store.x), np.array(store.theta)]
                for matrix, entry in zip(factors, (x_entry, theta_entry)):
                    if entry is not None:
                        matrix[entry[:2]] = entry[2]
                store.swap_snapshot(*factors)

            return run

        zero = tuple(np.argwhere(theta == 0)[0])
        everyone = [0, 2, 5, 6]
        for mutate, plain, masked in (  # the rows re-scored under exclude=None and under the matrix
            (lambda: store.swap_snapshot(x, theta), [], []),  # equal factors
            (lambda: store.fold_in(np.array([1, 2]), np.array([4.0, 5.0])), [6], [6]),  # only the new user
            (lambda: store._restore_fold_state({6: np.array([3])}), [], [6]),  # user 6's mask changed
            (swap(), [], [6]),  # user 6 is trained now: masked by the matrix row, not its fold-in items
            (swap(x_entry=(2, 0, 9.0)), [2], [2]),
            (swap(theta_entry=(0, 0, np.nextafter(theta[0, 0], np.inf))), everyone, everyone),  # one ulp
            (swap(theta_entry=(*zero, -0.0)), everyone, everyone),  # -0.0 is not the bits of 0.0
            (lambda: store.grow_items(np.ones((1, 3))), everyone, None),  # the matrix no longer fits the item axis
        ):
            assert rescored(store, exclude=None) == []
            if masked is not None:
                assert rescored(store) == []
            mutate()
            assert rescored(store, exclude=None) == plain
            if masked is not None:
                assert rescored(store) == masked
        registry = SnapshotRegistry(tmp_path)
        for clone in (store.replicate(), registry.build_store(registry.publish_store(store), n_shards=2)):
            assert rescored(clone, exclude=None) == everyone


class TestPersistence:
    def test_publish_build_roundtrip(self, store, tmp_path):
        registry = SnapshotRegistry(tmp_path)
        version = registry.publish_store(store)
        assert registry.load(version).path.endswith(".npz")
        reloaded = registry.build_store(version, n_shards=2)
        np.testing.assert_array_equal(reloaded.x, store.x)
        np.testing.assert_array_equal(reloaded.theta, store.theta)
        assert reloaded.lam == store.lam
        assert reloaded.recommend(0, k=5) == store.recommend(0, k=5)

    def test_publish_build_preserves_fold_in_hyperparameters(self, fitted, tmp_path):
        store = FactorStore.from_result(fitted.result, lam=0.7, weighted=False)
        registry = SnapshotRegistry(tmp_path)
        reloaded = registry.build_store(registry.publish_store(store))
        assert reloaded.lam == 0.7
        assert reloaded.weighted is False
        items = np.array([1, 4, 7])
        ratings = np.array([5.0, 3.0, 4.0])
        u_a = store.fold_in(items, ratings)
        u_b = reloaded.fold_in(items, ratings)
        np.testing.assert_array_equal(store.x[u_a], reloaded.x[u_b])

    def test_publish_build_preserves_fold_in_state(self, store, tiny_ratings, tmp_path):
        """A store built from a version with fold-ins must keep exclusion behaviour intact.

        The published X has one row per folded user, so the built store
        must still know which rows are fold-ins (their item sets live in
        the version, not in the exclude matrix) — otherwise
        ``recommend_batch(exclude=train)`` rejects the exclude matrix for
        having fewer rows than users.
        """
        folded = [
            store.fold_in(*tiny_ratings.train.row(3)),
            store.fold_in(np.array([2, 8, 11]), np.array([5.0, 1.0, 3.0])),
            store.fold_in(np.empty(0, dtype=np.int64), np.empty(0)),  # ratings-less user
        ]
        registry = SnapshotRegistry(tmp_path)
        reloaded = registry.build_store(registry.publish_store(store))
        assert reloaded.n_users == store.n_users
        assert reloaded._n_trained_users == store._n_trained_users
        for user in folded:
            np.testing.assert_array_equal(reloaded._folded_items[user], store._folded_items[user])
        users = np.concatenate([np.arange(10), np.array(folded)])
        # the exclude matrix still has only trained-user rows: must not raise
        want = store.recommend_batch(users, k=8, exclude=tiny_ratings.train)
        got = reloaded.recommend_batch(users, k=8, exclude=tiny_ratings.train)
        assert got == want
        # fold-in items stay excluded for the folded users after the round trip
        recs = reloaded.recommend(folded[1], k=reloaded.n_items, exclude=tiny_ratings.train)
        assert not {2, 8, 11} & {i for i, _ in recs}

    def test_build_from_empty_registry_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no versions published"):
            SnapshotRegistry(tmp_path).build_store()

    def test_publish_into_training_checkpoint_dir_stays_latest(self, store, tmp_path):
        """Publishing into a mid-training checkpoint dir must not prune anything.

        The retention layer keeps the highest iterations; a version parked
        below an existing training checkpoint would be deleted in favour of
        it, and the latest version would restore stale factors with no
        fold-in state.  The trainer's own checkpoints must survive too.
        """
        CheckpointManager(str(tmp_path)).save(5, np.zeros((3, 8)), np.zeros((4, 8)))
        user = store.fold_in(np.array([1, 2]), np.array([4.0, 5.0]))
        registry = SnapshotRegistry(tmp_path)
        version = registry.publish_store(store)
        assert os.path.exists(registry.load(version).path)
        reloaded = registry.build_store()
        assert reloaded.n_users == store.n_users
        np.testing.assert_array_equal(reloaded.x, store.x)
        np.testing.assert_array_equal(reloaded._folded_items[user], store._folded_items[user])
        # the pre-existing training checkpoint was not evicted
        assert CheckpointManager(str(tmp_path)).list_iterations() == [5, 6]

    def test_trainer_pruning_never_evicts_a_published_store(self, store, tmp_path):
        """A trainer's ``keep=N`` rotation must skip registry versions (regression).

        Versions are saved ``protected``; before the fix,
        ``CheckpointManager._prune`` deleted the oldest files regardless,
        so a version parked at a low iteration in a shared directory was
        evicted as soon as the trainer checkpointed a few more times.
        """
        store.fold_in(np.array([0, 3]), np.array([4.0, 2.0]))
        registry = SnapshotRegistry(tmp_path)
        snapshot_path = registry.load(registry.publish_store(store)).path
        manager = CheckpointManager(str(tmp_path), keep=2)
        for iteration in (10, 11, 12, 13):
            manager.save(iteration, np.zeros((3, 8)), np.zeros((4, 8)))
        assert os.path.exists(snapshot_path)
        # the trainer's own rotation still applies to its own files
        assert manager.list_iterations() == [0, 12, 13]
        # the surviving version is intact, fold-in bookkeeping included
        restored = registry.load(0)
        np.testing.assert_array_equal(restored.x, store.x)
        assert restored.n_trained_users == store._n_trained_users

    def test_load_from_training_checkpoint(self, tiny_ratings, tmp_path):
        model = CuMF(
            ALSConfig(f=8, lam=0.05, iterations=2, seed=1, row_batch=128),
            backend="base",
            checkpoint_dir=str(tmp_path),
        )
        model.fit(tiny_ratings.train)
        checkpoint = CheckpointManager(str(tmp_path)).latest()
        store = FactorStore(checkpoint.x, checkpoint.theta)
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
