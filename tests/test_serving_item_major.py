"""The item-major score block and its strided-group selection, against layout-free references.

:meth:`FactorStore._score_block` stores a block item-major, in one
``(n_items, b)`` buffer whose contiguous shard rows each GEMM fills in
place, and returns its transposed ``(b, n_items)`` view;
:meth:`FactorStore._select_topk` groups items by stride and reads that
layout.  The properties pin both to references that know no layout, bit
for bit: the block equals the row-major concatenation of one
``xb @ shard.T`` GEMM per shard with the same items masked, and the
selection equals the grouping-free full scan on item-major and C-ordered
copies of one block alike.  The blocks are written into one workspace per
thread, which the properties reuse from example to example, stale
entries included.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import FactorStore
from tests.test_serving_store import _assert_bitwise_equal, _full_scan_select, _generated_store


def _row_major_block(store: FactorStore, block: np.ndarray, exclude) -> np.ndarray:
    """One ``xb @ shard.T`` per shard, concatenated along the items, each user's seen items set to ``-inf``."""
    xb = store._model.x_score[block]
    want = np.concatenate([xb @ shard.T for shard in store._model.shards], axis=1)
    if exclude is not None:
        for r, user in enumerate(block.tolist()):
            seen = exclude.row(user)[0] if user < store._n_trained_users else store._folded_items[user]
            want[r, seen] = -np.inf
    return want


def _layouts(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(b, n)`` block as the transposed view of an item-major buffer, and as a C-ordered array."""
    return np.ascontiguousarray(scores.T).T, np.ascontiguousarray(scores)


@settings(max_examples=150, deadline=None)
@given(
    n_shards=st.integers(1, 4),
    n_items=st.integers(1, 400),
    f=st.integers(1, 64),
    n_trained=st.integers(2, 30),
    n_folded=st.integers(0, 3),
    kk=st.integers(1, 40),
    batch=st.one_of(st.just(1), st.integers(2, 64)),
    masked=st.booleans(),
    huge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_item_major_block_is_the_row_major_gemm_and_selects_as_a_full_scan(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, huge, seed):
    # The block repeats users (batch up to 64 over at most 33 users) and holds user 0, whose masked row keeps fewer than kk items.
    n_shards, kk = min(n_shards, n_items), min(kk, n_items)
    store, exclude, block, _ = _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge=huge)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = store._score_block(block, exclude)
        want = _row_major_block(store, block, exclude)
    assert scores.shape == (batch, n_items) and scores.T.flags.c_contiguous
    np.testing.assert_array_equal(scores.view(np.int32), want.view(np.int32))
    reference = _full_scan_select(want, kk)
    for layout in (scores, *_layouts(scores)):
        _assert_bitwise_equal(FactorStore._select_topk(layout, kk), reference)


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 8),
    n=st.integers(1, 300),
    kk=st.integers(1, 40),
    special_rate=st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_literal_blocks_select_as_a_full_scan_in_either_layout(b, n, kk, special_rate, seed):
    # Integer ties among NaN, ±inf and -0.0 written in directly, which a GEMM rarely produces.
    rng = np.random.default_rng(seed)
    kk = min(kk, n)
    scores = rng.integers(-4, 5, size=(b, n)).astype(np.float32)
    special = rng.random((b, n)) < special_rate
    scores[special] = rng.choice(np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32), size=int(special.sum()))
    reference = _full_scan_select(scores, kk)
    for layout in _layouts(scores):
        _assert_bitwise_equal(FactorStore._select_topk(layout, kk), reference)


def test_a_partial_last_slab_keeps_its_items_and_no_others():
    # 61 items, kk=2: 16 fine groups, so the last slab holds items 48..60 (groups 0..12) only.  Row 0's
    # threshold is -1, so all its groups are candidates, and groups 13..15 have no member in that slab:
    # their offsets run past the block's last entry (row 1's item 60, the best score of the block).
    scores = np.full((2, 61), -1.0, dtype=np.float32)
    scores[0, [13, 29]] = [5.0, 4.0]
    scores[1, [60, 58]] = [9.0, 8.0]
    ids, top = FactorStore._select_topk(np.ascontiguousarray(scores.T).T, 2)
    assert ids.tolist() == [[13, 29], [60, 58]] and top.tolist() == [[5.0, 4.0], [9.0, 8.0]]



def _in_new_thread(fn):
    """``fn()`` run on a thread of its own (so with a workspace of its own); its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join()
    return out[0]


def test_score_blocks_reuse_one_workspace_per_thread():
    # A smaller block is written over the last one, a larger one gets a workspace of its own, and so does another thread.
    rng = np.random.default_rng(0)
    store = FactorStore(rng.standard_normal((40, 4)), rng.standard_normal((600, 4)))

    def blocks():
        first = store._score_block(np.arange(3), None).copy()
        smaller = store._score_block(np.arange(2), None)
        shared = np.shares_memory(smaller, store._score_block(np.arange(3), None))
        larger = store._score_block(np.arange(4), None)
        return first, shared, np.shares_memory(smaller, larger), larger

    first, shared, grown_shared, larger = _in_new_thread(blocks)
    assert shared and not grown_shared
    np.testing.assert_array_equal(first, _row_major_block(store, np.arange(3), None))
    np.testing.assert_array_equal(larger, _row_major_block(store, np.arange(4), None))
    other = _in_new_thread(lambda: store._score_block(np.arange(4), None))
    assert not np.shares_memory(other, larger)
    np.testing.assert_array_equal(other, larger)
