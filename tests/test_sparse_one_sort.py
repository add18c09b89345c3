"""The one-sort sparse data path, against the constructors and sampler it replaced.

Every compressed matrix is built by :func:`repro.sparse.coo._compress`
(one :func:`~repro.sparse.coo._stable_order` of a linear key, ``reduceat``
over the runs); :func:`repro.datasets.synthetic._sample_coordinates`
finds each round's first draws with the same sort and checks freshness
against a sorted key array, and :func:`repro.sparse.partition.grid_partition`
orders each row batch by owner with it.  This module keeps the earlier
code as test-only oracles and requires the same bits from the new code:

* ``np.argsort(keys, kind="stable")`` for ``_stable_order`` itself;
* ``_reference_dedup`` / ``_reference_csr`` / ``_reference_csc``: a
  deduplication by stable ``argsort`` + ``np.unique`` + ``reduceat``,
  then a ``lexsort`` into row- or column-major order;
* ``_reference_sample_coordinates``: rejection rounds with a Python
  ``set`` of accepted keys, and ``_reference_uncovered``: ``np.setdiff1d``;
* ``_reference_grid_partition``: one stable ``argsort`` of the owners.

Arrays are compared as int64 bits, so ``-0.0``, NaN payloads and the
order in which a cell's duplicates were summed all count.  The last
section pins the re-rating rule of the refresh merge: repeated
(user, item) events sum, cell for cell, against a dense oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.synthetic as synthetic
from repro.datasets import HUGEWIKI, NETFLIX, DatasetSpec, generate_ratings
from repro.serving.lifecycle import InteractionLog, merged_ratings
from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix
from repro.sparse.coo import _stable_order
from repro.sparse.partition import GridPartition, Partition1D, grid_partition

# --------------------------------------------------------------------------- #
# oracles: the constructors and the sampler before the one-sort path
# --------------------------------------------------------------------------- #


def _reference_dedup(coo: COOMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, data) with duplicates summed: stable argsort, ``np.unique``, ``reduceat``."""
    if coo.nnz == 0:
        return coo.rows.copy(), coo.cols.copy(), coo.data.copy()
    n = coo.shape[1]
    keys = coo.rows * n + coo.cols
    order = np.argsort(keys, kind="stable")
    unique_keys, start = np.unique(keys[order], return_index=True)
    return unique_keys // n, unique_keys % n, np.add.reduceat(coo.data[order], start)


def _reference_compressed(major, minor, data, n_major: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = np.lexsort((minor, major))
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(major[order], minlength=n_major), out=indptr[1:])
    return indptr, minor[order], data[order]


def _reference_csr(coo: COOMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols, data = _reference_dedup(coo)
    return _reference_compressed(rows, cols, data, coo.shape[0])


def _reference_csc(coo: COOMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols, data = _reference_dedup(coo)
    return _reference_compressed(cols, rows, data, coo.shape[1])


def _reference_sample_coordinates(m, n, nnz, rng, row_exponent, col_exponent):
    """The set-based rejection sampler: same rounds, same draws."""
    row_w = synthetic.powerlaw_weights(m, row_exponent, rng)
    col_w = synthetic.powerlaw_weights(n, col_exponent, rng)
    target = min(nnz, m * n)
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    seen: set[int] = set()
    while rows.size < target:
        need = int((target - rows.size) * 1.3) + 16
        cand_rows = rng.choice(m, size=need, p=row_w)
        cand_cols = rng.choice(n, size=need, p=col_w)
        keys = cand_rows * n + cand_cols
        fresh_mask = np.fromiter((k not in seen for k in keys), dtype=bool, count=need)
        _, first_idx = np.unique(keys, return_index=True)
        round_mask = np.zeros(need, dtype=bool)
        round_mask[first_idx] = True
        mask = fresh_mask & round_mask
        for k in keys[mask]:
            seen.add(int(k))
        rows = np.concatenate([rows, cand_rows[mask]])
        cols = np.concatenate([cols, cand_cols[mask]])
    return rows[:target], cols[:target]


def _reference_uncovered(ids: np.ndarray, size: int) -> np.ndarray:
    return np.setdiff1d(np.arange(size), ids, assume_unique=False)


def _reference_grid_partition(r: CSRMatrix, p: int, q: int) -> GridPartition:
    """The grid partition with one stable ``argsort`` of each batch's owners."""
    row_part = Partition1D(r.shape[0], q)
    col_part = Partition1D(r.shape[1], p)
    blocks: list[list[CSRMatrix]] = [[] for _ in range(p)]
    for j in range(q):
        lo, hi = row_part.range_of(j)
        rows = hi - lo
        start, stop = r.indptr[lo], r.indptr[hi]
        cols = r.indices[start:stop]
        owner = np.searchsorted(col_part.bounds, cols, side="right") - 1
        order = np.argsort(owner, kind="stable")
        row_ids = np.repeat(np.arange(rows, dtype=np.int64), np.diff(r.indptr[lo : hi + 1]))
        indptrs = np.zeros((p, rows + 1), dtype=np.int64)
        np.cumsum(np.bincount(owner * rows + row_ids, minlength=p * rows).reshape(p, rows), axis=1, out=indptrs[:, 1:])
        block_cols = cols[order] - col_part.bounds[owner[order]]
        block_data = r.data[start:stop][order]
        offsets = np.concatenate(([0], np.cumsum(indptrs[:, -1])))
        for i in range(p):
            seg = slice(offsets[i], offsets[i + 1])
            blocks[i].append(CSRMatrix((rows, col_part.size_of(i)), indptrs[i], block_cols[seg], block_data[seg]))
    return GridPartition(row_part, col_part, blocks)


def _reference_to_csr(self: COOMatrix) -> CSRMatrix:
    return CSRMatrix(self.shape, *_reference_csr(self))


def _reference_deduplicate(self: COOMatrix) -> COOMatrix:
    return COOMatrix(self.shape, *_reference_dedup(self))


def _assert_bits(got, want) -> None:
    """Equal length and equal int64 bits, array by array."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _buffers(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return matrix.indptr, matrix.indices, matrix.data


# --------------------------------------------------------------------------- #
# the packed-key sort
# --------------------------------------------------------------------------- #


@st.composite
def _keys_and_range(draw) -> tuple[np.ndarray, int]:
    """Keys from a small pool (heavy duplicates, often empty) and a key range at least as wide; 2**62 forces the fallback."""
    pool = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
    keys = np.array(draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=np.int64)
    n_keys = draw(st.one_of(st.just(max(pool) + 1), st.integers(max(pool) + 1, 2**41), st.just(2**62)))
    return keys, n_keys


@settings(max_examples=300, deadline=None)
@given(case=_keys_and_range())
def test_stable_order_equals_the_stable_argsort(case):
    keys, n_keys = case
    got_keys, got_order = _stable_order(keys, n_keys)
    order = np.argsort(keys, kind="stable")
    assert got_order.dtype == order.dtype and got_keys.dtype == keys.dtype
    _assert_bits((got_keys, got_order), (keys[order], order))


def test_stable_order_of_nothing():
    keys, order = _stable_order(np.zeros(0, dtype=np.int64), 0)
    assert keys.size == order.size == 0 and order.dtype == np.intp


def test_a_key_range_too_wide_to_pack_builds_like_the_reference():
    # 3 × 2**60 cells: every key fits in int64, but key * nnz + position does not, so _stable_order
    # takes the stable argsort; the CSC case is the transpose, whose column pointer stays short.
    rows = np.array([2, 0, 2, 1, 2, 0, 1, 2], dtype=np.int64)
    cols = np.array([2**60 - 1, 7, 5, 2**59, 2**60 - 1, 7, 0, 5], dtype=np.int64)
    data = np.array([1.0, 2.0, 3.0, 4.0, 5.0, -0.0, 6.0, 0.5])
    coo = COOMatrix((3, 2**60), rows, cols, data)
    assert 3 * 2**60 * coo.nnz > np.iinfo(np.int64).max
    csr = CSRMatrix.from_coo(coo)
    _assert_bits(_buffers(csr), _reference_csr(coo))
    _assert_bits(_buffers(CSCMatrix.from_coo(coo.transpose())), _reference_csc(coo.transpose()))
    assert csr.indptr.tolist() == [0, 1, 3, 5] and csr.indices.tolist() == [7, 0, 2**59, 5, 2**60 - 1]


# --------------------------------------------------------------------------- #
# constructors and conversions
# --------------------------------------------------------------------------- #

_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]
_values = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5).map(float))


@st.composite
def _coo_inputs(draw) -> COOMatrix:
    """Unsorted triplets with duplicates: a small coordinate pool, one cell repeated 9–20 times, special values."""
    m = draw(st.one_of(st.just(1), st.integers(1, 12)))
    n = draw(st.one_of(st.just(1), st.integers(1, 12)))
    k = draw(st.integers(0, 60))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    data = draw(st.lists(_values, min_size=k, max_size=k))
    if draw(st.booleans()):
        # More than 8 copies of one cell: reduceat sums a long run pairwise, not left to right.
        hot = draw(st.integers(9, 20))
        at = draw(st.lists(st.integers(0, k + hot), min_size=hot, max_size=hot))
        r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        for pos, value in zip(at, draw(st.lists(_values, min_size=hot, max_size=hot))):
            rows.insert(pos, r)
            cols.insert(pos, c)
            data.insert(pos, value)
    return COOMatrix((m, n), np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(data, dtype=np.float64))


@settings(max_examples=300, deadline=None)
@given(coo=_coo_inputs())
def test_every_constructor_and_conversion_matches_the_dedup_then_lexsort_reference(coo):
    with np.errstate(invalid="ignore", over="ignore"):
        want_csr, want_csc = _reference_csr(coo), _reference_csc(coo)
        csr = CSRMatrix.from_coo(coo)
        csc = CSCMatrix.from_coo(coo)
        _assert_bits(_buffers(csr), want_csr)
        _assert_bits(_buffers(csc), want_csc)
        _assert_bits(_buffers(coo.to_csr()), want_csr)
        _assert_bits(_buffers(coo.to_csc()), want_csc)
        _assert_bits(_buffers(CSRMatrix.from_arrays(coo.shape, coo.rows, coo.cols, coo.data)), want_csr)
        dedup = coo.deduplicate()
        _assert_bits((dedup.rows, dedup.cols, dedup.data), _reference_dedup(coo))
        # Conversions of compressed matrices: the old ones went through COO.
        _assert_bits(_buffers(csr.transpose()), _reference_csr(csr.to_coo().transpose()))
        _assert_bits(_buffers(csr.to_csc()), _reference_csc(csr.to_coo()))
        _assert_bits(_buffers(csc.to_csr()), _reference_csr(csc.to_coo()))
    assert csr.transpose().shape == coo.shape[::-1]


def test_a_long_run_of_one_cell_sums_like_the_reference():
    # 40+ copies of one cell with mixed magnitudes, shuffled among other entries: a
    # left-to-right sum differs from reduceat's pairwise one, and both paths must agree.
    rng = np.random.default_rng(3)
    data = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, 40), rng.normal(size=25)])
    rows = np.concatenate([np.full(40, 2), rng.integers(0, 4, 25)])
    cols = np.concatenate([np.full(40, 1), rng.integers(0, 3, 25)])
    perm = rng.permutation(65)
    coo = COOMatrix((4, 3), rows[perm], cols[perm], data[perm])
    csr = CSRMatrix.from_coo(coo)
    _assert_bits(_buffers(csr), _reference_csr(coo))
    _assert_bits(_buffers(CSCMatrix.from_coo(coo)), _reference_csc(coo))
    left_to_right = 0.0
    for value in coo.data[(coo.rows == 2) & (coo.cols == 1)]:
        left_to_right += value
    assert csr.to_dense()[2, 1] != left_to_right


# --------------------------------------------------------------------------- #
# the grid partition
# --------------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(coo=_coo_inputs(), p=st.integers(1, 4), q=st.integers(1, 4), shuffle=st.integers(0, 2**32 - 1) | st.none())
def test_grid_partition_matches_the_argsort_reference(coo, p, q, shuffle):
    with np.errstate(invalid="ignore", over="ignore"):
        r = CSRMatrix.from_coo(coo)
    if shuffle is not None:
        # The raw constructor keeps columns in any order within a row: the blocks must keep that order too.
        rng = np.random.default_rng(shuffle)
        perm = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in zip(r.indptr[:-1], r.indptr[1:])]).astype(np.int64)
        r = CSRMatrix(r.shape, r.indptr, r.indices[perm], r.data[perm])
    got, want = grid_partition(r, p, q), _reference_grid_partition(r, p, q)
    _assert_bits((got.row_partition.bounds, got.col_partition.bounds), (want.row_partition.bounds, want.col_partition.bounds))
    for i in range(p):
        for j in range(q):
            assert got.block(i, j).shape == want.block(i, j).shape
            _assert_bits(_buffers(got.block(i, j)), _buffers(want.block(i, j)))


# --------------------------------------------------------------------------- #
# the coordinate sampler
# --------------------------------------------------------------------------- #


@st.composite
def _sampler_cases(draw):
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    # Past m·n only on small grids: a full grid waits for its rarest cell,
    # ~1e6 draws on a 60×60 grid at exponent 1.5.
    top = m * n + 5 if m * n <= 64 else m * n // 2
    return m, n, draw(st.integers(0, top)), draw(st.floats(0.0, 1.5)), draw(st.floats(0.0, 1.5)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_sampler_cases())
def test_sorted_key_sampler_draws_and_keeps_what_the_set_sampler_did(case):
    m, n, nnz, row_exp, col_exp, seed = case
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = synthetic._sample_coordinates(m, n, nnz, rng_new, row_exp, col_exp)
    want = _reference_sample_coordinates(m, n, nnz, rng_ref, row_exp, col_exp)
    _assert_bits(got, want)
    assert got[0].size == min(nnz, m * n)
    assert np.unique(got[0] * n + got[1]).size == got[0].size
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


_E2E_SPECS = {
    "train-mp": (NETFLIX.scaled(max_rows=1500, f=32), 1, 0.0),
    "train-dp": (HUGEWIKI.scaled(max_rows=6000, f=16), 1, 0.0),
    "serve-lifecycle": (DatasetSpec("lifecycle", 4000, 3000, 120_000, 16, 0.05, kind="synthetic"), 0, 0.1),
    # 200 skewed draws over 300 rows and 500 columns: most rows and columns get a coverage entry.
    "uncovered": (DatasetSpec("uncovered", 300, 500, 200, 4, 0.05, kind="synthetic"), 3, 0.1),
}


@pytest.mark.parametrize("name", sorted(_E2E_SPECS))
def test_generate_ratings_matches_the_set_sampler_and_lexsort_build(name, monkeypatch):
    spec, seed, test_fraction = _E2E_SPECS[name]
    got = generate_ratings(spec, seed=seed, test_fraction=test_fraction)
    uncovered = []

    def reference_uncovered(ids, size):
        uncovered.append(_reference_uncovered(ids, size))
        return uncovered[-1]

    monkeypatch.setattr(synthetic, "_sample_coordinates", _reference_sample_coordinates)
    monkeypatch.setattr(synthetic, "_uncovered", reference_uncovered)
    monkeypatch.setattr(COOMatrix, "deduplicate", _reference_deduplicate)
    monkeypatch.setattr(COOMatrix, "to_csr", _reference_to_csr)
    want = generate_ratings(spec, seed=seed, test_fraction=test_fraction)
    for g, w in ((got.train, want.train), (got.test, want.test)):
        assert g.shape == w.shape
        _assert_bits(_buffers(g), _buffers(w))
    assert got.train.nnz > 0.8 * spec.nz
    assert np.all(got.train.nnz_per_row() > 0) and np.all(got.train.nnz_per_col() > 0)
    if name == "uncovered":
        assert [ids.size > 0 for ids in uncovered] == [True, True]


# --------------------------------------------------------------------------- #
# the refresh merge and the re-rating rule
# --------------------------------------------------------------------------- #


@st.composite
def _base_and_log(draw):
    m0, n0 = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = draw(st.lists(st.tuples(st.integers(0, m0 - 1), st.integers(0, n0 - 1)), max_size=40, unique=True))
    base_r = [draw(st.integers(1, 5)) for _ in cells]
    # Events on a small pool of cells: base cells, fold-in users past the base rows, new item columns; repeats likely.
    pool = draw(st.lists(st.tuples(st.integers(0, m0 + 3), st.integers(0, n0 + 3)), min_size=1, max_size=12))
    events = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 5)), max_size=50))
    keep = draw(st.one_of(st.none(), st.integers(0, 50)))
    widen = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return m0, n0, cells, base_r, events, keep, widen


@settings(max_examples=200, deadline=None)
@given(case=_base_and_log())
def test_merged_ratings_sums_every_repeat_like_a_dense_oracle(case):
    m0, n0, cells, base_r, events, keep, (wide_m, wide_n) = case
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    base = CSRMatrix.from_arrays((m0, n0), rows, cols, np.array(base_r, dtype=np.float64))
    log = InteractionLog()
    for (user, item), rating in events:
        log.record(user, np.array([item]), np.array([float(rating)]))
    if keep is not None:
        log.compact(keep)
    users = np.array([e[0][0] for e in events], dtype=np.int64)
    items = np.array([e[0][1] for e in events], dtype=np.int64)
    m = max(m0, int(users.max(initial=-1)) + 1) + wide_m
    n = max(n0, int(items.max(initial=-1)) + 1) + wide_n
    merged = merged_ratings(base, log, n_users=m, n_items=n)

    oracle = np.zeros((m, n))
    oracle[:m0, :n0] = base.to_dense()
    np.add.at(oracle, (users, items), np.array([e[1] for e in events], dtype=np.float64))
    assert merged.shape == (m, n)
    assert np.array_equal(merged.to_dense(), oracle)
    assert merged.nnz == np.count_nonzero(oracle)  # every rating is ≥ 1: one entry per rated cell
    keys = merged.row_ids() * n + merged.indices
    assert np.all(np.diff(keys) > 0)  # columns strictly ascending within each row
