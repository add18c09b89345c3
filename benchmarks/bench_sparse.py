"""Sparse data-path benchmarks: matrix generation, coordinate sampling, CSR builds, transposes, the grid partition and the refresh merge.

Every run enters through these: ``generate_ratings`` builds each
workload's input (most of it is ``_sample_coordinates``), the e2e
harness splits it with ``CSRMatrix.from_arrays``, every fit takes one
``transpose`` (Rᵀ for the update-Θ pass), every SU-ALS fit with data
parallelism grid-partitions R, and every refresh calls
``merged_ratings``.  The shapes are the e2e workloads': train-mp
(NETFLIX scaled to 1500 rows, 64 items, 48k ratings), train-dp
(HUGEWIKI scaled to 6000 rows, 64 items, 192k ratings; its grid is
4 GPUs × 4 row batches; the ``sample_coordinates``, ``grid_partition``,
``from_arrays`` and ``transpose`` cases use it) and serve-lifecycle
(4000 users, 3000 items, 120k ratings; its merge adds a log of 300
single rates plus 20 fold-in users × 8 ratings to the ~108k training
entries).  No case asserts a wall time.

Host wall before and after every sort of the data path (``_compress``,
the sampler's per-round first-draw search, ``grid_partition``'s owner
order) became one packed-key value sort (``_stable_order``: key and
position in one int64, ``np.sort``, one ``divmod``) instead of NumPy's
stable argsort, which is timsort.  One thread of a 2-vCPU x86_64 VM,
NumPy 2.4; five runs of each side, alternating; the median of the
pytest-benchmark medians, then the lowest minimum.  The presorted cases
(``from_arrays[sorted]``, ``merged_ratings``) get slower: timsort was
linear on them and the packed sort is not.

===============================  ====================  ====================
case                             before (median/min)   after (median/min)
===============================  ====================  ====================
generate_ratings[train-mp]       103 / 73.9 ms         68.7 / 56.2 ms
generate_ratings[train-dp]       424 / 347 ms          287 / 231 ms
generate_ratings[lifecycle]      148 / 121 ms          120 / 97.5 ms
sample_coordinates               289 / 241 ms          207 / 175 ms
grid_partition                   13.1 / 9.09 ms        9.56 / 7.30 ms
from_arrays[sorted]              7.60 / 5.43 ms        10.4 / 8.12 ms
from_arrays[shuffled]            40.4 / 33.1 ms        11.6 / 9.64 ms
transpose                        22.5 / 17.1 ms        11.5 / 8.75 ms
merged_ratings                   4.90 / 3.23 ms        6.38 / 4.54 ms
===============================  ====================  ====================

Run with ``pytest benchmarks/bench_sparse.py``; ``--benchmark-disable``
runs each case once as a smoke test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import HUGEWIKI, NETFLIX, DatasetSpec, generate_ratings
from repro.datasets.synthetic import _sample_coordinates
from repro.serving.lifecycle import InteractionLog, merged_ratings
from repro.sparse import CSRMatrix
from repro.sparse.partition import grid_partition

SPECS = {
    "train-mp": (NETFLIX.scaled(max_rows=1500, f=32), 1),
    "train-dp": (HUGEWIKI.scaled(max_rows=6000, f=16), 1),
    "lifecycle": (DatasetSpec("lifecycle", 4000, 3000, 120_000, 16, 0.05, kind="synthetic"), 0),
}
RATES, FOLD_INS, FOLD_IN_ITEMS = 300, 20, 8


@pytest.fixture(scope="module")
def train_dp() -> CSRMatrix:
    spec, seed = SPECS["train-dp"]
    return generate_ratings(spec, seed=seed, test_fraction=0.0).train


@pytest.mark.parametrize("name", list(SPECS))
def test_bench_generate_ratings(benchmark, name):
    spec, seed = SPECS[name]
    data = benchmark(generate_ratings, spec, seed)
    assert data.train.shape == (spec.m, spec.n)


def test_bench_sample_coordinates(benchmark):
    spec, seed = SPECS["train-dp"]
    rows, cols = benchmark(lambda: _sample_coordinates(spec.m, spec.n, spec.nz, np.random.default_rng(seed), 0.7, 0.7))
    assert rows.size == cols.size == spec.nz
    assert np.unique(rows * spec.n + cols).size == spec.nz


def test_bench_grid_partition(benchmark, train_dp):
    # train-dp's SU-ALS grid: 4 GPUs (p) by 4 row batches (q).
    grid = benchmark(grid_partition, train_dp, 4, 4)
    assert sum(grid.block(i, j).nnz for i in range(4) for j in range(4)) == train_dp.nnz


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_bench_from_arrays(benchmark, train_dp, order):
    rows, cols, data = train_dp.row_ids(), train_dp.indices, train_dp.data
    if order == "shuffled":
        perm = np.random.default_rng(0).permutation(train_dp.nnz)
        rows, cols, data = rows[perm], cols[perm], data[perm]
    built = benchmark(CSRMatrix.from_arrays, train_dp.shape, rows, cols, data)
    assert built == train_dp


def test_bench_transpose(benchmark, train_dp):
    rt = benchmark(train_dp.transpose)
    assert rt.shape == train_dp.shape[::-1] and rt.nnz == train_dp.nnz


def test_bench_merged_ratings(benchmark):
    spec, seed = SPECS["lifecycle"]
    base = generate_ratings(spec, seed=seed).train
    rng = np.random.default_rng(seed)
    log = InteractionLog()
    for user in rng.integers(0, spec.m, RATES):
        log.record(int(user), rng.integers(0, spec.n, 1), rng.integers(1, 6, 1).astype(np.float64))
    for user in range(spec.m, spec.m + FOLD_INS):
        log.record(user, rng.choice(spec.n, FOLD_IN_ITEMS, replace=False), rng.integers(1, 6, FOLD_IN_ITEMS).astype(np.float64))
    merged = benchmark(merged_ratings, base, log, spec.m + FOLD_INS, spec.n)
    assert merged.shape == (spec.m + FOLD_INS, spec.n)
    assert base.nnz + FOLD_INS * FOLD_IN_ITEMS <= merged.nnz <= base.nnz + len(log)
