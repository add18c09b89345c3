"""Sparse data-path benchmarks: matrix generation, CSR builds, transposes and the refresh merge.

Every run enters through these: ``generate_ratings`` builds each
workload's input, the e2e harness splits it with ``CSRMatrix.from_arrays``,
every fit takes one ``transpose`` (Rᵀ for the update-Θ pass) and every
refresh calls ``merged_ratings``.  The shapes are the e2e workloads':
train-mp (NETFLIX scaled to 1500 rows, 64 items, 48k ratings), train-dp
(HUGEWIKI scaled to 6000 rows, 64 items, 192k ratings) and
serve-lifecycle (4000 users, 3000 items, 120k ratings; its merge adds a
log of 300 single rates plus 20 fold-in users × 8 ratings to the ~108k
training entries).  No case asserts a wall time.

Host wall before and after every compressed matrix was built by one
stable sort of a linear key (one ``argsort`` + ``reduceat``, instead of
a dedup ``argsort``, ``np.unique`` and a ``lexsort``) and the coordinate
sampler kept its accepted keys in a sorted array instead of a Python
``set``.  One thread of a 2-vCPU x86_64 VM, NumPy 2.4; five runs of
each side, alternating; the median of the pytest-benchmark medians,
then the lowest minimum:

===============================  ====================  ====================
case                             before (median/min)   after (median/min)
===============================  ====================  ====================
generate_ratings[train-mp]       136 / 103 ms          93.0 / 72.3 ms
generate_ratings[train-dp]       596 / 478 ms          392 / 318 ms
generate_ratings[lifecycle]      199 / 174 ms          128 / 112 ms
from_arrays[sorted]              27.3 / 22.2 ms        5.54 / 4.50 ms
from_arrays[shuffled]            50.7 / 45.7 ms        31.4 / 28.2 ms
transpose                        39.7 / 31.7 ms        17.4 / 14.8 ms
merged_ratings                   21.7 / 19.7 ms        4.41 / 2.89 ms
===============================  ====================  ====================

Run with ``pytest benchmarks/bench_sparse.py``; ``--benchmark-disable``
runs each case once as a smoke test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import HUGEWIKI, NETFLIX, DatasetSpec, generate_ratings
from repro.serving.lifecycle import InteractionLog, merged_ratings
from repro.sparse import CSRMatrix

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
