"""Micro-benchmarks of the numerical hot paths (wall-clock, pytest-benchmark).

These are not paper artefacts; they track the performance of the
vectorised Hermitian assembly and batched solve that every experiment
rests on, so regressions in the NumPy kernels are caught.  Every kernel
runs at f=16 and at f=100, where Hermitian assembly is ``O(nnz·f²)`` and
its memory traffic matters most.  Two more cases time the data-parallel
pass's pieces: the grid partition of a 6000×64 matrix (~170k ratings)
into 4×4 blocks, and the Hermitians of one 1500×16 block at f=16.

At f=100, before and after the fused ``Gᵀ[G | r]`` product and the single
stacked solve (best of 5 on a 2-vCPU Intel Xeon VM, NumPy 2.4 with
OpenBLAS 0.3.31): ``compute_hermitians`` on 1024 rows 116 → 59 ms,
``batch_solve`` on 2048 systems 332 → 268 ms.
"""

import numpy as np
import pytest

from repro.core.hermitian import batch_solve, compute_hermitians, update_factor
from repro.datasets.registry import HUGEWIKI, DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.sparse.partition import grid_partition


@pytest.fixture(scope="module")
def workload():
    spec = DatasetSpec("bench", 3000, 600, 90_000, 16, 0.05, kind="synthetic")
    return generate_ratings(spec, seed=0)


@pytest.fixture(scope="module", params=[16, 100], ids=lambda f: f"f{f}")
def theta(request, workload):
    return np.random.default_rng(1).normal(size=(workload.train.shape[1], request.param))


def test_bench_compute_hermitians(benchmark, workload, theta):
    f = theta.shape[1]
    a, b = benchmark(compute_hermitians, workload.train, theta, 0.05, 0, 1024)
    assert a.shape == (1024, f, f)


def test_bench_batch_solve(benchmark, workload, theta):
    a, b = compute_hermitians(workload.train, theta, 0.05, 0, 2048)
    x = benchmark(batch_solve, a, b)
    assert np.isfinite(x).all()


def test_bench_full_update_pass(benchmark, workload, theta):
    x = benchmark(update_factor, workload.train, theta, 0.05, 2048)
    assert x.shape == (workload.train.shape[0], theta.shape[1])


@pytest.fixture(scope="module")
def data_parallel_train():
    return generate_ratings(HUGEWIKI.scaled(max_rows=6000, f=16), seed=0).train


def test_bench_grid_partition(benchmark, data_parallel_train):
    grid = benchmark(grid_partition, data_parallel_train, 4, 4)
    assert sum(block.nnz for column in grid.blocks for block in column) == data_parallel_train.nnz


def test_bench_data_parallel_block_hermitians(benchmark, data_parallel_train):
    block = grid_partition(data_parallel_train, 4, 4).block(0, 0)
    theta = np.random.default_rng(1).normal(size=(block.shape[1], 16))
    a, b = benchmark(compute_hermitians, block, theta, 0.05)
    assert a.shape == (1500, 16, 16) and b.shape == (1500, 16)
