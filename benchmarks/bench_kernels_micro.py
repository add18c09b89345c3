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

Two more cases time the other pass directions at the end-to-end shapes:
train-dp's Θ pass (one grid block of Rᵀ: 16 item rows of ~670 ratings
each, f = 16) and one GPU's 375-row slice of train-mp's X pass at f = 32.

Before and after the one-gather assembly (each rating's ``[θ_v | r_uv]``
gathered once in row-length order, each run's product written once into
``A`` and ``B``): six alternating pytest-benchmark runs per side with
``OPENBLAS_NUM_THREADS=1`` on a 2-vCPU x86-64 VM (NumPy 2.4.6, OpenBLAS
0.3.31); the median of the six medians and the lowest min, in ms.  Single
medians here swing by up to ~70% between runs of one commit.

=========================================  =================  =================
case                                       median             min
=========================================  =================  =================
``compute_hermitians[f16]`` (1024 rows)    4.71 → 3.31        3.78 → 2.55
``compute_hermitians[f100]``               77.9 → 64.0        60.6 → 45.0
``full_update_pass[f16]``                  28.4 → 21.3        22.4 → 17.2
``full_update_pass[f100]``                 580 → 545          509 → 442
``data_parallel_block_hermitians``         2.30 → 1.60        1.86 → 1.06
``data_parallel_theta_pass_hermitians``    1.03 → 0.69        0.88 → 0.56
``model_parallel_slice_hermitians``        3.09 → 2.12        2.55 → 1.58
``batch_solve[f16]`` (unchanged code)      7.35 → 7.17        4.90 → 4.98
``batch_solve[f100]`` (unchanged code)     210 → 221          186 → 184
=========================================  =================  =================
"""

import numpy as np
import pytest

from repro.core.hermitian import batch_solve, compute_hermitians, update_factor
from repro.datasets.registry import HUGEWIKI, NETFLIX, DatasetSpec
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


def test_bench_data_parallel_theta_pass_hermitians(benchmark):
    """train-dp's Θ pass: one grid block of Rᵀ, 16 item rows of ~670 ratings each, f = 16."""
    train = generate_ratings(HUGEWIKI.scaled(max_rows=6000, f=16), seed=1).train
    block = grid_partition(train.transpose(), 4, 4).block(0, 0)
    x = np.random.default_rng(1).normal(size=(block.shape[1], 16))
    a, b = benchmark(compute_hermitians, block, x, 0.05)
    assert a.shape == (16, 16, 16) and block.nnz > 600 * 16


def test_bench_model_parallel_slice_hermitians(benchmark):
    """train-mp's X pass: one GPU's 375-row slice at f = 32."""
    train = generate_ratings(NETFLIX.scaled(max_rows=1500, f=32), seed=1).train
    theta = np.random.default_rng(1).normal(size=(train.shape[1], 32))
    a, b = benchmark(compute_hermitians, train, theta, 0.05, 0, 375)
    assert a.shape == (375, 32, 32) and b.shape == (375, 32)
