"""Micro-benchmarks of the numerical hot paths (wall-clock, pytest-benchmark).

These are not paper artefacts; they track the performance of the
vectorised Hermitian assembly and batched solve that every experiment
rests on, so regressions in the NumPy kernels are caught.  Every kernel
runs at f=16 and at f=100, where Hermitian assembly is ``O(nnz·f²)`` and
its memory traffic matters most.
"""

import numpy as np
import pytest

from repro.core.hermitian import batch_solve, compute_hermitians, update_factor
from repro.datasets.registry import DatasetSpec
from repro.datasets.synthetic import generate_ratings


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
