"""Tests for the eq.-8 planner, out-of-core streaming, checkpointing and SGD kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.als_base import BaseALS
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.checkpoint import CheckpointManager
from repro.core.config import ALSConfig
from repro.core.kernels import batch_solve_profile, get_hermitian_profile, texture_reuse_factor
from repro.core.partition_planner import DEFAULT_HEADROOM_BYTES, footprint_floats, plan_partitions
from repro.core.schedule import LINK_LATENCY_S
from repro.core.sgd import sgd_epoch
from repro.datasets.registry import FACEBOOK, HUGEWIKI, NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.specs import TITAN_X
from repro.gpu.topology import MachineTopology
from repro.gpu.transfer import Transfer, TransferEngine
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import partition_bounds

GIB = 1024**3


class TestPartitionPlanner:
    def test_footprint_formula_components(self):
        # m*f/q + n*f/p + (2nz/(pq) + m/q + 1) + (m/q)f^2 + (m/q)f
        fp = footprint_floats(m=100, n=50, nz=400, f=4, p=2, q=5)
        expected = 100 * 4 / 5 + 50 * 4 / 2 + (2 * 400 / 10 + 100 / 5 + 1) + (100 / 5) * 16 + (100 / 5) * 4
        assert fp == pytest.approx(expected)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            footprint_floats(0, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            plan_partitions(10, 10, 10, 4, capacity_bytes=1000, headroom_bytes=2000)

    def test_netflix_needs_batching_on_12gb(self):
        """The paper's §2.2 example: Netflix's m·f² = 4.8e9 floats > 3e9 capacity."""
        plan = plan_partitions(NETFLIX.m, NETFLIX.n, NETFLIX.nz, 100, TITAN_X.global_bytes, n_gpus=1)
        assert plan.feasible
        assert plan.p == 1
        assert plan.q >= 2

    def test_small_problem_needs_no_partitioning(self):
        plan = plan_partitions(1000, 500, 20_000, 16, TITAN_X.global_bytes, n_gpus=4)
        assert plan.feasible and plan.p == 1 and plan.q == 1
        assert not plan.data_parallel

    def test_hugewiki_update_theta_needs_data_parallelism(self):
        """Solving Θ on Hugewiki: the fixed X (50M x 100) cannot fit on one GPU."""
        plan = plan_partitions(HUGEWIKI.n, HUGEWIKI.m, HUGEWIKI.nz, 100, TITAN_X.global_bytes, n_gpus=4)
        assert plan.feasible
        assert plan.p > 1

    def test_infeasible_reported_not_raised(self):
        plan = plan_partitions(FACEBOOK.m, FACEBOOK.n, FACEBOOK.nz, 100, TITAN_X.global_bytes, n_gpus=1, max_q=2)
        assert not plan.feasible

    def test_paper_strategy_starts_from_larger_p(self):
        minimal = plan_partitions(YAHOOMUSIC.m, YAHOOMUSIC.n, YAHOOMUSIC.nz, 100, TITAN_X.global_bytes, n_gpus=4)
        paper = plan_partitions(
            YAHOOMUSIC.m, YAHOOMUSIC.n, YAHOOMUSIC.nz, 100, TITAN_X.global_bytes, n_gpus=4, strategy="paper"
        )
        assert paper.feasible and minimal.feasible
        assert paper.p >= minimal.p

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            plan_partitions(10, 10, 10, 2, TITAN_X.global_bytes, strategy="magic")

    def test_plan_describe_mentions_mode(self):
        plan = plan_partitions(HUGEWIKI.n, HUGEWIKI.m, HUGEWIKI.nz, 100, TITAN_X.global_bytes, n_gpus=4)
        assert "data+model" in plan.describe() or "parallel" in plan.describe()

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1_000, 5_000_000),
        n=st.integers(1_000, 1_000_000),
        f=st.sampled_from([10, 50, 100]),
    )
    def test_property_feasible_plans_respect_capacity(self, m, n, f):
        nz = min(m * 50, m * n // 2 + 1)
        plan = plan_partitions(m, n, nz, f, TITAN_X.global_bytes, n_gpus=4)
        if plan.feasible:
            assert plan.per_gpu_floats < plan.capacity_floats
            assert plan.utilisation < 1.0


class TestKernelProfiles:
    def test_hermitian_profile_flop_count(self):
        cfg = ALSConfig(f=10)
        profile = get_hermitian_profile(TITAN_X, rows=100, nnz=1000, theta_rows=50, config=cfg)
        expected = 2 * 1000 * (10 * 11 / 2) + 2 * 1000 * 10
        assert profile.flops == pytest.approx(expected)
        assert profile.blocks == 100

    def test_register_switch_moves_accumulation_traffic(self):
        cfg = ALSConfig(f=16)
        with_reg = get_hermitian_profile(TITAN_X, 100, 5000, 200, cfg)
        without_reg = get_hermitian_profile(TITAN_X, 100, 5000, 200, cfg.with_(use_registers=False))
        from repro.gpu.memory import MemoryKind

        assert MemoryKind.REGISTER in with_reg.traffic
        assert MemoryKind.REGISTER not in without_reg.traffic
        assert without_reg.traffic[MemoryKind.SHARED] > with_reg.traffic[MemoryKind.SHARED]

    def test_texture_switch_moves_gather_traffic(self):
        cfg = ALSConfig(f=16)
        with_tex = get_hermitian_profile(TITAN_X, 100, 5000, 200, cfg)
        without_tex = get_hermitian_profile(TITAN_X, 100, 5000, 200, cfg.with_(use_texture=False))
        assert with_tex.texture_bytes > 0 and with_tex.uncoalesced_global_bytes == 0
        assert without_tex.texture_bytes == 0 and without_tex.uncoalesced_global_bytes > 0

    def test_texture_reuse_decreases_with_theta_size(self):
        assert texture_reuse_factor(TITAN_X, 1_000, 100) > texture_reuse_factor(TITAN_X, 1_000_000, 100)

    def test_batch_solve_profile_scaling(self):
        small = batch_solve_profile(10, 8)
        big = batch_solve_profile(20, 8)
        assert big.flops == pytest.approx(2 * small.flops)

    def test_invalid_arguments(self):
        cfg = ALSConfig(f=8)
        with pytest.raises(ValueError):
            get_hermitian_profile(TITAN_X, -1, 10, 10, cfg)
        with pytest.raises(ValueError):
            batch_solve_profile(10, 0)


class TestOutOfCoreStreaming:
    """MO-ALS on a device too small for one update-X pass (§4.4 out-of-core).

    Eq. 8 splits the pass into ``q >= 3`` batches; each streams its R block
    and X slice in before its kernels run.  ``serial`` charges every load,
    ``eager`` overlaps them with compute under double buffering.
    """

    SPEC = DatasetSpec("out-of-core", 600, 80, 6000, 8, 0.05, kind="synthetic")
    CONFIG = ALSConfig(f=8, lam=0.05, iterations=2, seed=1)
    #: ~25k floats above the eq.-8 headroom: update-X needs three batches, update-Θ one.
    DEVICE = TITAN_X.with_memory(DEFAULT_HEADROOM_BYTES + 100_000)

    @pytest.fixture(scope="class")
    def ratings(self):
        return generate_ratings(self.SPEC, seed=3)

    def solver(self, scheduler, link_gbs=12.0):
        """MO-ALS on the small device; every graph and trace is race-checked (``verify=True``)."""
        topology = MachineTopology.single_socket(1, pcie_gbs=link_gbs, host_gbs=link_gbs)
        machine = MultiGPUMachine(1, spec=self.DEVICE, topology=topology)
        return MemoryOptimizedALS(self.CONFIG, machine=machine, scheduler=scheduler, verify=True)

    @staticmethod
    def x_passes(solver):
        """Per update-X trace (after the initial load's): the streamed loads and each batch's (get_hermitian, batch_solve) events."""
        for trace in solver.traces[1::2]:
            loads = [e for e in trace.events if e.name.startswith("h2d:")]
            kernels = sorted((e for e in trace.events if e.kind == "kernel"), key=lambda e: e.start)
            assert len(kernels) == 2 * len(loads)  # one kernel pair per batch at this size
            yield trace, loads, list(zip(kernels[::2], kernels[1::2]))

    def test_planner_splits_update_x(self, ratings):
        solver = self.solver("serial")
        assert solver.plan_batches(ratings.train) >= 3
        assert solver.plan_batches(ratings.train.to_csc().transpose_csr()) == 1

    def test_serial_charges_every_load_under_h2d(self, ratings):
        solver = self.solver("serial")
        result = solver.fit(ratings.train)
        train, f = ratings.train, self.CONFIG.f
        (m, n), nnz = train.shape, train.nnz
        engine = TransferEngine(solver.machine.topology)

        def load_seconds(floats):
            return engine.batch_time([Transfer("host:0", "gpu:0", floats * 4)]).seconds

        bounds = partition_bounds(m, solver.plan_batches(train))
        batches = [load_seconds(2 * train.range_nnz(lo, hi) + (hi - lo) + 1 + (hi - lo) * f) for lo, hi in zip(bounds[:-1], bounds[1:])]
        initial = load_seconds(n * f + m * f + 2 * nnz + m + 1)
        assert result.breakdown["h2d"] == pytest.approx(initial + self.CONFIG.iterations * sum(batches), rel=1e-12)

    def test_eager_exposes_only_the_first_load_when_compute_dominates(self, ratings):
        solver = self.solver("eager")
        solver.fit(ratings.train)
        for trace, loads, batches in self.x_passes(solver):
            compute = [herm.duration + solve.duration for herm, solve in batches]
            assert all(load.duration < work for load, work in zip(loads[1:], compute))
            assert trace.makespan == pytest.approx(loads[0].duration + sum(compute), rel=1e-12)
            # Two buffers: batch j's load overwrites batch j - 2's data, so it waits for that batch.
            assert loads[1].start < batches[0][1].end
            assert all(load.start >= batches[j][1].end for j, load in enumerate(loads[2:]))

    def test_eager_exposes_load_minus_compute_per_batch_when_loads_dominate(self, ratings):
        solver = self.solver("eager", link_gbs=0.01)
        solver.fit(ratings.train)
        latency = 2 * LINK_LATENCY_S  # host -> PCIe switch -> GPU; loads pipeline behind it on the link
        for trace, loads, batches in self.x_passes(solver):
            compute = [herm.duration + solve.duration for herm, solve in batches]
            link = [load.duration - latency for load in loads]
            assert all(busy > work for busy, work in zip(link[1:], compute))
            exposed = trace.makespan - sum(compute)
            want = loads[0].duration + sum(busy - work for busy, work in zip(link[1:], compute))
            assert exposed == pytest.approx(want, rel=1e-12)

    def test_factors_bitwise_identical_across_schedulers(self, ratings):
        serial = self.solver("serial").fit(ratings.train)
        eager = self.solver("eager").fit(ratings.train)
        assert np.array_equal(serial.x, eager.x) and np.array_equal(serial.theta, eager.theta)
        base = BaseALS(self.CONFIG).fit(ratings.train)
        np.testing.assert_allclose(serial.x, base.x, atol=1e-8)
        np.testing.assert_allclose(serial.theta, base.theta, atol=1e-8)
        assert eager.total_seconds < serial.total_seconds


class TestCheckpointManager:
    def test_save_load_roundtrip(self, tmp_path, rng):
        mgr = CheckpointManager(tmp_path)
        x = rng.normal(size=(5, 3))
        theta = rng.normal(size=(4, 3))
        mgr.save(7, x, theta)
        restored = mgr.load(7)
        np.testing.assert_allclose(restored.x, x)
        np.testing.assert_allclose(restored.theta, theta)
        assert restored.iteration == 7

    def test_latest_and_pruning(self, tmp_path, rng):
        mgr = CheckpointManager(tmp_path, keep=2)
        for it in (1, 2, 3, 4):
            mgr.save(it, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert mgr.list_iterations() == [3, 4]
        assert mgr.latest().iteration == 4

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestSGDKernel:
    def test_epoch_reduces_training_rmse(self, tiny_ratings):
        from repro.core.metrics import rmse

        rng = np.random.default_rng(0)
        m, n = tiny_ratings.train.shape
        x = rng.random((m, 8)) * 0.1
        theta = rng.random((n, 8)) * 0.1
        before = rmse(tiny_ratings.train, x, theta)
        sgd_epoch(tiny_ratings.train, x, theta, lr=0.05, lam=0.05, rng=rng)
        after = rmse(tiny_ratings.train, x, theta)
        assert after < before

    def test_learning_rate_validation(self, tiny_ratings):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sgd_epoch(tiny_ratings.train, np.zeros((1, 1)), np.zeros((1, 1)), lr=0.0, lam=0.1, rng=rng)

    def test_updates_only_touch_observed_rows_and_cols(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = 3.0
        r = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(1)
        x = np.ones((4, 2))
        theta = np.ones((4, 2))
        sgd_epoch(r, x, theta, lr=0.1, lam=0.0, rng=rng)
        np.testing.assert_allclose(x[2:], 1.0)
        np.testing.assert_allclose(theta[[0, 2, 3]], 1.0)
