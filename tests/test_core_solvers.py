"""Integration and property tests for the three ALS solvers and the trainer."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.comm.reduction import OnePhaseParallelReduction, ReduceToOne, TwoPhaseTopologyReduction
from repro.core import als_su
from repro.core.als_base import BaseALS, init_factors
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.config import ALSConfig
from repro.core.trainer import CuMF
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import OutOfDeviceMemory
from repro.gpu.specs import TITAN_X


class TestBaseALS:
    def test_rmse_decreases_monotonically_on_train(self, tiny_ratings, als_config):
        result = BaseALS(als_config.with_(iterations=5)).fit(tiny_ratings.train, tiny_ratings.test)
        train_curve = [h.train_rmse for h in result.history]
        assert all(b <= a + 1e-9 for a, b in zip(train_curve, train_curve[1:]))

    def test_test_rmse_improves_over_first_iteration(self, tiny_ratings, als_config):
        result = BaseALS(als_config.with_(iterations=6)).fit(tiny_ratings.train, tiny_ratings.test)
        assert result.final_test_rmse < result.history[0].test_rmse

    def test_converges_toward_noise_floor(self, medium_ratings):
        cfg = ALSConfig(f=12, lam=0.05, iterations=8, seed=0)
        result = BaseALS(cfg).fit(medium_ratings.train, medium_ratings.test)
        assert result.final_test_rmse < 2.5 * medium_ratings.rmse_floor() + 0.25

    def test_objective_decreases_when_tracked(self, tiny_ratings, als_config):
        result = BaseALS(als_config.with_(iterations=4)).fit(tiny_ratings.train, tiny_ratings.test, compute_objective=True)
        objectives = [h.objective for h in result.history]
        assert all(b <= a + 1e-6 for a, b in zip(objectives, objectives[1:]))

    def test_warm_start_from_given_factors(self, tiny_ratings, als_config):
        m, n = tiny_ratings.train.shape
        x0, theta0 = init_factors(m, n, als_config)
        a = BaseALS(als_config).fit(tiny_ratings.train, x0=x0, theta0=theta0)
        b = BaseALS(als_config).fit(tiny_ratings.train, x0=x0, theta0=theta0)
        np.testing.assert_allclose(a.x, b.x)

    def test_deterministic_given_seed(self, tiny_ratings, als_config):
        a = BaseALS(als_config).fit(tiny_ratings.train)
        b = BaseALS(als_config).fit(tiny_ratings.train)
        np.testing.assert_allclose(a.x, b.x)
        np.testing.assert_allclose(a.theta, b.theta)

    def test_history_metadata(self, tiny_ratings, als_config):
        result = BaseALS(als_config).fit(tiny_ratings.train, tiny_ratings.test)
        assert len(result.history) == als_config.iterations
        assert result.history[-1].cumulative_seconds >= result.history[0].cumulative_seconds
        assert result.solver == "base-als"


class TestMemoryOptimizedALS:
    def test_numerically_identical_to_base(self, tiny_ratings, als_config):
        base = BaseALS(als_config).fit(tiny_ratings.train, tiny_ratings.test)
        mo = MemoryOptimizedALS(als_config).fit(tiny_ratings.train, tiny_ratings.test)
        np.testing.assert_allclose(mo.x, base.x, atol=1e-9)
        np.testing.assert_allclose(mo.theta, base.theta, atol=1e-9)

    def test_history_carries_simulated_seconds(self, tiny_ratings, als_config):
        result = MemoryOptimizedALS(als_config).fit(tiny_ratings.train)
        assert result.total_seconds > 0
        assert any("get_hermitian" in k for k in result.breakdown)

    def test_register_ablation_slows_simulated_time_not_numerics(self, tiny_ratings, als_config):
        fast = MemoryOptimizedALS(als_config).fit(tiny_ratings.train)
        slow = MemoryOptimizedALS(als_config.with_(use_registers=False)).fit(tiny_ratings.train)
        assert slow.total_seconds > fast.total_seconds
        np.testing.assert_allclose(slow.x, fast.x, atol=1e-9)

    def test_texture_ablation_slows_simulated_time(self, tiny_ratings, als_config):
        fast = MemoryOptimizedALS(als_config).fit(tiny_ratings.train)
        slow = MemoryOptimizedALS(als_config.with_(use_texture=False)).fit(tiny_ratings.train)
        assert slow.total_seconds > fast.total_seconds

    def test_rejects_multi_gpu_machine(self, als_config):
        with pytest.raises(ValueError):
            MemoryOptimizedALS(als_config, machine=MultiGPUMachine(2))

    def test_out_of_memory_when_theta_exceeds_device(self, tiny_ratings, als_config):
        # A 150 KB "device" cannot hold the 90x512 fixed factor (~184 KB):
        # MO-ALS must refuse, exactly like the real 12 GB limitation of §3.4.
        tiny_device = TITAN_X.with_memory(150 * 1024)
        solver = MemoryOptimizedALS(als_config.with_(f=512), machine=MultiGPUMachine(1, spec=tiny_device))
        with pytest.raises(OutOfDeviceMemory):
            solver.fit(tiny_ratings.train)


class TestScaleUpALS:
    @pytest.mark.parametrize("n_gpus", [1, 2, 4])
    def test_model_parallel_matches_base(self, tiny_ratings, als_config, n_gpus):
        base = BaseALS(als_config).fit(tiny_ratings.train)
        su = ScaleUpALS(als_config, n_gpus=n_gpus).fit(tiny_ratings.train)
        np.testing.assert_allclose(su.x, base.x, atol=1e-8)
        np.testing.assert_allclose(su.theta, base.theta, atol=1e-8)

    @pytest.mark.parametrize("scheme", [ReduceToOne(), OnePhaseParallelReduction(), TwoPhaseTopologyReduction()])
    def test_data_parallel_matches_base_for_every_reduction(self, tiny_ratings, als_config, scheme):
        base = BaseALS(als_config).fit(tiny_ratings.train)
        su = ScaleUpALS(als_config, n_gpus=4, reduction=scheme, force_data_parallel=True, q_override=2).fit(tiny_ratings.train)
        np.testing.assert_allclose(su.x, base.x, atol=1e-8)

    def test_more_gpus_are_faster_in_simulated_time(self, medium_ratings):
        cfg = ALSConfig(f=12, lam=0.05, iterations=2, seed=3)
        t1 = ScaleUpALS(cfg, n_gpus=1).fit(medium_ratings.train).total_seconds
        t4 = ScaleUpALS(cfg, n_gpus=4).fit(medium_ratings.train).total_seconds
        assert t4 < t1

    def test_q_override_does_not_change_numerics(self, tiny_ratings, als_config):
        a = ScaleUpALS(als_config, n_gpus=2, force_data_parallel=True, q_override=1).fit(tiny_ratings.train)
        b = ScaleUpALS(als_config, n_gpus=2, force_data_parallel=True, q_override=3).fit(tiny_ratings.train)
        np.testing.assert_allclose(a.x, b.x, atol=1e-8)

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_data_parallel_fit_partitions_r_and_rt_once(self, tiny_ratings, als_config, monkeypatch, iterations):
        grids = []
        partition = als_su.grid_partition

        def counting(r, p, q):
            grids.append(partition(r, p, q))
            return grids[-1]

        monkeypatch.setattr(als_su, "grid_partition", counting)
        solver = ScaleUpALS(als_config.with_(iterations=iterations), n_gpus=4, force_data_parallel=True, q_override=2)
        solver.fit(tiny_ratings.train)
        assert [grid.row_partition.extent for grid in grids] == list(tiny_ratings.train.shape)
        refs = [weakref.ref(grids[0]), weakref.ref(grids[1].block(0, 0).indices)]
        grids.clear()
        gc.collect()
        assert all(ref() is None for ref in refs), "the solver holds a grid after its fit"

    def test_model_parallel_fit_never_partitions(self, tiny_ratings, als_config, monkeypatch):
        calls = []
        monkeypatch.setattr(als_su, "grid_partition", lambda *args: calls.append(args))
        ScaleUpALS(als_config, n_gpus=4).fit(tiny_ratings.train)
        assert calls == []

    def test_breakdown_contains_reduction_transfers(self, tiny_ratings, als_config):
        su = ScaleUpALS(als_config, n_gpus=4, force_data_parallel=True)
        result = su.fit(tiny_ratings.train)
        assert any(k.startswith("reduce:") for k in result.breakdown)


class TestCuMFTrainer:
    def test_backend_validation(self):
        with pytest.raises(ValueError):
            CuMF(backend="tpu")

    def test_fit_predict_score(self, tiny_ratings, als_config):
        model = CuMF(als_config, backend="mo")
        result = model.fit(tiny_ratings.train, tiny_ratings.test)
        assert result.final_test_rmse == pytest.approx(model.score(tiny_ratings.test))
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        preds = model.predict(users, items)
        assert preds.shape == (3,)

    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError):
            CuMF().predict(np.array([0]), np.array([0]))

    def test_recommend_excludes_seen_items(self, tiny_ratings, als_config):
        model = CuMF(als_config, backend="base")
        model.fit(tiny_ratings.train, tiny_ratings.test)
        rated, _ = tiny_ratings.train.row(0)
        recs = model.recommend(0, k=10, exclude=tiny_ratings.train)
        assert not set(i for i, _ in recs) & set(rated.tolist())
        scores = [s for _, s in recs]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_validation(self, tiny_ratings, als_config):
        model = CuMF(als_config, backend="base")
        model.fit(tiny_ratings.train)
        with pytest.raises(ValueError, match="out of range"):
            model.recommend(10**6)
        with pytest.raises(ValueError, match="out of range"):
            model.recommend(-1)
        with pytest.raises(ValueError):
            model.recommend(0, k=0)

    def test_checkpoint_resume(self, tiny_ratings, als_config, tmp_path):
        model = CuMF(als_config.with_(iterations=2), backend="base", checkpoint_dir=str(tmp_path))
        first = model.fit(tiny_ratings.train, tiny_ratings.test)
        resumed = CuMF(als_config.with_(iterations=2), backend="base", checkpoint_dir=str(tmp_path))
        second = resumed.fit(tiny_ratings.train, tiny_ratings.test, resume=True)
        # Resuming from the checkpointed factors must not be worse than the first run.
        assert second.final_train_rmse <= first.final_train_rmse + 1e-9

    def test_su_backend_smoke(self, tiny_ratings, als_config):
        model = CuMF(als_config.with_(iterations=2), backend="su", n_gpus=2)
        result = model.fit(tiny_ratings.train, tiny_ratings.test)
        assert len(result.history) == 2
